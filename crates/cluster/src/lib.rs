//! # np-cluster
//!
//! The measurement pipelines of the paper's §3 and the §5 data
//! substrate, operating purely on *observed* measurements (traces,
//! pings, King, TCP-pings from `np-probe`) — never on ground truth — so
//! they inherit every noise mode the paper discusses.
//!
//! * [`dns`] — the DNS-server study: map each server to its closest
//!   upstream PoP via rockettrace annotations, pair servers within a
//!   cluster, predict pair latency by the common-router/PoP rule, and
//!   compare against King (Figures 3 and 4),
//! * [`domain`] — intra-domain vs inter-domain latency distributions
//!   (Figure 5),
//! * [`azureus`] — the Azureus peer study: multi-vantage upstream-router
//!   agreement, TCP-ping latencies, hub-latency subtraction with the
//!   negative-discard rule, 1.5× cluster pruning (Figures 6 and 7),
//! * [`trace_graph`] — the traceroute-derived adjacency graph over peers
//!   and routers that §5's Dijkstra analysis (Figures 10, 11) runs on.

pub mod azureus;
pub mod dns;
pub mod domain;
pub mod trace_graph;

pub use azureus::{AzureusStudy, Cluster};
pub use dns::{DnsStudy, PairSample};
pub use trace_graph::TraceGraph;
