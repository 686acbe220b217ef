//! # np-metric
//!
//! Latency spaces and the search API for the `nearest-peer` reproduction
//! (Vishnumurthy & Francis, IMC 2008).
//!
//! The paper's entire argument is about the *shape* of the inter-peer
//! latency space: under the clustering condition the space violates the
//! growth-constrained assumption, the doubling assumption and low
//! dimensionality (§2.2), and every latency-only nearest-peer algorithm
//! degrades to brute force. This crate provides:
//!
//! * [`matrix::LatencyMatrix`] — the dense symmetric RTT matrix every
//!   simulation consumes, with ground-truth nearest/k-NN queries,
//! * [`graph`] — weighted router-level graphs with Dijkstra (bounded and
//!   full), used by the traceroute-derived adjacency study of paper §5
//!   (Figures 10–11),
//! * [`diagnostics`] — quantitative versions of §2.2: growth constant,
//!   doubling constant via greedy ball cover, and the Levina–Bickel
//!   intrinsic-dimension estimator,
//! * [`nearest`] — the [`nearest::NearestPeerAlgo`] trait implemented by
//!   Meridian, the coordinate schemes and every baseline, plus the
//!   [`nearest::QueryOutcome`] accounting (probe and hop counts) that the
//!   paper's cost arguments are about,
//! * [`cache`] — precomputed ground-truth nearest-member answers
//!   ([`cache::NearestCache`]), built in parallel once per scenario so
//!   the batch query runner checks outcomes in O(1),
//! * [`index`] — [`index::NearestIndex`], one member set's nearest
//!   member for any target in O(shards) on the hub-model backends;
//!   the truth cache and brute force both answer through it,
//! * [`drift`] — [`drift::DriftedWorld`], additive per-peer RTT drift
//!   over any backend (the churn scenarios' time-varying latencies),
//! * [`world`] — the [`world::WorldStore`] backend trait every consumer
//!   (targets, caches, overlays, the runner) is written against,
//! * [`hierarchical`] — [`hierarchical::HierarchicalWorld`], the
//!   compressed backend (per-cluster blocks, a hub summary grouped
//!   under super-hubs, lazily materialised blocks under a byte budget)
//!   that takes worlds past the dense matrix's ~2.5 k-peer memory wall
//!   to 10⁶ peers with bounded RSS,
//! * [`scan`] — the shared SIMD-friendly nearest-scan kernel the dense
//!   matrix and the default `nearest_within` run on.

pub mod cache;
pub mod diagnostics;
pub mod drift;
pub mod graph;
pub mod hierarchical;
pub mod index;
pub mod matrix;
pub mod nearest;
pub mod scan;
pub mod world;

pub use cache::NearestCache;
pub use drift::DriftedWorld;
pub use hierarchical::{CacheStats, HierarchicalWorld};
pub use index::NearestIndex;
pub use matrix::{LatencyMatrix, PeerId};
pub use nearest::{FaultPlan, NearestPeerAlgo, ProbeCounter, QueryOutcome, Target};
pub use world::WorldStore;
