//! # np-remedies
//!
//! The paper's §5: mechanisms that add *topological* information to
//! nearest-peer discovery, because §2–§4 showed latency-only search
//! cannot penetrate the clustering condition.
//!
//! * [`ucl`] — the **Upstream Connectivity List** heuristic: each peer
//!   registers itself under the routers within `n` hops upstream (keys =
//!   router IPs) in a key-value map; peers sharing a close upstream
//!   router find each other directly, and latency annotations let them
//!   discard far candidates without probing. Includes the Figure 10 hop
//!   study and the §5 discovery-rate evaluation.
//! * [`prefix`] — the **IP-prefix** heuristic's Figure 11
//!   false-positive/false-negative study (no sweet spot exists).
//! * [`cluster_hints`] — the §5 hybrid's end-network hint source.
//!
//! The paper evaluates the registries over "a perfect key-value map"
//! and leaves hosting it on a DHT to deployment; the UCL registry keeps
//! that map in process.

pub mod cluster_hints;
pub mod prefix;
pub mod ucl;

pub use cluster_hints::{EnRegistry, HybridHintFactory};
pub use ucl::UclRegistry;
