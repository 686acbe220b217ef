//! # nearest-peer
//!
//! A full reproduction, as a Rust workspace, of **"On the Difficulty of
//! Finding the Nearest Peer in P2P Systems"** (Vivek Vishnumurthy and
//! Paul Francis, IMC 2008).
//!
//! The paper identifies the **clustering condition** — the last-hop star
//! around ISP PoPs puts many peers in *different* end-networks at *about
//! the same* latency from each other — and shows that every latency-only
//! nearest-peer algorithm degenerates to brute force inside such a
//! cluster, missing the exact-closest peer (the one in the same
//! end-network at ~100 µs). This crate re-exports the whole system:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`util`] | latency units, deterministic RNG, statistics, CDFs, plots |
//! | [`topology`] | the Internet model and the paper's §4 cluster worlds |
//! | [`metric`] | latency backends (dense, hierarchical), Dijkstra, metric diagnostics, the search API |
//! | [`probe`] | ping / traceroute / King / TCP-ping simulators |
//! | [`cluster`] | the §3 measurement pipelines (Figures 3–7) |
//! | [`meridian`] | the Meridian overlay and β-routing queries |
//! | [`coords`] | Vivaldi coordinates and the greedy walk |
//! | [`baselines`] | Karger–Ruhl, Tapestry, Tiers, Beaconing |
//! | [`dht`] | the Kademlia and NSW structured-overlay searchers |
//! | [`remedies`] | §5: the UCL registry, the IP-prefix study and the hybrid's hints |
//! | [`core`] | scenarios, the experiment runner, the hybrid algorithm, and the declarative `ExperimentSpec` → `AlgoFactory` registry → `Experiment` pipeline behind every figure |
//!
//! ## Quickstart
//!
//! ```
//! use nearest_peer::prelude::*;
//!
//! // A small cluster world in the paper's Figure 8 style: 8 clusters
//! // of 20 end-networks, 2 peers each, delta = 0.2.
//! let spec = ClusterWorldSpec {
//!     clusters: 8,
//!     en_per_cluster: 20,
//!     peers_per_en: 2,
//!     delta: 0.2,
//!     mean_hub_ms: (4.0, 6.0),
//!     intra_en: Micros::from_us(100),
//!     hub_pool: 8,
//! };
//! // Every call that can fan out takes its worker count; the results
//! // are the same at any count.
//! let threads = 2;
//! let scenario = ClusterScenario::build(spec, 20, 42, threads);
//! let overlay = Overlay::build(
//!     &scenario.matrix,
//!     scenario.overlay.clone(),
//!     MeridianConfig::default(),
//!     BuildMode::Omniscient,
//!     42,
//!     threads,
//! );
//! let metrics = run_queries(&overlay, &scenario, 50, 42, threads);
//! // Meridian lands in the right cluster almost always...
//! assert!(metrics.p_correct_cluster > 0.8);
//! // ...but the exact-closest peer is much harder (the paper's point).
//! assert!(metrics.p_correct_closest < 0.9);
//! ```
//!
//! Every paper figure is a checked-in spec under `experiments/`, run by
//! `np-bench` (`cargo run --release -p np-bench --bin np-bench -- run
//! experiments/fig8.toml`, etc.); the `EXPERIMENTS` section of
//! README.md lists them with their flags.

pub use np_baselines as baselines;
pub use np_cluster as cluster;
pub use np_coords as coords;
pub use np_core as core;
pub use np_dht as dht;
pub use np_meridian as meridian;
pub use np_metric as metric;
pub use np_probe as probe;
pub use np_remedies as remedies;
pub use np_topology as topology;
pub use np_util as util;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use np_core::hybrid::{HintSource, Hybrid};
    pub use np_core::experiment::{
        AlgoContext, AlgoFactory, AlgoRegistry, AlgoSpec, Backend, CellSpec, Experiment,
        ExperimentReport, ExperimentSpec, SeedPlan,
    };
    pub use np_core::{run_queries, ClusterScenario, PaperMetrics};
    pub use np_meridian::{BuildMode, MeridianConfig, Overlay};
    pub use np_metric::{
        HierarchicalWorld, LatencyMatrix, NearestPeerAlgo, PeerId, QueryOutcome, Target, WorldStore,
    };
    pub use np_probe::{King, NoiseConfig, Pinger, TcpPing, Tracer};
    pub use np_remedies::UclRegistry;
    pub use np_topology::{ClusterWorld, ClusterWorldSpec, HostId, InternetModel, WorldParams};
    pub use np_util::{Micros, Summary};
}
