//! The declarative experiment API.
//!
//! The paper's result is a *matrix* of experiments — algorithm × world
//! (cluster size, δ) × latency backend × query budget × seeds. This
//! module makes that matrix a value:
//!
//! * [`ExperimentSpec`] describes the whole experiment as data (a
//!   [`Workload::QueryMatrix`] of [`CellSpec`]s, or a measurement-stack
//!   [`Workload::Study`] stage);
//! * [`AlgoRegistry`] maps names to object-safe [`AlgoFactory`]s —
//!   brute-force and random here; Meridian, the baselines, the
//!   coordinate walk and the hybrid remedies register from their own
//!   crates;
//! * [`Experiment::run`] executes the spec — seeds fanned over
//!   the worker pool, each seed's scenario dropped when it finishes,
//!   metrics reduced in spec order — into a typed [`ExperimentReport`];
//! * [`sink`] renders reports as aligned tables, JSON lines or
//!   BENCH-style records.
//!
//! Adding a scenario is building an [`ExperimentSpec`] (~15 lines) —
//! not a new binary. Every figure in `np-bench` is such a spec.
//!
//! # Example
//!
//! ```
//! use np_core::experiment::{
//!     AlgoRegistry, AlgoSpec, Backend, BruteForceFactory, CellSpec, Experiment,
//!     ExperimentSpec, RandomChoiceFactory, SeedPlan,
//! };
//!
//! let mut registry = AlgoRegistry::new();
//! registry.register(Box::new(BruteForceFactory));
//! registry.register(Box::new(RandomChoiceFactory));
//!
//! // A miniature Figure 8-style cell (CellSpec::paper builds the
//! // paper's 2,500-peer shape; this doc example keeps the world tiny).
//! let world = np_topology::ClusterWorldSpec {
//!     clusters: 4,
//!     en_per_cluster: 8,
//!     peers_per_en: 2,
//!     delta: 0.2,
//!     mean_hub_ms: (4.0, 6.0),
//!     intra_en: np_util::Micros::from_us(100),
//!     hub_pool: 5,
//! };
//! let spec = ExperimentSpec::query(
//!     "demo",
//!     "random vs brute force on a small cluster world",
//!     "brute force is exact; random is not",
//!     Backend::Dense,
//!     SeedPlan::Single,
//!     vec![CellSpec {
//!         label: "x=8".into(),
//!         world,
//!         n_targets: 8,
//!         base_seed: 42,
//!         queries: 40,
//!         quick_queries: None,
//!         in_quick: true,
//!         churn: None,
//!         super_shards: None,
//!         block_cache_mb: None,
//!         algos: vec![AlgoSpec::new("brute-force"), AlgoSpec::new("random")],
//!     }],
//! );
//! let report = Experiment::new(spec, &registry).run(2);
//! let cell = &report.query_cells().expect("query spec")[0];
//! assert_eq!(cell.rows[0].single().p_correct_closest, 1.0);
//! assert!(cell.rows[1].single().p_correct_closest < 1.0);
//! ```

pub mod registry;
pub mod report;
pub mod run;
pub mod sink;
pub mod spec;
pub mod spec_toml;

pub use registry::{
    AlgoContext, AlgoFactory, AlgoRegistry, BruteForceFactory, BuildCache, RandomChoiceFactory,
    UnknownAlgo,
};
pub use report::{AlgoReport, CellReport, ExperimentReport, ReportBody};
pub use run::{hierarchical_knobs, Experiment, ScenarioHandle, DEFAULT_BLOCK_CACHE_MB};
pub use spec::{
    AlgoSpec, Backend, CellSpec, ExperimentSpec, SeedPlan, StudyCtx, StudyOutput, StudyStage,
    UnknownBackend, Workload,
};
pub use spec_toml::SpecError;
