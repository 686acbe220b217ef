//! # np-core
//!
//! The unified public API of the `nearest-peer` workspace — the
//! reproduction of *"On the Difficulty of Finding the Nearest Peer in
//! P2P Systems"* (Vishnumurthy & Francis, IMC 2008).
//!
//! * [`scenario`] — the §4 experiment scenario: a
//!   [`np_topology::ClusterWorld`], its latency matrix, a ~2,400-member
//!   overlay and ~100 held-out targets,
//! * [`runner`] — drives `n` queries of any
//!   [`np_metric::NearestPeerAlgo`] over a scenario as a batch-parallel
//!   map-reduce (deterministic at any thread count) and aggregates the
//!   paper's metrics: P(correct closest peer), P(correct cluster), the
//!   hub latency of wrongly-found peers (Figure 9's second axis), and
//!   probe/hop costs, and folds per-run metrics into the
//!   median/min/max bands the paper's error bars use
//!   ([`runner::RunBandMetrics`]),
//! * [`hybrid`] — the paper's closing recommendation: use a §5 hint
//!   registry (UCL/prefix) first and fall back to a latency-only
//!   algorithm when the registry has no close candidate (wired to the
//!   registries in `np-remedies` through the [`hybrid::HintSource`]
//!   trait, so `np-core` stays dependency-light),
//! * [`churn`] — event-clocked dynamic worlds: seeded
//!   [`churn::ChurnSchedule`]s of join/leave/drift events, the
//!   [`churn::DynamicAlgo`] per-epoch advancement contract (rebuild by
//!   default, incremental repair where an algorithm offers it), probe
//!   fault injection, and [`churn::run_dynamic`] — the dynamic
//!   twin of the static runner with the same bit-identical-at-any-
//!   thread-count determinism contract,
//! * [`experiment`] — the declarative layer over all of the above: an
//!   [`experiment::ExperimentSpec`] (cells × algorithms × seeds ×
//!   backend; [`experiment::SeedPlan`] derives every run's seed) runs
//!   through the object-safe
//!   [`experiment::AlgoFactory`] registry and the generic
//!   [`experiment::Experiment`] pipeline into typed
//!   [`experiment::ExperimentReport`]s with pluggable sinks — every
//!   figure in `np-bench` is such a spec.
//!
//! Downstream users normally `use nearest_peer::prelude::*` (the facade
//! crate re-exports everything here).

pub mod churn;
pub mod experiment;
pub mod hybrid;
pub mod runner;
pub mod scenario;

pub use churn::{
    run_dynamic, ChurnConfig, ChurnSchedule, ChurnStats, DynamicAlgo, EpochMembership,
    RebuildEachEpoch, RepairCost,
};
pub use experiment::{
    AlgoFactory, AlgoRegistry, AlgoSpec, Backend, CellSpec, Experiment, ExperimentReport,
    ExperimentSpec, SeedPlan,
};
pub use runner::{
    draw_target_schedule, reduce_records, run_one_query, run_queries, AnsweredQuery, PaperMetrics,
    QueryRecord, RunBandMetrics,
};
pub use scenario::ClusterScenario;
