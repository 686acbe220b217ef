//! The generic spec → report pipeline.
//!
//! [`Experiment`] executes an [`ExperimentSpec`] against an
//! [`AlgoRegistry`]: cells run in spec order (progress is printed per
//! cell), each cell's seeds fan out over the worker pool, and every
//! (cell, seed) pair builds its scenario, instantiates its algorithms
//! through the registry and drives the batch query runner. A seed's
//! scenario lives only while that seed runs, so a run holds one cell's
//! seeds at a time; rows over the same scenario (e.g. the hybrid
//! coverage sweep — one world, six registry configurations) share its
//! expensive artifacts through the per-(cell, seed) [`BuildCache`].
//!
//! # Determinism
//!
//! Same spec + same registry + same seeds ⇒ bit-identical
//! [`ExperimentReport`] metrics at any thread count. The pipeline adds
//! no randomness of its own: every seed is taken from the spec
//! ([`crate::experiment::SeedPlan`]), factories derive theirs from the
//! context seed, and all reductions run in spec/seed order
//! (`tests/parallel_determinism.rs` covers the pipeline end to end).

use crate::churn::{run_dynamic, ChurnConfig, ChurnStats};
use crate::experiment::registry::{AlgoContext, AlgoFactory, AlgoRegistry, BuildCache};
use crate::experiment::report::{AlgoReport, CellReport, ExperimentReport, ReportBody};
use crate::experiment::spec::{Backend, CellSpec, ExperimentSpec, StudyCtx, Workload};
use crate::runner::{run_queries, PaperMetrics, RunBandMetrics};
use crate::scenario::ClusterScenario;
use np_metric::{
    HierarchicalWorld, LatencyMatrix, NearestCache, NearestPeerAlgo, PeerId, WorldStore,
};
use np_topology::ClusterWorld;
use np_util::parallel::par_map;
use std::time::{Duration, Instant};

/// A built scenario on either backend, dispatching the generic runner
/// statically per variant.
// One handle per built scenario, held while its seed runs and never
// stored in bulk, so the variants' size gap costs nothing a `Box` would
// save.
#[allow(clippy::large_enum_variant)]
pub enum ScenarioHandle {
    Dense(ClusterScenario<LatencyMatrix>),
    Hierarchical(ClusterScenario<HierarchicalWorld>),
}

/// Default block-cache budget for hierarchical cells that don't pin one.
pub const DEFAULT_BLOCK_CACHE_MB: usize = 256;

/// Resolve a cell's hierarchical knobs to concrete values:
/// `(super_shards, cache_budget_bytes)`. Unpinned super-shard counts
/// default to one group while the shard count is small (≤128 — the flat
/// summary is still cheap there, and one group is the exact
/// configuration, bit-identical to dense on cluster worlds) and ~√S
/// beyond, which keeps the two-level summary at `O(S^1.5)` entries.
/// Pure in the cell, so the same spec always resolves identically.
pub fn hierarchical_knobs(cell: &CellSpec) -> (usize, usize) {
    let s = cell.world.clusters.max(1);
    let groups = cell
        .super_shards
        .unwrap_or(if s <= 128 { 1 } else { (s as f64).sqrt().round() as usize })
        .clamp(1, s);
    // A budget past the address space saturates to "never evict".
    let budget = cell.block_cache_mb.unwrap_or(DEFAULT_BLOCK_CACHE_MB).saturating_mul(1 << 20);
    (groups, budget)
}

impl ScenarioHandle {
    /// Build a cell's scenario on `backend` with `threads` workers: both
    /// backends synthesise the hub matrix on them, and the dense one
    /// also fills its matrix on them. The hierarchical store
    /// materialises blocks lazily.
    pub fn build(cell: &CellSpec, backend: Backend, seed: u64, threads: usize) -> ScenarioHandle {
        match backend {
            Backend::Dense => ScenarioHandle::Dense(ClusterScenario::build(
                cell.world.clone(),
                cell.n_targets,
                seed,
                threads,
            )),
            Backend::Hierarchical => {
                let (groups, budget) = hierarchical_knobs(cell);
                ScenarioHandle::Hierarchical(ClusterScenario::build_hierarchical(
                    cell.world.clone(),
                    cell.n_targets,
                    seed,
                    groups,
                    budget,
                    threads,
                ))
            }
        }
    }

    /// The latency backend as a trait object (what factories consume).
    pub fn store(&self) -> &dyn WorldStore {
        match self {
            ScenarioHandle::Dense(s) => &s.matrix,
            ScenarioHandle::Hierarchical(s) => &s.matrix,
        }
    }

    /// The generated topology.
    pub fn world(&self) -> &ClusterWorld {
        match self {
            ScenarioHandle::Dense(s) => &s.world,
            ScenarioHandle::Hierarchical(s) => &s.world,
        }
    }

    /// The overlay membership.
    pub fn overlay(&self) -> &[PeerId] {
        match self {
            ScenarioHandle::Dense(s) => &s.overlay,
            ScenarioHandle::Hierarchical(s) => &s.overlay,
        }
    }

    /// The target pool queries are drawn from (reused across queries,
    /// as in the paper).
    pub fn targets(&self) -> &[PeerId] {
        match self {
            ScenarioHandle::Dense(s) => &s.targets,
            ScenarioHandle::Hierarchical(s) => &s.targets,
        }
    }

    /// Ground-truth nearest-member cache for all targets (computed in
    /// parallel on first use, then shared — the serving pipeline grades
    /// answers against the same cache the batch runner uses).
    pub fn nearest_cache(&self, threads: usize) -> &NearestCache {
        match self {
            ScenarioHandle::Dense(s) => s.nearest_cache(threads),
            ScenarioHandle::Hierarchical(s) => s.nearest_cache(threads),
        }
    }

    /// Approximate heap bytes of the latency store.
    pub fn store_bytes(&self) -> usize {
        self.store().approx_bytes()
    }

    /// Drive a query batch through the backend-generic runner.
    pub fn run_queries(
        &self,
        algo: &dyn NearestPeerAlgo,
        n_queries: usize,
        seed: u64,
        threads: usize,
    ) -> PaperMetrics {
        match self {
            ScenarioHandle::Dense(s) => run_queries(algo, s, n_queries, seed, threads),
            ScenarioHandle::Hierarchical(s) => run_queries(algo, s, n_queries, seed, threads),
        }
    }

    /// Drive one algorithm's dynamic run through the backend-generic
    /// churn runner, which scripts the schedule and owns the per-epoch
    /// caches.
    pub fn run_dynamic(
        &self,
        factory: &dyn AlgoFactory,
        ctx: &AlgoContext<'_>,
        cfg: &ChurnConfig,
        n_queries: usize,
        seed: u64,
        threads: usize,
    ) -> (PaperMetrics, ChurnStats) {
        match self {
            ScenarioHandle::Dense(s) => run_dynamic(factory, ctx, s, cfg, n_queries, seed, threads),
            ScenarioHandle::Hierarchical(s) => {
                run_dynamic(factory, ctx, s, cfg, n_queries, seed, threads)
            }
        }
    }
}

/// Extract the human message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one (cell, seed) pair contributes before aggregation: the
/// scenario's shape and the rows, not the scenario itself, which drops
/// when its seed finishes.
struct SeedRun {
    peers: usize,
    clusters: usize,
    store_bytes: usize,
    build_wall: Duration,
    /// `(metrics, batch wall, churn accounting)` per algorithm, in spec
    /// order; the stats are `Some` iff the cell ran under churn.
    per_algo: Vec<(PaperMetrics, Duration, Option<ChurnStats>)>,
}

/// A spec bound to a registry, ready to run.
pub struct Experiment<'r> {
    spec: ExperimentSpec,
    registry: &'r AlgoRegistry,
}

impl<'r> Experiment<'r> {
    pub fn new(spec: ExperimentSpec, registry: &'r AlgoRegistry) -> Experiment<'r> {
        Experiment { spec, registry }
    }

    /// The spec under execution.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Run on `threads` workers. Metrics are bit-identical at any value
    /// (see module docs); only wall-clock changes.
    pub fn run(&self, threads: usize) -> ExperimentReport {
        let start = Instant::now(); // np-lint: allow(D2) — wall-clock telemetry only; never feeds PaperMetrics
        let body = match &self.spec.workload {
            Workload::QueryMatrix(cells) => {
                let reports = cells
                    .iter()
                    .map(|cell| {
                        // A cell whose run panics (a factory abort, a
                        // degenerate build) becomes a marked failure in
                        // the report instead of killing the remaining
                        // cells.
                        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            self.run_cell(cell, threads)
                        }))
                        .unwrap_or_else(|payload| {
                            let msg = panic_message(payload.as_ref());
                            eprintln!("cell {} FAILED: {msg}", cell.label);
                            CellReport::failed(cell.label.clone(), msg)
                        });
                        // Per-cell progress for long sweeps; single-cell
                        // specs (and microbench loops) stay quiet.
                        if cells.len() > 1 {
                            eprintln!("{} done", cell.label);
                        }
                        report
                    })
                    .collect();
                ReportBody::Query(reports)
            }
            Workload::Study(stage) => {
                let ctx = StudyCtx {
                    seed: self.spec.base_seed,
                    quick: self.spec.quick,
                    threads,
                    backend: self.spec.backend,
                };
                ReportBody::Study(stage(&ctx))
            }
        };
        ExperimentReport {
            name: self.spec.name.clone(),
            backend: self.spec.backend,
            threads,
            runs_per_cell: self.spec.seeds.runs(),
            body,
            wall: start.elapsed(),
        }
    }

    /// One cell: fan seeds over workers, then reduce in seed order.
    fn run_cell(&self, cell: &CellSpec, threads: usize) -> CellReport {
        // Resolve factories up front so a bad name fails before any
        // world is built.
        let factories: Vec<_> = cell
            .algos
            .iter()
            .map(|a| self.registry.expect(&a.name))
            .collect();
        let seeds = self.spec.seeds.seeds(cell.base_seed);
        let backend = self.spec.backend;
        // One worker per seed; the inner world builds and query batches
        // also receive `threads` (the engine tolerates the
        // oversubscription, determinism is unaffected).
        let runs: Vec<SeedRun> = par_map(threads.min(seeds.len()), &seeds, |_, &seed| {
            let t = Instant::now(); // np-lint: allow(D2) — build wall-clock telemetry only; never feeds PaperMetrics
            let scenario = ScenarioHandle::build(cell, backend, seed, threads);
            let build_wall = t.elapsed();
            let shared = BuildCache::new();
            let ctx = AlgoContext {
                store: scenario.store(),
                world: scenario.world(),
                overlay: scenario.overlay(),
                seed,
                threads,
                shared: &shared,
            };
            let per_algo = cell
                .algos
                .iter()
                .zip(&factories)
                .map(|(spec, factory)| {
                    let n_queries = spec.queries.unwrap_or(cell.queries);
                    match &cell.churn {
                        None => {
                            let algo = factory.build(&ctx);
                            let t = Instant::now(); // np-lint: allow(D2) — per-algo wall-clock telemetry only; never feeds PaperMetrics
                            let metrics =
                                scenario.run_queries(algo.as_ref(), n_queries, seed, threads);
                            (metrics, t.elapsed(), None)
                        }
                        Some(churn) => {
                            let t = Instant::now(); // np-lint: allow(D2) — per-algo wall-clock telemetry only; never feeds PaperMetrics
                            let (metrics, stats) = scenario
                                .run_dynamic(*factory, &ctx, churn, n_queries, seed, threads);
                            (metrics, t.elapsed(), Some(stats))
                        }
                    }
                })
                .collect();
            SeedRun {
                peers: scenario.world().len(),
                clusters: scenario.world().spec().clusters,
                store_bytes: scenario.store_bytes(),
                build_wall,
                per_algo,
            }
        });
        // Reduce in spec × seed order.
        let rows = cell
            .algos
            .iter()
            .enumerate()
            .map(|(ai, spec)| {
                let per_run: Vec<PaperMetrics> =
                    runs.iter().map(|r| r.per_algo[ai].0).collect();
                let wall = runs.iter().map(|r| r.per_algo[ai].1).sum();
                let total_probes = per_run
                    .iter()
                    .map(|m| (m.mean_probes * m.queries as f64).round() as u64)
                    .sum();
                // Churn accounting sums over the seed plan (in seed
                // order; ChurnStats addition is commutative anyway).
                let churn = runs.iter().fold(None::<ChurnStats>, |acc, r| {
                    r.per_algo[ai].2.map(|s| {
                        let mut total = acc.unwrap_or_default();
                        total += s;
                        total
                    })
                });
                AlgoReport {
                    algo: spec.name.clone(),
                    label: spec.display().to_string(),
                    queries: spec.queries.unwrap_or(cell.queries),
                    bands: RunBandMetrics::of(&per_run),
                    runs: per_run,
                    wall,
                    total_probes,
                    churn,
                }
            })
            .collect();
        let first = runs.first().expect("seed plan is non-empty");
        CellReport {
            label: cell.label.clone(),
            peers: first.peers,
            clusters: first.clusters,
            store_bytes: first.store_bytes,
            build_wall: runs.iter().map(|r| r.build_wall).sum(),
            rows,
            error: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::registry::{AlgoFactory, BruteForceFactory, RandomChoiceFactory};
    use crate::experiment::spec::{AlgoSpec, SeedPlan};
    use np_metric::nearest::RandomChoice;
    use np_topology::ClusterWorldSpec;
    use np_util::Micros;

    fn small_world() -> ClusterWorldSpec {
        ClusterWorldSpec {
            clusters: 4,
            en_per_cluster: 8,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 5,
        }
    }

    fn registry() -> AlgoRegistry {
        let mut reg = AlgoRegistry::new();
        reg.register(Box::new(BruteForceFactory));
        reg.register(Box::new(RandomChoiceFactory));
        reg
    }

    fn spec(seeds: SeedPlan, backend: Backend) -> ExperimentSpec {
        ExperimentSpec::query(
            "test",
            "test spec",
            "n/a",
            backend,
            seeds,
            vec![CellSpec {
                label: "cell".into(),
                world: small_world(),
                n_targets: 8,
                base_seed: 11,
                queries: 60,
                quick_queries: None,
                in_quick: true,
                churn: None,
                super_shards: None,
                block_cache_mb: None,
                algos: vec![
                    AlgoSpec::new("brute-force").with_queries(20),
                    AlgoSpec::new("random"),
                ],
            }],
        )
    }

    #[test]
    fn pipeline_reproduces_the_historical_sweep() {
        // The pipeline's Sweep(3) cell must equal a hand-rolled loop
        // over the same seeds, scenarios and algorithm.
        let reg = registry();
        let report = Experiment::new(spec(SeedPlan::THREE_RUNS, Backend::Dense), &reg)
            .run(2);
        let row = &report.query_cells().expect("query spec")[0].rows[1]; // "random"
        let runs: Vec<PaperMetrics> = SeedPlan::THREE_RUNS
            .seeds(11)
            .into_iter()
            .map(|seed| {
                let s = ClusterScenario::build(small_world(), 8, seed, 1);
                let algo = RandomChoice::new(&s.matrix, s.overlay.clone());
                run_queries(&algo, &s, 60, seed, 2)
            })
            .collect();
        assert_eq!(row.runs, runs);
        let expect = RunBandMetrics::of(&runs);
        assert_eq!(row.bands.p_correct_closest, expect.p_correct_closest);
        assert_eq!(row.bands.mean_probes, expect.mean_probes);
    }

    #[test]
    fn pipeline_is_thread_count_invariant() {
        let reg = registry();
        let base = Experiment::new(spec(SeedPlan::THREE_RUNS, Backend::Dense), &reg)
            .run(1);
        for threads in [2, 4, 8] {
            let other = Experiment::new(spec(SeedPlan::THREE_RUNS, Backend::Dense), &reg)
                .run(threads);
            for (a, b) in base.query_cells().expect("query spec").iter().zip(other.query_cells().expect("query spec")) {
                for (ra, rb) in a.rows.iter().zip(&b.rows) {
                    assert_eq!(ra.runs, rb.runs, "divergence at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn hierarchical_backend_agrees_and_resolves_knobs() {
        // At 4 clusters the auto heuristic picks one super-shard, which
        // is the exact configuration — metrics must be bit-identical to
        // the dense backend's through the whole pipeline.
        let reg = registry();
        let dense =
            Experiment::new(spec(SeedPlan::Single, Backend::Dense), &reg).run(2);
        let hier =
            Experiment::new(spec(SeedPlan::Single, Backend::Hierarchical), &reg).run(2);
        for (a, b) in dense
            .query_cells()
            .expect("query spec")
            .iter()
            .zip(hier.query_cells().expect("query spec"))
        {
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.runs, rb.runs);
            }
        }
        assert!(hier.query_cells().expect("query spec")[0].store_bytes > 0);
        // Knob resolution: auto G, default budget; pins honoured and
        // clamped.
        let cells = match &spec(SeedPlan::Single, Backend::Hierarchical).workload {
            Workload::QueryMatrix(cells) => cells.clone(),
            _ => unreachable!(),
        };
        let auto = &cells[0];
        assert_eq!(hierarchical_knobs(auto), (1, DEFAULT_BLOCK_CACHE_MB << 20));
        let pinned = auto.clone().with_super_shards(64).with_block_cache_mb(8);
        assert_eq!(hierarchical_knobs(&pinned), (4, 8 << 20), "clamped to 4 shards");
        // A budget whose byte count overflows `usize` saturates.
        let huge = auto.clone().with_block_cache_mb(1 << 44);
        assert_eq!(hierarchical_knobs(&huge), (1, usize::MAX));
        // A big shard count goes ~√S.
        let mut wide = auto.clone();
        wide.world.clusters = 400;
        assert_eq!(hierarchical_knobs(&wide).0, 20);
    }

    #[test]
    fn per_algo_query_override_and_probe_accounting() {
        let reg = registry();
        let report =
            Experiment::new(spec(SeedPlan::Single, Backend::Dense), &reg).run(2);
        let cell = &report.query_cells().expect("query spec")[0];
        let bf = &cell.rows[0];
        let rnd = &cell.rows[1];
        assert_eq!(bf.queries, 20);
        assert_eq!(rnd.queries, 60);
        assert_eq!(bf.single().queries, 20);
        // Brute force probes every member on every query (targets are
        // held out of the overlay, so none is skipped).
        let members = cell.peers - 8; // overlay = world minus targets
        assert_eq!(bf.total_probes, 20 * members as u64);
        assert_eq!(rnd.total_probes, 60);
        assert_eq!(report.total_probes(), bf.total_probes + rnd.total_probes);
        assert_eq!(report.runs_per_cell, 1);
    }

    #[test]
    fn scenario_cache_shares_identical_cells() {
        // Two cells over the same (world, seed) each build their own
        // scenario, and their rows must agree bit for bit.
        let reg = registry();
        let mut s = spec(SeedPlan::Single, Backend::Dense);
        if let Workload::QueryMatrix(cells) = &mut s.workload {
            let mut second = cells[0].clone();
            second.label = "cell-again".into();
            cells.push(second);
        }
        let report = Experiment::new(s, &reg).run(2);
        let cells = report.query_cells().expect("query spec");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].rows.len(), 2);
        for (ra, rb) in cells[0].rows.iter().zip(&cells[1].rows) {
            assert_eq!(ra.runs, rb.runs);
        }
    }

    #[test]
    fn panicking_factory_marks_its_cell_and_spares_the_rest() {
        // One cell's factory aborts; the other cells must still run and
        // the report must carry a marked failure, not lose everything.
        struct Exploding;
        impl AlgoFactory for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
                // Poison the shared build cache on the way out, the way
                // a real factory panic inside get_or_build would.
                ctx.shared.get_or_build::<u32>("boom", || panic!("factory exploded"))
                    .as_ref();
                unreachable!()
            }
        }
        let mut reg = registry();
        reg.register(Box::new(Exploding));
        let mut s = spec(SeedPlan::Single, Backend::Dense);
        if let Workload::QueryMatrix(cells) = &mut s.workload {
            let mut bad = cells[0].clone();
            bad.label = "bad-cell".into();
            bad.algos = vec![AlgoSpec::new("exploding")];
            cells.insert(0, bad);
        }
        let report = Experiment::new(s, &reg).run(2);
        let cells = report.query_cells().expect("query spec");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label, "bad-cell");
        assert!(cells[0].rows.is_empty());
        let err = cells[0].error.as_deref().expect("failure is marked");
        assert!(err.contains("factory exploded"), "{err}");
        // The healthy cell ran to completion after the failed one.
        assert!(cells[1].error.is_none());
        assert_eq!(cells[1].rows.len(), 2);
        assert_eq!(cells[1].rows[0].single().p_correct_closest, 1.0);

        // The same failure on a multi-seed sweep, where the panic
        // unwinds out of a par_map *worker thread*: the original
        // message must survive the join (par_map re-raises the worker
        // payload instead of replacing it).
        let mut s = spec(SeedPlan::THREE_RUNS, Backend::Dense);
        if let Workload::QueryMatrix(cells) = &mut s.workload {
            cells[0].algos = vec![AlgoSpec::new("exploding")];
        }
        let report = Experiment::new(s, &reg).run(2);
        let cells = report.query_cells().expect("query spec");
        let err = cells[0].error.as_deref().expect("failure is marked");
        assert!(
            err.contains("factory exploded"),
            "threaded sweep lost the panic message: {err}"
        );
    }

    #[test]
    fn single_threaded_runs_also_isolate_cell_panics() {
        // Cell isolation is not a by-product of the thread pool: the
        // catch_unwind sits in the per-cell loop, so a worker count of
        // one still converts a panicking cell into a marked failure and
        // runs the remaining cells. (Pinned here because the isolation
        // was once believed to hold only on multi-threaded runs.)
        struct Exploding;
        impl AlgoFactory for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn build<'a>(&self, _ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
                panic!("factory exploded single-threaded")
            }
        }
        let mut reg = registry();
        reg.register(Box::new(Exploding));
        let mut s = spec(SeedPlan::Single, Backend::Dense);
        if let Workload::QueryMatrix(cells) = &mut s.workload {
            let mut bad = cells[0].clone();
            bad.label = "bad-cell".into();
            bad.algos = vec![AlgoSpec::new("exploding")];
            cells.insert(0, bad);
        }
        let report = Experiment::new(s, &reg).run(1);
        let cells = report.query_cells().expect("query spec");
        assert_eq!(cells.len(), 2);
        let err = cells[0].error.as_deref().expect("failure is marked");
        assert!(err.contains("factory exploded single-threaded"), "{err}");
        assert!(cells[1].error.is_none());
        assert_eq!(cells[1].rows.len(), 2);
    }

    #[test]
    fn churn_cells_route_through_the_dynamic_runner() {
        use crate::churn::ChurnConfig;
        let reg = registry();
        let mut s = spec(SeedPlan::THREE_RUNS, Backend::Dense);
        if let Workload::QueryMatrix(cells) = &mut s.workload {
            cells[0].churn = Some(ChurnConfig {
                events_per_min: 20.0,
                duration_s: 60.0,
                drift_max_us: 1_000,
                offline_frac: 0.1,
                loss: 0.0,
                retries: 1,
            });
        }
        let report = Experiment::new(s, &reg).run(2);
        let cell = &report.query_cells().expect("query spec")[0];
        for row in &cell.rows {
            let stats = row.churn.expect("dynamic rows carry churn stats");
            assert_eq!(stats.epochs, stats.events + 3, "three seeds, one initial epoch each");
            assert!(stats.repair.full_rebuilds >= 3, "every run rebuilds at epoch 0");
        }
        // Lossless brute force over the true live set stays perfect
        // even as members come and go.
        assert_eq!(cell.rows[0].bands.p_correct_closest.min, 1.0);
        // Static cells carry no churn accounting.
        let static_report =
            Experiment::new(spec(SeedPlan::Single, Backend::Dense), &reg).run(2);
        assert!(static_report.query_cells().expect("query spec")[0]
            .rows
            .iter()
            .all(|r| r.churn.is_none()));
    }

    #[test]
    fn study_workload_runs_through_the_pipeline() {
        let reg = AlgoRegistry::new();
        let spec = ExperimentSpec::study(
            "study-test",
            "study",
            "n/a",
            Backend::Dense,
            77,
            true,
            |ctx: &StudyCtx| {
                assert_eq!(ctx.seed, 77);
                assert!(ctx.quick);
                crate::experiment::StudyOutput {
                    text: format!("threads={}", ctx.threads),
                    tables: Vec::new(),
                }
            },
        );
        let report = Experiment::new(spec, &reg).run(3);
        assert_eq!(report.study_output().expect("study spec").text, "threads=3");
        assert_eq!(report.total_probes(), 0);
    }
}
