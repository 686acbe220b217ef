//! The parallel engine's determinism contract, end-to-end:
//! same seed ⇒ **bit-identical** results at any thread count.
//!
//! Exact float equality is deliberate everywhere in this file. The
//! engine promises more than statistical equivalence: the target
//! schedule is pre-drawn from the master RNG, every query owns an
//! index-derived RNG stream, and reduction runs in query order — so a
//! 1-thread and an 8-thread run must agree to the last bit, and any
//! regression (a reduction reordered, a seed derived from thread
//! identity) shows up as a hard failure here.

use nearest_peer::prelude::*;
use np_core::experiment::BruteForceFactory;
use np_core::run_queries;
use np_meridian::MeridianFactory;
use np_metric::nearest::BruteForce;
use np_metric::{HierarchicalWorld, NearestCache};
use np_topology::HubMatrix;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Small enough for CI, big enough that an 8-thread run actually
/// splits the work (96 peers in 4 clusters).
fn world_spec() -> ClusterWorldSpec {
    ClusterWorldSpec {
        clusters: 4,
        en_per_cluster: 12,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: 6,
    }
}

fn scenario(seed: u64) -> ClusterScenario {
    ClusterScenario::build(world_spec(), 16, seed, 1)
}

/// Algorithm 1 (Meridian): the paper's main subject, exercising hops,
/// probes, and the full metric set through the β-routing query path.
#[test]
fn meridian_metrics_identical_at_any_thread_count() {
    let s = scenario(101);
    let overlay = Overlay::build(
        &s.matrix,
        s.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        101,
        1,
    );
    let serial = run_queries(&overlay, &s, 200, 7, 1);
    assert_eq!(serial.queries, 200);
    for threads in THREAD_COUNTS {
        let par = run_queries(&overlay, &s, 200, 7, threads);
        // PaperMetrics derives PartialEq over raw f64 fields — this is
        // exact equality of every metric, not a tolerance check.
        assert_eq!(serial, par, "meridian diverged at {threads} threads");
    }
}

/// Algorithm 2 (brute force): deterministic probing of every member,
/// heavy per-query work through the atomic ProbeCounter.
#[test]
fn brute_force_metrics_identical_at_any_thread_count() {
    let s = scenario(202);
    let algo = BruteForce::new(&s.matrix, s.overlay.clone());
    let serial = run_queries(&algo, &s, 120, 11, 1);
    assert_eq!(serial.p_correct_closest, 1.0, "brute force is exact");
    for threads in THREAD_COUNTS {
        let par = run_queries(&algo, &s, 120, 11, threads);
        assert_eq!(serial, par, "brute force diverged at {threads} threads");
    }
}

/// One three-run sweep of `algo` over the 96-peer world (16 targets,
/// 60 queries per run) through the pipeline: the per-run metrics its
/// median/min/max bands are taken from.
fn three_run_sweep(
    backend: Backend,
    algo: &str,
    base_seed: u64,
    tune: impl FnOnce(CellSpec) -> CellSpec,
    threads: usize,
) -> Vec<PaperMetrics> {
    let mut registry = AlgoRegistry::new();
    registry.register(Box::new(MeridianFactory::omniscient()));
    registry.register(Box::new(BruteForceFactory));
    let cell = CellSpec {
        world: world_spec(),
        n_targets: 16,
        ..CellSpec::paper("sweep", 1, 0.2, base_seed, 60, vec![AlgoSpec::new(algo)])
    };
    let spec = ExperimentSpec::query(
        "sweep",
        "three-run sweep bands",
        "n/a",
        backend,
        SeedPlan::THREE_RUNS,
        vec![tune(cell)],
    );
    let report = Experiment::new(spec, &registry).run(threads);
    let cell = &report.query_cells().expect("query spec")[0];
    assert!(cell.error.is_none(), "{:?}", cell.error);
    let runs = cell.rows[0].runs.clone();
    assert_eq!(runs.len(), 3);
    runs
}

/// The multi-seed sweep bands must also be thread-count invariant
/// (outer per-seed parallelism composed with inner query parallelism).
#[test]
fn sweep_bands_identical_at_any_thread_count() {
    let run_with = |threads| three_run_sweep(Backend::Dense, "meridian", 33, |c| c, threads);
    let serial = run_with(1);
    for threads in [2, 4] {
        assert_eq!(
            serial,
            run_with(threads),
            "meridian sweep diverged at {threads} threads"
        );
    }
}

/// Matrix construction: the parallel row-blocked build must reproduce
/// the serial build bit-for-bit over a real generated world.
#[test]
fn world_matrix_identical_at_any_thread_count() {
    let world = ClusterWorld::generate(
        ClusterWorldSpec {
            clusters: 3,
            en_per_cluster: 10,
            peers_per_en: 2,
            delta: 0.3,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 5,
        },
        77,
        1,
    );
    let serial = world.to_matrix(1);
    serial.validate().expect("serial matrix valid");
    for threads in THREAD_COUNTS {
        let par = world.to_matrix(threads);
        par.validate().expect("parallel matrix valid");
        assert_eq!(par.len(), serial.len());
        for a in serial.peers() {
            for b in serial.peers() {
                assert_eq!(
                    serial.rtt(a, b),
                    par.rtt(a, b),
                    "rtt({a}, {b}) diverged at {threads} threads"
                );
            }
        }
    }
}

/// The serial hub generator, shared with np-topology's unit tests.
mod hub_reference {
    use np_topology::geo;
    use np_util::rng::rng_for;
    use np_util::Micros;

    include!("../crates/topology/src/hub_reference.rs");
}

/// Hub synthesis: every worker count must reproduce the serial
/// generator bit for bit. At 2,500 hubs (the `scale_hier` world)
/// several workers split the rows; below 2^16 pairs the fill stays on
/// the calling thread.
#[test]
fn hub_matrix_identical_at_any_thread_count() {
    for n in [2, 3, 17, 250, 2_500] {
        let reference = hub_reference::serial_hub_matrix(n, 65.0, 29);
        for threads in [1, 2, 4, 8] {
            let m = HubMatrix::synthetic(n, 65.0, 29, threads);
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        m.rtt(a, b).as_us(),
                        reference[a * n + b],
                        "{n} hubs: rtt({a}, {b}) diverged at {threads} workers"
                    );
                }
            }
        }
    }
}

/// The hierarchical scenario's twin of [`scenario`]: the same 96-peer
/// world (4 shards, 16 targets) behind the compressed backend, with
/// `super_shards` groups and a block cache of `cache_budget_bytes`.
fn hierarchical_scenario(
    seed: u64,
    super_shards: usize,
    cache_budget_bytes: usize,
) -> np_core::ClusterScenario<HierarchicalWorld> {
    np_core::ClusterScenario::build_hierarchical(
        world_spec(),
        16,
        seed,
        super_shards,
        cache_budget_bytes,
        1,
    )
}

/// Query batches over a hierarchical scenario under a deliberately
/// starved block cache: the metric set must be bit-identical at any
/// thread count AND at any cache temperature — a cold run that
/// materialises (and evicts) every block on demand, a warm re-run over
/// the same store, and fresh cold stores at 2/4/8 threads all agree to
/// the last bit. Eviction and re-materialisation are timing, never
/// results.
#[test]
fn hierarchical_batch_metrics_identical_at_any_thread_count() {
    let starved = hierarchical_scenario(404, 2, 1);
    let algo = BruteForce::new(&starved.matrix, starved.overlay.clone());
    let cold = run_queries(&algo, &starved, 120, 13, 1);
    assert_eq!(cold.p_correct_closest, 1.0, "brute force is exact");
    assert!(
        starved.matrix.cache_stats().evictions > 0,
        "a 1-byte budget must actually evict blocks"
    );
    // Warm re-run over the very same (now partially resident) store.
    let warm = run_queries(&algo, &starved, 120, 13, 1);
    assert_eq!(cold, warm, "cache temperature leaked into the metrics");
    for threads in THREAD_COUNTS {
        // Warm store, N threads.
        let par = run_queries(&algo, &starved, 120, 13, threads);
        assert_eq!(cold, par, "hierarchical batch diverged at {threads} threads");
        // Fresh store (cold cache), N threads.
        let fresh = hierarchical_scenario(404, 2, 1);
        let fresh_algo = BruteForce::new(&fresh.matrix, fresh.overlay.clone());
        let fresh_par = run_queries(&fresh_algo, &fresh, 120, 13, threads);
        assert_eq!(
            cold, fresh_par,
            "cold-cache hierarchical batch diverged at {threads} threads"
        );
    }
}

/// Multi-seed sweep bands over hierarchical scenarios (outer per-seed
/// parallelism composed with inner query parallelism and lazy block
/// materialisation under a zero-byte block cache).
#[test]
fn hierarchical_sweep_bands_identical_at_any_thread_count() {
    let run_with = |threads| {
        three_run_sweep(
            Backend::Hierarchical,
            "brute-force",
            55,
            |c| c.with_super_shards(2).with_block_cache_mb(0),
            threads,
        )
    };
    let serial = run_with(1);
    assert!(
        serial.iter().all(|m| m.p_correct_closest == 1.0),
        "brute force is exact"
    );
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            run_with(threads),
            "hierarchical sweep diverged at {threads} threads"
        );
    }
}

/// At one super-shard the hierarchical store is exact on cluster
/// worlds, so both backends must see the very same experiment: same
/// seed ⇒ same split, same ground truth, same metrics. With more
/// super-shards the split and targets still agree (they are drawn
/// before any backend exists).
#[test]
fn hierarchical_scenario_metrics_match_dense_scenario() {
    let dense = scenario(505);
    let hier = hierarchical_scenario(505, 1, usize::MAX);
    assert_eq!(dense.overlay, hier.overlay);
    assert_eq!(dense.targets, hier.targets);
    let da = BruteForce::new(&dense.matrix, dense.overlay.clone());
    let ha = BruteForce::new(&hier.matrix, hier.overlay.clone());
    for threads in [1, 4] {
        assert_eq!(
            run_queries(&da, &dense, 100, 17, threads),
            run_queries(&ha, &hier, 100, 17, threads),
            "backends diverged at {threads} threads"
        );
    }
    let grouped = hierarchical_scenario(505, 3, 1 << 12);
    assert_eq!(dense.overlay, grouped.overlay);
    assert_eq!(dense.targets, grouped.targets);
}

/// The ground-truth cache must agree with direct scans regardless of
/// how many workers precomputed it.
#[test]
fn nearest_cache_identical_at_any_thread_count() {
    let s = scenario(303);
    let serial = NearestCache::build(&s.matrix, &s.overlay, &s.targets, 1);
    for threads in THREAD_COUNTS {
        let par = NearestCache::build(&s.matrix, &s.overlay, &s.targets, threads);
        for &t in &s.targets {
            assert_eq!(par.nearest(t), serial.nearest(t));
            assert_eq!(par.nearest(t), Some(s.true_nearest(t)));
        }
    }
}

/// Satellite of the Experiment-API PR: the parallel omniscient ring
/// fill. Per-node offer order comes from `item_seed(seed, "MFIL",
/// index)`, so the rings a 1-thread build produces must be
/// bit-identical to an 8-thread build's — member for member, ring for
/// ring, rtt for rtt.
#[test]
fn omniscient_ring_fill_identical_at_any_thread_count() {
    let s = scenario(707);
    let serial = Overlay::build(
        &s.matrix,
        s.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        707,
        1,
    );
    for threads in THREAD_COUNTS {
        let par = Overlay::build(
            &s.matrix,
            s.overlay.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            707,
            threads,
        );
        assert_eq!(
            serial.total_ring_entries(),
            par.total_ring_entries(),
            "ring totals diverged at {threads} threads"
        );
        for &p in serial.members() {
            let a: Vec<(np_metric::PeerId, Micros)> = serial
                .rings_of(p)
                .primaries()
                .map(|m| (m.peer, m.rtt))
                .collect();
            let b: Vec<(np_metric::PeerId, Micros)> = par
                .rings_of(p)
                .primaries()
                .map(|m| (m.peer, m.rtt))
                .collect();
            assert_eq!(a, b, "rings of {p} diverged at {threads} threads");
        }
    }
}

/// The omniscient fill over a two-level hierarchical store (two
/// super-shards, a block cache small enough to evict mid-fill) reads
/// every RTT through `WorldStore::rtt` and draws per-node offer orders
/// from `item_seed(seed, "MFIL", index)`, so its rings must be
/// bit-identical at 1, 2, 4 and 8 threads.
#[test]
fn hierarchical_fill_identical_at_any_thread_count() {
    let s = hierarchical_scenario(808, 2, 1 << 12);
    assert_eq!(s.matrix.n_super_shards(), 2);
    let build = |threads| {
        Overlay::build(
            &s.matrix,
            s.overlay.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            808,
            threads,
        )
    };
    let rings_of = |o: &Overlay<'_, HierarchicalWorld>, p| -> Vec<(np_metric::PeerId, Micros)> {
        o.rings_of(p).primaries().map(|m| (m.peer, m.rtt)).collect()
    };
    let serial = build(1);
    for threads in THREAD_COUNTS {
        let par = build(threads);
        for &p in serial.members() {
            assert_eq!(
                rings_of(&serial, p),
                rings_of(&par, p),
                "hierarchical rings of {p} diverged at {threads} threads"
            );
        }
    }
    assert!(
        s.matrix.cache_stats().evictions > 0,
        "blocks must evict mid-fill"
    );
}

/// The declarative pipeline end to end: an `ExperimentSpec` with a
/// three-seed sweep over two algorithms produces bit-identical reports
/// at any thread count, on both backends.
#[test]
fn experiment_pipeline_identical_at_any_thread_count() {
    use np_core::experiment::{
        AlgoRegistry, AlgoSpec, Backend, BruteForceFactory, CellSpec, Experiment,
        ExperimentSpec, RandomChoiceFactory, SeedPlan,
    };
    let mut registry = AlgoRegistry::new();
    registry.register(Box::new(BruteForceFactory));
    registry.register(Box::new(RandomChoiceFactory));
    let spec = |backend| {
        ExperimentSpec::query(
            "determinism",
            "pipeline determinism",
            "n/a",
            backend,
            SeedPlan::THREE_RUNS,
            vec![CellSpec {
                label: "cell".into(),
                world: ClusterWorldSpec {
                    clusters: 4,
                    en_per_cluster: 12,
                    peers_per_en: 2,
                    delta: 0.2,
                    mean_hub_ms: (4.0, 6.0),
                    intra_en: Micros::from_us(100),
                    hub_pool: 6,
                },
                n_targets: 16,
                base_seed: 909,
                queries: 80,
                quick_queries: None,
                in_quick: true,
                churn: None,
                super_shards: None,
                block_cache_mb: None,
                algos: vec![
                    AlgoSpec::new("random"),
                    AlgoSpec::new("brute-force").with_queries(20),
                ],
            }],
        )
    };
    for backend in [Backend::Dense, Backend::Hierarchical] {
        let serial = Experiment::new(spec(backend), &registry).run(1);
        for threads in THREAD_COUNTS {
            let par = Experiment::new(spec(backend), &registry).run(threads);
            for (sc, pc) in serial
                .query_cells()
                .expect("query spec")
                .iter()
                .zip(par.query_cells().expect("query spec"))
            {
                for (sr, pr) in sc.rows.iter().zip(&pc.rows) {
                    assert_eq!(
                        sr.runs, pr.runs,
                        "{} diverged at {threads} threads ({})",
                        sr.label,
                        backend.name()
                    );
                }
            }
        }
    }
}

/// The churn-cell registry: brute force (exact truth maintenance
/// through the dynamic runner's incremental `NearestCache` updates)
/// plus Meridian (full rebuilds on joins, incremental ring repair on
/// leaves).
fn churn_registry() -> np_core::experiment::AlgoRegistry {
    use np_core::experiment::{AlgoRegistry, BruteForceFactory};
    let mut registry = AlgoRegistry::new();
    registry.register(Box::new(BruteForceFactory));
    registry.register(Box::new(
        nearest_peer::meridian::MeridianFactory::omniscient(),
    ));
    registry
}

/// One churn cell over the 96-peer determinism world at
/// `events_per_min` (60 simulated seconds, probe loss + retry on).
fn churn_spec(
    backend: np_core::experiment::Backend,
    events_per_min: f64,
) -> np_core::experiment::ExperimentSpec {
    use np_core::experiment::{AlgoSpec, CellSpec, ExperimentSpec, SeedPlan};
    use np_core::ChurnConfig;
    ExperimentSpec::query(
        "churn-determinism",
        "dynamic pipeline determinism",
        "n/a",
        backend,
        SeedPlan::THREE_RUNS,
        vec![CellSpec {
            label: "cell".into(),
            world: ClusterWorldSpec {
                clusters: 4,
                en_per_cluster: 12,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 6,
            },
            n_targets: 16,
            base_seed: 911,
            queries: 60,
            quick_queries: None,
            in_quick: true,
            churn: Some(ChurnConfig {
                events_per_min,
                duration_s: 60.0,
                drift_max_us: 1_500,
                offline_frac: 0.1,
                loss: 0.05,
                retries: 2,
            }),
            super_shards: None,
            block_cache_mb: None,
            algos: vec![AlgoSpec::new("brute-force"), AlgoSpec::new("meridian")],
        }],
    )
}

/// Tentpole of the churn PR: the event-clocked dynamic pipeline — join
/// and leave epochs, RTT drift, probe loss with seeded retry, and
/// Meridian's incremental ring repair — is bit-identical at 1, 2, 4
/// and 8 threads on both backends, metrics *and* repair accounting.
#[test]
fn churn_pipeline_identical_at_any_thread_count() {
    use np_core::experiment::Backend;
    let registry = churn_registry();
    for backend in [Backend::Dense, Backend::Hierarchical] {
        let serial =
            np_core::experiment::Experiment::new(churn_spec(backend, 30.0), &registry)
                .run(1);
        let serial_cell = &serial.query_cells().expect("query spec")[0];
        let stats = serial_cell.rows[1].churn.expect("churn cell carries stats");
        assert!(
            stats.leaves > 0 && stats.joins > 0,
            "30 events/min over 3 seeds must churn ({})",
            backend.name()
        );
        for threads in THREAD_COUNTS {
            let par = np_core::experiment::Experiment::new(churn_spec(backend, 30.0), &registry)
                .run(threads);
            let pc = &par.query_cells().expect("query spec")[0];
            for (sr, pr) in serial_cell.rows.iter().zip(&pc.rows) {
                assert_eq!(
                    sr.runs, pr.runs,
                    "churned {} diverged at {threads} threads ({})",
                    sr.label,
                    backend.name()
                );
                assert_eq!(
                    sr.churn, pr.churn,
                    "churn accounting for {} diverged at {threads} threads ({})",
                    sr.label,
                    backend.name()
                );
            }
        }
    }
}

/// A zero-event, zero-fault churn cell *is* the static pipeline: the
/// dynamic wrapper at rate 0 must reproduce the plain experiment's
/// metrics bit-for-bit (the dynamic-equals-static contract that makes
/// `ext_churn`'s rate sweep readable against the paper's figures).
#[test]
fn null_churn_matches_the_static_pipeline() {
    use np_core::experiment::{Backend, Experiment, Workload};
    use np_core::ChurnConfig;
    let registry = churn_registry();
    for backend in [Backend::Dense, Backend::Hierarchical] {
        let mut dynamic = churn_spec(backend, 0.0);
        let mut static_ = churn_spec(backend, 0.0);
        if let Workload::QueryMatrix(cells) = &mut dynamic.workload {
            cells[0].churn = Some(ChurnConfig::null(60.0));
        }
        if let Workload::QueryMatrix(cells) = &mut static_.workload {
            cells[0].churn = None;
        }
        let dyn_report = Experiment::new(dynamic, &registry).run(4);
        let static_report = Experiment::new(static_, &registry).run(4);
        let dc = &dyn_report.query_cells().expect("query spec")[0];
        let sc = &static_report.query_cells().expect("query spec")[0];
        for (dr, sr) in dc.rows.iter().zip(&sc.rows) {
            assert_eq!(
                dr.runs, sr.runs,
                "null churn diverged from static for {} ({})",
                dr.label,
                backend.name()
            );
            assert!(dr.churn.is_some() && sr.churn.is_none());
        }
    }
}
