//! The service≡batch contract, end-to-end: a schedule served through
//! the `np-serve` pipeline must produce **bit-identical** answers
//! and `PaperMetrics` to the batch runner — at 1, 2, 4 and 8 workers,
//! on both latency backends.
//!
//! Exact equality is deliberate, exactly as in
//! `tests/parallel_determinism.rs`: a served query runs
//! `np_core::run_one_query` keyed only by `(idx, target, seed)`, so
//! which worker ran it, after how long in the queue, must be
//! unobservable in the results. Any regression — a seed
//! derived from worker identity, a reduction in completion order, a
//! query lost or duplicated in the drain — shows up as a hard failure
//! here.

use nearest_peer::prelude::*;
use np_core::{draw_target_schedule, run_one_query, run_queries, PaperMetrics};
use np_metric::nearest::BruteForce;
use np_metric::{NearestCache, WorldStore};
use np_serve::{run_schedule, ArrivalSchedule, Pacing, ServeConfig, ServeCtx, ServeReport};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn world_spec() -> ClusterWorldSpec {
    // The determinism suite's 96-peer world: CI-sized, but large enough
    // that an 8-worker pipeline genuinely interleaves.
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

fn dense_scenario(seed: u64) -> ClusterScenario {
    ClusterScenario::build(world_spec(), 16, seed, 2)
}

/// Serve `n` queries of the batch schedule through a pipeline with
/// `workers` workers and return the report (replay pacing: the contract
/// is about results, not timing).
fn serve_batch<S: WorldStore + Sync>(
    scenario: &np_core::ClusterScenario<S>,
    algo: &dyn np_metric::NearestPeerAlgo,
    truth: &NearestCache,
    n: usize,
    seed: u64,
    workers: usize,
) -> ServeReport {
    let ctx = ServeCtx {
        store: &scenario.matrix,
        world: &scenario.world,
        truth,
        seed,
    };
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let schedule = ArrivalSchedule {
        offsets_ns: vec![0; n],
        targets: draw_target_schedule(&scenario.targets, n, seed),
    };
    run_schedule(&ctx, algo, &cfg, &schedule, Pacing::Replay)
}

fn assert_report_matches_batch(
    report: &ServeReport,
    batch: &PaperMetrics,
    n: usize,
    label: &str,
) {
    // PaperMetrics derives PartialEq over raw f64 fields — exact
    // equality of every metric, not a tolerance check.
    assert_eq!(&report.metrics, batch, "{label}: metrics diverged");
    assert_eq!(report.stats.completed as usize, n, "{label}: lost queries");
    assert_eq!(report.stats.shed, 0, "{label}: lossless admission shed");
    assert_eq!(report.answers.len(), n, "{label}: answer vector length");
    assert!(
        report.answers.iter().all(Option::is_some),
        "{label}: unanswered slot"
    );
    assert_eq!(
        report.total.count(),
        n as u64,
        "{label}: total-latency histogram count"
    );
    assert_eq!(
        report.service.count(),
        n as u64,
        "{label}: service-latency histogram count"
    );
}

/// Meridian on the dense backend: the paper's main subject through the
/// full β-routing query path, served at every worker count.
#[test]
fn meridian_service_equals_batch_dense() {
    let s = dense_scenario(101);
    let overlay = Overlay::build(
        &s.matrix,
        s.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        101,
        2,
    );
    let n = 200;
    let batch = run_queries(&overlay, &s, n, 7, 1);
    let truth = NearestCache::build(&s.matrix, &s.overlay, &s.targets, 1);
    let mut answers: Option<Vec<_>> = None;
    for workers in WORKER_COUNTS {
        let report = serve_batch(&s, &overlay, &truth, n, 7, workers);
        assert_report_matches_batch(&report, &batch, n, &format!("meridian @{workers}w"));
        // Answers are identical across worker counts, peer for peer.
        match &answers {
            None => answers = Some(report.answers),
            Some(first) => assert_eq!(
                first, &report.answers,
                "answers diverged at {workers} workers"
            ),
        }
    }
}

/// Brute force on the hierarchical backend, both at one super-shard
/// (where the store is exact on cluster worlds, so the served answers
/// must equal the dense run's, slot for slot) and at two super-shards
/// under a deliberately starved block cache (where the serve≡batch
/// contract must hold regardless — eviction and re-materialisation are
/// timing, not results).
#[test]
fn brute_force_service_equals_batch_hierarchical() {
    let s = dense_scenario(202);
    let n = 120;
    let dense_answers = {
        let algo = BruteForce::new(&s.matrix, s.overlay.clone());
        let truth = NearestCache::build(&s.matrix, &s.overlay, &s.targets, 1);
        serve_batch(&s, &algo, &truth, n, 11, 1).answers
    };
    for (super_shards, budget) in [(1, usize::MAX), (2, 1)] {
        let h = np_core::ClusterScenario::build_hierarchical(
            world_spec(),
            16,
            202,
            super_shards,
            budget,
            2,
        );
        let algo = BruteForce::new(&h.matrix, h.overlay.clone());
        let batch = run_queries(&algo, &h, n, 11, 1);
        let truth = NearestCache::build(&h.matrix, &h.overlay, &h.targets, 1);
        for workers in WORKER_COUNTS {
            let report = serve_batch(&h, &algo, &truth, n, 11, workers);
            assert_report_matches_batch(
                &report,
                &batch,
                n,
                &format!("brute @{workers}w hierarchical G={super_shards}"),
            );
            if super_shards == 1 {
                assert_eq!(
                    report.answers, dense_answers,
                    "one super-shard must serve the dense backend's exact answers"
                );
            }
        }
    }
}

/// The served answer per slot is exactly `run_one_query`'s answer for
/// that `(idx, target, seed)` — the per-query identity underneath the
/// aggregate equality above.
#[test]
fn served_answers_are_per_query_identical() {
    let s = dense_scenario(404);
    let algo = BruteForce::new(&s.matrix, s.overlay.clone());
    let n = 60;
    let seed = 17;
    let truth = NearestCache::build(&s.matrix, &s.overlay, &s.targets, 1);
    let targets = draw_target_schedule(&s.targets, n, seed);
    let report = serve_batch(&s, &algo, &truth, n, seed, 4);
    for (idx, &target) in targets.iter().enumerate() {
        let direct = run_one_query(&algo, &s.matrix, &s.world, &truth, idx, target, seed, None);
        assert_eq!(
            report.answers[idx],
            Some(direct.found),
            "slot {idx} diverged from the direct per-query path"
        );
    }
}

/// A Poisson schedule (the load generator's own arrival process) served
/// under real-time pacing still satisfies the contract: pacing and
/// arrival times are timing, not results.
#[test]
fn poisson_realtime_schedule_equals_batch() {
    let s = dense_scenario(505);
    let algo = BruteForce::new(&s.matrix, s.overlay.clone());
    let seed = 19;
    let truth = NearestCache::build(&s.matrix, &s.overlay, &s.targets, 1);
    // ~150 arrivals in 0.15s of simulated horizon — fast in wall clock.
    let schedule = ArrivalSchedule::poisson(&s.targets, 1000.0, 0.15, seed);
    assert!(!schedule.is_empty(), "a 1000 qps schedule has arrivals");
    let n = schedule.len();
    let batch = run_queries(&algo, &s, n, seed, 1);
    let ctx = ServeCtx {
        store: &s.matrix,
        world: &s.world,
        truth: &truth,
        seed,
    };
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let report = run_schedule(&ctx, &algo, &cfg, &schedule, Pacing::RealTime);
    assert_report_matches_batch(&report, &batch, n, "poisson realtime");
    assert_eq!(report.stats.policy, "block");
}

/// The arrival schedule itself is a pure function of its seed: same
/// seed ⇒ same offsets and targets; different seed ⇒ a different
/// process (so sweeps don't silently reuse traffic).
#[test]
fn poisson_schedules_are_seed_deterministic() {
    let s = dense_scenario(606);
    let a = ArrivalSchedule::poisson(&s.targets, 500.0, 0.2, 23);
    let b = ArrivalSchedule::poisson(&s.targets, 500.0, 0.2, 23);
    assert_eq!(a.offsets_ns, b.offsets_ns);
    assert_eq!(a.targets, b.targets);
    let c = ArrivalSchedule::poisson(&s.targets, 500.0, 0.2, 24);
    assert_ne!(
        (a.offsets_ns, a.targets),
        (c.offsets_ns, c.targets),
        "different seeds must draw different traffic"
    );
}
