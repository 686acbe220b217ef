//! Bounded-queue admission under overload: the `shed` policy drops
//! deterministically at the queue capacity, the `block` policy is
//! lossless, and both record their policy in the stats — asserted at
//! 1, 2, 4 and 8 workers.
//!
//! Determinism leans on [`ServeConfig::start_paused`]: with the workers
//! gated shut, the ingest queue fills to exactly `queue_cap` before
//! anything drains, so which submissions shed is a pure function of
//! submission order — independent of worker count and scheduling.

use np_core::draw_target_schedule;
use np_metric::nearest::BruteForce;
use np_metric::{NearestCache, PeerId};
use np_serve::{serve, Admission, ServeConfig, ServeCtx};
use np_topology::{ClusterWorld, ClusterWorldSpec};
use np_util::Micros;

struct Fixture {
    world: ClusterWorld,
    matrix: np_metric::LatencyMatrix,
    overlay: Vec<PeerId>,
    targets: Vec<PeerId>,
    truth: NearestCache,
}

fn fixture(seed: u64) -> Fixture {
    let world = ClusterWorld::generate(
        ClusterWorldSpec {
            clusters: 3,
            en_per_cluster: 8,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 4,
        },
        seed,
        1,
    );
    let matrix = world.to_matrix(1);
    let targets: Vec<PeerId> = world.peers().take(6).collect();
    let overlay: Vec<PeerId> = world.peers().skip(6).collect();
    let truth = NearestCache::build(&matrix, &overlay, &targets, 1);
    Fixture {
        world,
        matrix,
        overlay,
        targets,
        truth,
    }
}

impl Fixture {
    fn ctx(&self, seed: u64) -> ServeCtx<'_> {
        ServeCtx {
            store: &self.matrix,
            world: &self.world,
            truth: &self.truth,
            seed,
        }
    }
}

/// Shed admission on a paused pipeline: exactly `queue_cap` queries are
/// admitted (the first ones, in submission order), the rest shed — the
/// same outcome at every worker count, down to the metrics.
#[test]
fn shed_is_deterministic_at_the_queue_capacity() {
    let f = fixture(66);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let cap = 16;
    let n = 48;
    let seed = 7;
    let schedule = draw_target_schedule(&f.targets, n, seed);
    let mut first_metrics = None;
    for workers in [1, 2, 4, 8] {
        let cfg = ServeConfig {
            workers,
            queue_cap: cap,
            admission: Admission::Shed,
            start_paused: true,
        };
        let (report, admitted_flags) = serve(&f.ctx(seed), &algo, &cfg, |handle| {
            let flags: Vec<bool> = schedule
                .iter()
                .enumerate()
                .map(|(idx, &target)| handle.submit(idx, target))
                .collect();
            assert_eq!(handle.queued(), cap, "paused queue fills to capacity");
            handle.resume_admission();
            flags
        });
        // The first `cap` submissions were admitted, every later one
        // shed — pure submission order, no timing in sight.
        for (idx, admitted) in admitted_flags.iter().enumerate() {
            assert_eq!(*admitted, idx < cap, "slot {idx} at {workers} workers");
        }
        let stats = &report.stats;
        assert_eq!(stats.policy, "shed");
        assert_eq!(stats.submitted, n as u64);
        assert_eq!(stats.admitted, cap as u64, "{workers} workers");
        assert_eq!(stats.shed, (n - cap) as u64, "{workers} workers");
        assert_eq!(stats.completed, cap as u64, "admitted queries all finish");
        // Slots: answered for 0..cap, absent beyond.
        assert_eq!(report.answers.len(), cap);
        assert!(report.answers.iter().all(Option::is_some));
        assert_eq!(report.metrics.queries, cap);
        // The overload outcome itself is worker-count invariant, down
        // to bit-identical metrics over the admitted prefix.
        match &first_metrics {
            None => first_metrics = Some(report.metrics),
            Some(first) => assert_eq!(
                first, &report.metrics,
                "shed outcome diverged at {workers} workers"
            ),
        }
    }
}

/// Block admission with a tiny queue: submitters stall instead of
/// shedding, so overload costs latency, never answers — at every
/// worker count.
#[test]
fn block_is_lossless_under_overload() {
    let f = fixture(77);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let n = 64;
    let seed = 13;
    let schedule = draw_target_schedule(&f.targets, n, seed);
    for workers in [1, 2, 4, 8] {
        let cfg = ServeConfig {
            workers,
            queue_cap: 2, // far below n: every submitter blocks repeatedly
            admission: Admission::Block,
            ..ServeConfig::default()
        };
        let (report, ()) = serve(&f.ctx(seed), &algo, &cfg, |handle| {
            for (idx, &target) in schedule.iter().enumerate() {
                assert!(handle.submit(idx, target), "block admission never sheds");
            }
        });
        let stats = &report.stats;
        assert_eq!(stats.policy, "block");
        assert_eq!(stats.shed, 0, "{workers} workers");
        assert_eq!(stats.completed, n as u64, "{workers} workers");
        assert!(report.answers.iter().all(Option::is_some));
    }
}

/// `resume_admission` is idempotent and an unpaused pipeline ignores
/// it: the gate is a latch, not a toggle.
#[test]
fn resume_is_idempotent() {
    let f = fixture(88);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let schedule = draw_target_schedule(&f.targets, 10, 3);
    let cfg = ServeConfig {
        start_paused: true,
        ..ServeConfig::default()
    };
    let (report, ()) = serve(&f.ctx(3), &algo, &cfg, |handle| {
        for (idx, &target) in schedule.iter().enumerate() {
            handle.submit(idx, target);
        }
        handle.resume_admission();
        handle.resume_admission();
        handle.resume_admission();
    });
    assert_eq!(report.stats.completed, 10);
}
