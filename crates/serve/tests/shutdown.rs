//! Graceful-shutdown drain: start a pipeline, inject traffic, let the
//! driver return, and account for every query — none lost, none
//! double-counted (`serve` asserts on double-delivery; these tests
//! assert on loss), at every worker count and even when the driver
//! panics or submits from many threads at once. A panicking algorithm
//! must surface as that panic, not as a hang.

use np_core::draw_target_schedule;
use np_metric::nearest::BruteForce;
use np_metric::{NearestCache, NearestPeerAlgo, PeerId, QueryOutcome, Target};
use np_serve::{serve, Admission, ServeConfig, ServeCtx};
use np_topology::{ClusterWorld, ClusterWorldSpec};
use np_util::Micros;
use rand::rngs::StdRng;
use std::sync::mpsc;
use std::time::Duration;

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

/// start → inject → drain at 1, 2, 4 and 8 workers: the returned report
/// accounts for every submitted query exactly once.
#[test]
fn drain_accounts_for_every_query() {
    let f = fixture(11);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let n = 100;
    let schedule = draw_target_schedule(&f.targets, n, 5);
    for workers in [1, 2, 4, 8] {
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let (report, ()) = serve(&f.ctx(5), &algo, &cfg, |handle| {
            for (idx, &target) in schedule.iter().enumerate() {
                assert!(handle.submit(idx, target), "lossless admission");
            }
        });
        let stats = &report.stats;
        assert_eq!(stats.submitted, n as u64, "{workers} workers");
        assert_eq!(stats.admitted, n as u64, "{workers} workers");
        assert_eq!(stats.completed, n as u64, "{workers} workers: lost queries");
        assert_eq!(stats.shed, 0, "{workers} workers");
        assert_eq!(stats.policy, "block");
        assert!(stats.batches >= 1 && stats.batches <= stats.admitted);
        assert_eq!(report.answers.len(), n);
        assert!(report.answers.iter().all(Option::is_some), "unanswered slot");
        assert_eq!(report.total.count(), n as u64);
        assert_eq!(report.queued.count(), n as u64);
        assert_eq!(report.service.count(), n as u64);
        assert_eq!(report.metrics.queries, n);
    }
}

/// Multi-producer ingest: several submitter threads share one handle;
/// the drain still accounts for every query exactly once.
#[test]
fn concurrent_submitters_drain_cleanly() {
    let f = fixture(22);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let producers = 4;
    let per_producer = 25;
    let n = producers * per_producer;
    let schedule = draw_target_schedule(&f.targets, n, 9);
    let cfg = ServeConfig {
        workers: 4,
        queue_cap: 8, // tight: producers genuinely block on admission
        ..ServeConfig::default()
    };
    let (report, ()) = serve(&f.ctx(9), &algo, &cfg, |handle| {
        std::thread::scope(|s| {
            for p in 0..producers {
                let schedule = &schedule;
                s.spawn(move || {
                    for i in 0..per_producer {
                        let idx = p * per_producer + i;
                        assert!(handle.submit(idx, schedule[idx]));
                    }
                });
            }
        });
    });
    assert_eq!(report.stats.completed, n as u64);
    assert_eq!(report.stats.shed, 0);
    assert_eq!(report.answers.len(), n);
    assert!(report.answers.iter().all(Option::is_some));
}

/// An empty run (driver returns without submitting) drains to a clean
/// zero report rather than hanging or fabricating records.
#[test]
fn empty_run_drains_to_zero() {
    let f = fixture(33);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let (report, ()) = serve(&f.ctx(1), &algo, &ServeConfig::default(), |_| {});
    assert_eq!(report.stats.submitted, 0);
    assert_eq!(report.stats.completed, 0);
    assert_eq!(report.stats.batches, 0);
    assert!(report.answers.is_empty());
    assert!(report.total.is_empty());
    assert_eq!(report.metrics.queries, 0);
}

/// A panicking driver must still drain the pipeline — the workers join
/// and the panic propagates, instead of deadlocking the scope. (A
/// regression here shows up as this test hanging, not as an assert.)
#[test]
fn panicking_driver_still_drains() {
    let f = fixture(44);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let schedule = draw_target_schedule(&f.targets, 10, 3);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve(
            &f.ctx(3),
            &algo,
            &ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            |handle| {
                for (idx, &target) in schedule.iter().enumerate() {
                    handle.submit(idx, target);
                }
                panic!("driver exploded mid-run");
            },
        )
    }));
    assert!(outcome.is_err(), "the driver's panic must propagate");
}

/// The driver's own return value passes through `serve` unchanged.
#[test]
fn driver_result_passes_through() {
    let f = fixture(55);
    let algo = BruteForce::new(&f.matrix, f.overlay.clone());
    let (report, submitted) = serve(&f.ctx(2), &algo, &ServeConfig::default(), |handle| {
        let schedule = draw_target_schedule(&f.targets, 7, 2);
        for (idx, &target) in schedule.iter().enumerate() {
            handle.submit(idx, target);
        }
        "seven"
    });
    assert_eq!(submitted, "seven");
    assert_eq!(report.stats.completed, 7);
}

/// An algorithm whose every query panics with a fixed message.
struct Exploding;

const EXPLODING: &str = "find_nearest exploded";

impl NearestPeerAlgo for Exploding {
    fn name(&self) -> &str {
        "exploding"
    }

    fn members(&self) -> &[PeerId] {
        &[]
    }

    fn find_nearest(&self, _: &Target<'_>, _: &mut StdRng) -> QueryOutcome {
        panic!("{EXPLODING}");
    }
}

/// A worker whose algorithm panics must not hang `serve`: the panic
/// closes ingest, so a driver blocked on the full queue wakes, and the
/// caller receives the algorithm's own panic message. `serve` runs on a
/// helper thread so a regression fails after 30 s instead of hanging
/// the suite.
#[test]
fn panicking_algorithm_propagates_instead_of_hanging() {
    for workers in [1, 4] {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let f = fixture(99);
            let schedule = draw_target_schedule(&f.targets, 64, 4);
            let cfg = ServeConfig {
                workers,
                queue_cap: 2,
                admission: Admission::Block,
                ..ServeConfig::default()
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve(&f.ctx(4), &Exploding, &cfg, |handle| {
                    for (idx, &target) in schedule.iter().enumerate() {
                        handle.submit(idx, target);
                    }
                })
            }));
            let message = outcome.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("serve hung after a worker panic ({workers} workers)"));
        helper.join().expect("the helper caught the panic");
        assert_eq!(
            message.as_deref(),
            Some(EXPLODING),
            "{workers} workers: the caller must see the algorithm's own panic"
        );
    }
}
