//! Event-clocked churn: dynamic worlds for the §4 experiments.
//!
//! The paper's simulations are static snapshots; a deployed
//! nearest-peer service faces membership churn, latency drift and
//! probe loss. This module makes those dynamics *first-class and
//! deterministic*:
//!
//! * [`ChurnSchedule`] — a seeded, event-clocked script of
//!   join/leave/drift events over simulated time (Poisson arrivals,
//!   bounded drift), generated once up front as a pure function of
//!   `(config, membership, seed)` — never of the thread count;
//! * [`DynamicAlgo`] — the per-epoch advancement contract an algorithm
//!   implements to survive churn ([`RebuildEachEpoch`] is the
//!   rebuild-from-scratch default every [`AlgoFactory`] gets for free;
//!   Meridian overrides it with incremental ring repair);
//! * [`run_dynamic`] — the dynamic twin of
//!   [`crate::runner::run_queries`]: queries are clocked into
//!   epochs, the world is wrapped in [`DriftedWorld`] per epoch, the
//!   ground-truth [`NearestCache`] is maintained *incrementally*
//!   (evict/admit, bit-identical to a fresh build), and probe faults
//!   are injected via [`FaultPlan`] so algorithms see dead peers as
//!   probe errors.
//!
//! Determinism contract, inherited from the static runner: same seed +
//! same schedule ⇒ bit-identical [`PaperMetrics`] at any thread count
//! (pinned by `tests/parallel_determinism.rs`), and a *null* schedule
//! (rate 0, no offline peers, no drift, no loss) reduces to exactly
//! the static runner's output.

use crate::experiment::{AlgoContext, AlgoFactory, BuildCache};
use crate::runner::{draw_target_schedule, reduce_records, run_one_query, PaperMetrics};
use crate::scenario::ClusterScenario;
use np_metric::{DriftedWorld, FaultPlan, NearestCache, NearestPeerAlgo, PeerId, WorldStore};
use np_topology::ClusterWorld;
use np_util::parallel::{item_seed, par_map};
use np_util::rng::rng_for;
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::AddAssign;

/// Seed tag of the churn-event stream: the whole schedule (initial
/// offline set, event times, kinds, victims, drift magnitudes) is
/// drawn from `rng_for(seed, CHURN_TAG)` in one serial pass.
pub const CHURN_TAG: u64 = 0x4348_524E; // "CHRN"
/// Seed tag deriving the per-epoch rebuild seeds: epoch `e > 0`
/// rebuilds at `item_seed(seed, EVT_TAG, e)` so successive rebuilds
/// draw independent streams (epoch 0 uses the run seed itself — the
/// null-churn identity with the static pipeline).
pub const EVT_TAG: u64 = 0x4556_4E54; // "EVNT"
/// Seed tag deriving each query's fault stream (loss coin flips are a
/// pure function of `(run seed, query index)`).
const LOSS_TAG: u64 = 0x4C4F_5353; // "LOSS"

/// Knobs of a dynamic world. All randomness derives from the run seed;
/// the config itself is plain data (embedded directly in experiment
/// specs as `CellSpec::churn` and serialised as a `[cell.churn]`
/// TOML table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Mean churn events (join/leave/drift combined) per simulated
    /// minute; 0 disables events entirely.
    pub events_per_min: f64,
    /// Simulated run length in seconds; queries are spread uniformly
    /// over it.
    pub duration_s: f64,
    /// Drift events redraw a peer's additive latency offset uniformly
    /// in `[0, drift_max_us]` µs; 0 disables drift.
    pub drift_max_us: u64,
    /// Fraction of overlay members initially offline (the join pool),
    /// in `[0, 1)`.
    pub offline_frac: f64,
    /// Per-probe loss probability in `[0, 1)`; 0 disables fault
    /// injection.
    pub loss: f64,
    /// Probe attempts per measurement when loss is enabled (≥ 1); each
    /// attempt is an independent deterministic coin.
    pub retries: u32,
}

impl ChurnConfig {
    /// The degenerate schedule: one epoch, full membership, no drift,
    /// no loss. A run under this config is bit-identical to the static
    /// runner.
    pub fn null(duration_s: f64) -> ChurnConfig {
        ChurnConfig {
            events_per_min: 0.0,
            duration_s,
            drift_max_us: 0,
            offline_frac: 0.0,
            loss: 0.0,
            retries: 1,
        }
    }
}

/// One epoch of a [`ChurnSchedule`]: the state between two consecutive
/// events, plus the deltas that led into it.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMembership {
    /// Simulated time of the event opening this epoch (0 for the
    /// initial epoch).
    pub at_s: f64,
    /// Members that came online at this event.
    pub joined: Vec<PeerId>,
    /// Members that went offline at this event (for the initial epoch:
    /// the initially-offline pool).
    pub departed: Vec<PeerId>,
    /// Members whose latency offset was redrawn at this event.
    pub drifted: Vec<PeerId>,
    /// Live overlay membership during this epoch (sorted).
    pub live: Vec<PeerId>,
    /// Per-peer additive latency offsets in µs (indexed by peer id,
    /// covering the whole world) — feed to [`DriftedWorld`].
    pub offsets: Vec<u64>,
    /// Queries clocked into this epoch.
    pub queries: usize,
}

/// A fully materialised dynamic-world script: epochs, their membership
/// snapshots, and the query clocking.
///
/// Generated serially up front (like the static runner's target
/// schedule) so that running it in parallel cannot perturb it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    /// Epochs in simulated-time order; index 0 is the initial state.
    pub epochs: Vec<EpochMembership>,
    /// Join events in the script (excludes the initial offline set).
    pub joins: u64,
    /// Leave events in the script.
    pub leaves: u64,
    /// Drift events in the script.
    pub drifts: u64,
}

impl ChurnSchedule {
    /// Script a dynamic world: shuffle `members`, hold out
    /// `offline_frac` of them as the initial join pool, then draw
    /// Poisson-clocked events (exponential inter-arrivals at
    /// `events_per_min`) until `duration_s` runs out. Each event is a
    /// leave (random live member, keeping at least 3 live), a join
    /// (random offline member) or a drift (redraw one live member's
    /// offset in `[0, drift_max_us]`), falling through to the next
    /// kind when the drawn one is impossible. `n_queries` queries are
    /// clocked uniformly over the duration and assigned to the epoch
    /// containing their timestamp.
    ///
    /// Pure function of the arguments — the single `CHURN_TAG` RNG
    /// stream is consumed serially, so the same inputs give the same
    /// script on any machine at any thread count.
    ///
    /// # Panics
    /// Panics when `members` is empty, `duration_s` is not positive,
    /// or `offline_frac`/`loss` are outside `[0, 1)`.
    pub fn generate(
        cfg: &ChurnConfig,
        members: &[PeerId],
        world_len: usize,
        n_queries: usize,
        seed: u64,
    ) -> ChurnSchedule {
        assert!(!members.is_empty(), "empty overlay");
        assert!(cfg.duration_s > 0.0, "duration must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.offline_frac),
            "offline_frac must be in [0, 1)"
        );
        assert!((0.0..1.0).contains(&cfg.loss), "loss must be in [0, 1)");
        let mut rng = rng_for(seed, CHURN_TAG);
        let mut pool: Vec<PeerId> = members.to_vec();
        pool.shuffle(&mut rng);
        let n_off = ((cfg.offline_frac * members.len() as f64).floor() as usize)
            .min(members.len().saturating_sub(3));
        let mut offline: Vec<PeerId> = pool[..n_off].to_vec();
        let mut live: Vec<PeerId> = pool[n_off..].to_vec();
        live.sort_unstable();
        let mut offsets = vec![0u64; world_len];
        let initial_off = {
            let mut v = offline.clone();
            v.sort_unstable();
            v
        };
        let mut epochs = vec![EpochMembership {
            at_s: 0.0,
            joined: Vec::new(),
            departed: initial_off,
            drifted: Vec::new(),
            live: live.clone(),
            offsets: offsets.clone(),
            queries: 0,
        }];
        let (mut joins, mut leaves, mut drifts) = (0u64, 0u64, 0u64);
        if cfg.events_per_min > 0.0 {
            let mean_s = 60.0 / cfg.events_per_min;
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.gen();
                t += -mean_s * (1.0 - u).ln();
                if t > cfg.duration_s {
                    break;
                }
                // Draw an event kind; fall through the priority chain
                // when the drawn kind is impossible right now.
                let want = rng.gen_range(0..3u32);
                let kind = (0..3u32).map(|s| (want + s) % 3).find(|&k| match k {
                    0 => live.len() > 3, // leave: keep a routable overlay
                    1 => !offline.is_empty(), // join
                    _ => cfg.drift_max_us > 0 && !live.is_empty(), // drift
                });
                let Some(kind) = kind else { continue };
                let (mut joined, mut departed, mut drifted) =
                    (Vec::new(), Vec::new(), Vec::new());
                match kind {
                    0 => {
                        let p = live.remove(rng.gen_range(0..live.len()));
                        offline.push(p);
                        departed.push(p);
                        leaves += 1;
                    }
                    1 => {
                        let p = offline.swap_remove(rng.gen_range(0..offline.len()));
                        let pos = live.binary_search(&p).unwrap_or_else(|e| e);
                        live.insert(pos, p);
                        joined.push(p);
                        joins += 1;
                    }
                    _ => {
                        let p = live[rng.gen_range(0..live.len())];
                        offsets[p.idx()] = rng.gen_range(0..=cfg.drift_max_us);
                        drifted.push(p);
                        drifts += 1;
                    }
                }
                epochs.push(EpochMembership {
                    at_s: t,
                    joined,
                    departed,
                    drifted,
                    live: live.clone(),
                    offsets: offsets.clone(),
                    queries: 0,
                });
            }
        }
        // Clock query i at (i + ½)·duration/n into its epoch.
        let mut ei = 0usize;
        for q in 0..n_queries {
            let qt = (q as f64 + 0.5) * cfg.duration_s / n_queries as f64;
            while ei + 1 < epochs.len() && epochs[ei + 1].at_s <= qt {
                ei += 1;
            }
            epochs[ei].queries += 1;
        }
        ChurnSchedule {
            epochs,
            joins,
            leaves,
            drifts,
        }
    }

    /// Total scripted events (excluding the initial offline hold-out).
    pub fn events(&self) -> u64 {
        self.joins + self.leaves + self.drifts
    }
}

/// What keeping an algorithm's structures current across one churn
/// run cost — the repair-cost axis of the `ext_churn` figure. The
/// rebuild-everything default pays in `full_rebuilds`; Meridian's
/// incremental repair pays in replayed rings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairCost {
    /// Epochs handled by rebuilding the structure from scratch.
    pub full_rebuilds: u64,
    /// Rings replayed by incremental overlay repair.
    pub rings_replayed: u64,
    /// Ring insertions performed during those replays.
    pub ring_inserts: u64,
}

impl AddAssign for RepairCost {
    fn add_assign(&mut self, o: RepairCost) {
        self.full_rebuilds += o.full_rebuilds;
        self.rings_replayed += o.rings_replayed;
        self.ring_inserts += o.ring_inserts;
    }
}

/// Per-run churn accounting: the scripted dynamics plus the repair
/// cost the algorithm paid to keep up. Summed across seed runs in
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Epochs executed (events + 1).
    pub epochs: u64,
    /// Scripted events executed.
    pub events: u64,
    /// Join events.
    pub joins: u64,
    /// Leave events.
    pub leaves: u64,
    /// Drift events.
    pub drifts: u64,
    /// What advancement across those epochs cost.
    pub repair: RepairCost,
}

impl AddAssign for ChurnStats {
    fn add_assign(&mut self, o: ChurnStats) {
        self.epochs += o.epochs;
        self.events += o.events;
        self.joins += o.joins;
        self.leaves += o.leaves;
        self.drifts += o.drifts;
        self.repair += o.repair;
    }
}

/// An algorithm that survives churn: before each epoch's queries the
/// driver calls [`DynamicAlgo::advance`] with the epoch's membership
/// and a fresh per-epoch [`BuildCache`]; queries then run against
/// [`DynamicAlgo::algo`].
///
/// The `'a` lifetime is the run's: epochs, caches and the built
/// algorithm all borrow from the schedule and caches
/// [`run_dynamic`] owns, which outlive every epoch.
pub trait DynamicAlgo<'a> {
    /// Bring the algorithm up to date with `epoch`'s membership.
    /// Returns what the update cost. Structural randomness must derive
    /// from the run seed (e.g. via [`EVT_TAG`]) — never from thread
    /// identity.
    fn advance(&mut self, epoch: &'a EpochMembership, fresh: &'a BuildCache) -> RepairCost;

    /// The current algorithm (valid until the next `advance`).
    ///
    /// # Panics
    /// Implementations may panic when called before the first
    /// [`DynamicAlgo::advance`].
    fn algo(&self) -> &(dyn NearestPeerAlgo + '_);
}

/// The universal [`DynamicAlgo`]: rebuild the algorithm from scratch
/// over each epoch's live membership — epoch 0 at the run seed (the
/// null-churn identity with the static pipeline), later epochs at
/// `item_seed(seed, EVT_TAG, epoch)`. Correct for every factory;
/// costly for structures with expensive builds, which is exactly the
/// trade-off the `ext_churn` figure measures. Rebuilds read the base
/// (undrifted) latency store, modelling ring/structure measurements
/// that go stale as latencies drift.
pub struct RebuildEachEpoch<'a> {
    factory: &'a dyn AlgoFactory,
    store: &'a dyn WorldStore,
    world: &'a ClusterWorld,
    seed: u64,
    threads: usize,
    algo: Option<Box<dyn NearestPeerAlgo + 'a>>,
    epoch: u64,
}

impl<'a> RebuildEachEpoch<'a> {
    /// Wrap `factory` for dynamic runs over `ctx`'s scenario.
    pub fn new(factory: &'a dyn AlgoFactory, ctx: &AlgoContext<'a>) -> RebuildEachEpoch<'a> {
        RebuildEachEpoch {
            factory,
            store: ctx.store,
            world: ctx.world,
            seed: ctx.seed,
            threads: ctx.threads,
            algo: None,
            epoch: 0,
        }
    }
}

impl<'a> DynamicAlgo<'a> for RebuildEachEpoch<'a> {
    fn advance(&mut self, epoch: &'a EpochMembership, fresh: &'a BuildCache) -> RepairCost {
        let seed = if self.epoch == 0 {
            self.seed
        } else {
            item_seed(self.seed, EVT_TAG, self.epoch)
        };
        let ctx = AlgoContext {
            store: self.store,
            world: self.world,
            overlay: &epoch.live,
            seed,
            threads: self.threads,
            shared: fresh,
        };
        self.algo = Some(self.factory.build(&ctx));
        self.epoch += 1;
        RepairCost {
            full_rebuilds: 1,
            ..RepairCost::default()
        }
    }

    fn algo(&self) -> &(dyn NearestPeerAlgo + '_) {
        self.algo
            .as_deref()
            .expect("advance() must run before algo()")
    }
}

/// The dynamic twin of [`crate::runner::run_queries`]: run
/// `factory` through a scripted dynamic world end to end.
///
/// The run owns its state: it scripts the [`ChurnSchedule`] from
/// `(cfg, overlay, n_queries, seed)`, keeps one fresh [`BuildCache`]
/// per epoch (so epoch artifacts outlive `advance`) and wraps `factory`
/// over `ctx` in its [`AlgoFactory::dynamic_override`] when it has one
/// (Meridian's incremental ring repair), the [`RebuildEachEpoch`]
/// default otherwise. Per epoch it (1) advances the algorithm
/// (accumulating [`RepairCost`]), (2) wraps the backend in that epoch's
/// [`DriftedWorld`], (3) maintains the ground-truth [`NearestCache`]
/// incrementally — departures evict, joins admit, drifts do both; each
/// step is bit-identical to a fresh build over the epoch's live set —
/// and (4) fans the epoch's queries over `threads` workers through the
/// batch runner's own per-query path ([`crate::runner::run_one_query`])
/// against the drifted world, each query with its own deterministic
/// [`FaultPlan`] when `cfg.loss > 0`.
///
/// The target schedule is the static runner's
/// ([`crate::runner::draw_target_schedule`]), queries keep their global
/// index for seeding and reduction, and records reduce in global query
/// order — so same seed ⇒ bit-identical [`PaperMetrics`] at any thread
/// count, and a null schedule reproduces the static runner's metrics
/// exactly.
pub fn run_dynamic<W: WorldStore>(
    factory: &dyn AlgoFactory,
    ctx: &AlgoContext<'_>,
    scenario: &ClusterScenario<W>,
    cfg: &ChurnConfig,
    n_queries: usize,
    seed: u64,
    threads: usize,
) -> (PaperMetrics, ChurnStats) {
    let schedule = ChurnSchedule::generate(
        cfg,
        &scenario.overlay,
        scenario.world.len(),
        n_queries,
        seed,
    );
    let caches: Vec<BuildCache> = schedule.epochs.iter().map(|_| BuildCache::new()).collect();
    // Declared after the schedule and caches it borrows, so it drops first.
    let mut algo = factory
        .dynamic_override(ctx)
        .unwrap_or_else(|| Box::new(RebuildEachEpoch::new(factory, ctx)));
    let targets = draw_target_schedule(&scenario.targets, n_queries, seed);
    let mut stats = ChurnStats {
        epochs: schedule.epochs.len() as u64,
        events: schedule.events(),
        joins: schedule.joins,
        leaves: schedule.leaves,
        drifts: schedule.drifts,
        repair: RepairCost::default(),
    };
    let mut truth: Option<NearestCache> = None;
    let mut records = Vec::with_capacity(n_queries);
    let mut gidx = 0usize;
    for (ei, ep) in schedule.epochs.iter().enumerate() {
        stats.repair += algo.advance(ep, &caches[ei]);
        let drifted = DriftedWorld::new(&scenario.matrix, &ep.offsets);
        match truth.as_mut() {
            None => {
                truth = Some(NearestCache::build(
                    &drifted,
                    &ep.live,
                    &scenario.targets,
                    threads,
                ));
            }
            Some(cache) => {
                for &q in &ep.departed {
                    cache.evict_member(&drifted, &ep.live, q);
                }
                for &p in &ep.joined {
                    cache.admit_member(&drifted, p);
                }
                for &p in &ep.drifted {
                    cache.evict_member(&drifted, &ep.live, p);
                    cache.admit_member(&drifted, p);
                }
            }
        }
        if ep.queries == 0 {
            continue;
        }
        let cache = truth.as_ref().expect("cache built at epoch 0");
        let current = algo.algo();
        let slice = &targets[gidx..gidx + ep.queries];
        let epoch_records = par_map(threads, slice, |i, &t| {
            let g = gidx + i;
            let faults = (cfg.loss > 0.0).then(|| FaultPlan {
                loss: cfg.loss,
                attempts: cfg.retries.max(1),
                seed: item_seed(seed, LOSS_TAG, g as u64),
            });
            run_one_query(
                current,
                &drifted,
                &scenario.world,
                cache,
                g,
                t,
                seed,
                faults,
            )
            .record
        });
        records.extend(epoch_records);
        gidx += ep.queries;
    }
    (reduce_records(&records, n_queries), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{BruteForceFactory, RandomChoiceFactory};
    use crate::runner::run_queries;
    use np_topology::ClusterWorldSpec;
    use np_util::Micros;

    fn small_scenario(seed: u64) -> ClusterScenario {
        ClusterScenario::build(
            ClusterWorldSpec {
                clusters: 4,
                en_per_cluster: 8,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 5,
            },
            8,
            seed,
            1,
        )
    }

    fn churny() -> ChurnConfig {
        ChurnConfig {
            events_per_min: 30.0,
            duration_s: 60.0,
            drift_max_us: 2_000,
            offline_frac: 0.1,
            loss: 0.05,
            retries: 3,
        }
    }

    fn run_with(
        factory: &dyn AlgoFactory,
        s: &ClusterScenario,
        cfg: &ChurnConfig,
        n_queries: usize,
        seed: u64,
        threads: usize,
    ) -> (PaperMetrics, ChurnStats) {
        let shared = BuildCache::new();
        let ctx = AlgoContext {
            store: &s.matrix,
            world: &s.world,
            overlay: &s.overlay,
            seed,
            threads,
            shared: &shared,
        };
        run_dynamic(factory, &ctx, s, cfg, n_queries, seed, threads)
    }

    #[test]
    fn schedule_is_deterministic_and_partitions_queries() {
        let s = small_scenario(1);
        let cfg = churny();
        let a = ChurnSchedule::generate(&cfg, &s.overlay, s.world.len(), 100, 7);
        let b = ChurnSchedule::generate(&cfg, &s.overlay, s.world.len(), 100, 7);
        assert_eq!(a, b);
        assert_ne!(
            a,
            ChurnSchedule::generate(&cfg, &s.overlay, s.world.len(), 100, 8),
            "different seed, different script"
        );
        assert_eq!(a.epochs.len() as u64, a.events() + 1);
        assert!(a.events() > 0, "30 events/min over 60 s should fire");
        assert_eq!(a.epochs.iter().map(|e| e.queries).sum::<usize>(), 100);
        for ep in &a.epochs {
            // live is sorted, unique, within the overlay, disjoint from
            // the departed-and-not-rejoined set.
            assert!(ep.live.windows(2).all(|w| w[0] < w[1]));
            assert!(ep.live.len() > 3);
            for &p in &ep.departed {
                assert!(ep.live.binary_search(&p).is_err());
            }
            for &p in ep.joined.iter().chain(&ep.drifted) {
                assert!(ep.live.binary_search(&p).is_ok());
            }
            assert_eq!(ep.offsets.len(), s.world.len());
        }
        // Initial epoch holds the offline pool out.
        assert_eq!(
            a.epochs[0].departed.len(),
            (0.1f64 * s.overlay.len() as f64).floor() as usize
        );
    }

    #[test]
    fn null_schedule_is_a_single_full_epoch() {
        let s = small_scenario(2);
        let cfg = ChurnConfig::null(60.0);
        let sched = ChurnSchedule::generate(&cfg, &s.overlay, s.world.len(), 40, 3);
        assert_eq!(sched.epochs.len(), 1);
        assert_eq!(sched.events(), 0);
        let ep = &sched.epochs[0];
        assert_eq!(ep.live, s.overlay);
        assert!(ep.departed.is_empty());
        assert_eq!(ep.queries, 40);
        assert!(ep.offsets.iter().all(|&o| o == 0));
    }

    #[test]
    fn null_churn_run_is_bit_identical_to_the_static_runner() {
        let s = small_scenario(4);
        let cfg = ChurnConfig::null(60.0);
        for factory in [
            &BruteForceFactory as &dyn AlgoFactory,
            &RandomChoiceFactory as &dyn AlgoFactory,
        ] {
            let (dynamic, stats) = run_with(factory, &s, &cfg, 60, 11, 2);
            let shared = BuildCache::new();
            let ctx = AlgoContext {
                store: &s.matrix,
                world: &s.world,
                overlay: &s.overlay,
                seed: 11,
                threads: 2,
                shared: &shared,
            };
            let static_algo = factory.build(&ctx);
            let static_metrics = run_queries(static_algo.as_ref(), &s, 60, 11, 2);
            assert_eq!(dynamic, static_metrics, "{} diverged", factory.name());
            assert_eq!(stats.epochs, 1);
            assert_eq!(stats.repair.full_rebuilds, 1);
        }
    }

    #[test]
    fn brute_force_stays_perfect_under_lossless_churn() {
        // Membership churn and drift change *who* is nearest, but a
        // faultless brute force probing the live set must track the
        // incrementally-maintained truth exactly — this pins the
        // evict/admit maintenance against the dynamic world.
        let s = small_scenario(5);
        let cfg = ChurnConfig {
            loss: 0.0,
            ..churny()
        };
        let (m, stats) = run_with(&BruteForceFactory, &s, &cfg, 80, 13, 2);
        assert!(stats.events > 0);
        assert_eq!(m.p_correct_closest, 1.0, "{m:?}");
        assert_eq!(m.queries, 80);
        assert_eq!(stats.repair.full_rebuilds, stats.epochs);
    }

    #[test]
    fn dynamic_run_is_thread_count_invariant() {
        let s = small_scenario(6);
        let cfg = churny();
        let run_at = |threads: usize| run_with(&BruteForceFactory, &s, &cfg, 70, 17, threads);
        let serial = run_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, run_at(threads), "diverged at {threads} threads");
        }
    }

    #[test]
    fn loss_degrades_brute_force_but_never_panics() {
        let s = small_scenario(7);
        let lossless = ChurnConfig {
            loss: 0.0,
            ..churny()
        };
        let lossy = ChurnConfig {
            loss: 0.4,
            retries: 1,
            ..churny()
        };
        let run_cfg = |cfg: &ChurnConfig| run_with(&BruteForceFactory, &s, cfg, 80, 19, 2).0;
        let clean = run_cfg(&lossless);
        let faulty = run_cfg(&lossy);
        assert_eq!(clean.p_correct_closest, 1.0);
        assert!(
            faulty.p_correct_closest < 1.0,
            "40% loss with one attempt must cost brute force accuracy: {faulty:?}"
        );
        assert_eq!(faulty.queries, 80);
    }
}
