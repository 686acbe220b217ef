//! The nearest-peer search API.
//!
//! Paper setup (§4): an overlay of ~2,400 peers is built from a latency
//! matrix; ~100 held-out peers act as *targets*; a query must find the
//! overlay member closest to a given target. Crucially, an algorithm can
//! learn a target's latencies **only by probing** — "for a peer to tell if
//! it is the closest peer to A2, it has to first measure its latency to
//! A2". [`Target`] enforces that: every RTT lookup involving the target
//! increments a probe counter, and [`QueryOutcome`] reports the totals
//! that the paper's cost argument (brute-force probing inside a cluster)
//! is about.
//!
//! Inter-*member* latencies are treated as known (learned during overlay
//! maintenance) and are read directly from the matrix by the algorithms.

use crate::index::NearestIndex;
use crate::matrix::{LatencyMatrix, PeerId};
use crate::world::WorldStore;
use np_util::rng::splitmix64;
use np_util::Micros;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed tag isolating the probe fault stream from every other stream.
const FAULT_TAG: u64 = 0x464C_5459; // "FLTY"

/// Deterministic probe fault injection: each probe attempt is dropped
/// with probability `loss`, decided by a pure hash of
/// `(seed, prober, target, attempt)` — no RNG object, no ordering
/// dependence — so fault patterns are bit-identical at any thread
/// count and on every backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-attempt drop probability in `[0, 1)`.
    pub loss: f64,
    /// Attempts per logical probe before the prober gives up (≥ 1).
    /// Each attempt is counted by the target's [`ProbeCounter`] — lost
    /// probes still cost the paper's cost axis.
    pub attempts: u32,
    /// The fault stream's seed (callers derive it per query via
    /// `item_seed`, so queries observe independent loss patterns).
    pub seed: u64,
}

impl FaultPlan {
    /// Does attempt `attempt` of a probe from `prober` to `target`
    /// get dropped? Pure function of the plan and arguments.
    pub fn dropped(&self, prober: PeerId, target: PeerId, attempt: u32) -> bool {
        if self.loss <= 0.0 {
            return false;
        }
        let pair = (u64::from(prober.0) << 32) | u64::from(target.0);
        let h = splitmix64(self.seed ^ splitmix64(FAULT_TAG ^ pair) ^ u64::from(attempt));
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.loss
    }
}

/// Counts latency probes to a query target.
///
/// Atomic (rather than `Cell`) so a [`Target`] is `Sync` and the
/// batch-parallel query runner can hold targets in shared state.
/// `Relaxed` ordering is sufficient throughout: probe counting is pure
/// commutative accumulation — no other memory access is ordered
/// against a bump, and the total is only read after the query's
/// threads are joined (the join itself provides the happens-before
/// edge that makes the final count visible).
#[derive(Debug, Default)]
pub struct ProbeCounter {
    count: AtomicU64,
}

impl ProbeCounter {
    /// Record one probe.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Record `n` probes at once.
    #[inline]
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Probes recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A query target: a peer outside the overlay whose latencies are only
/// observable through counted probes.
///
/// Holds its world as a `&dyn` [`WorldStore`], so every
/// [`NearestPeerAlgo`] implementation works unchanged over the dense
/// matrix and the compressed [`crate::HierarchicalWorld`] alike.
pub struct Target<'a> {
    id: PeerId,
    world: &'a dyn WorldStore,
    counter: ProbeCounter,
    faults: Option<FaultPlan>,
}

impl<'a> Target<'a> {
    /// Wrap `id` as a probe-counted target over `world` (any latency
    /// backend; `&LatencyMatrix` coerces). Probes never fail.
    pub fn new(id: PeerId, world: &'a dyn WorldStore) -> Target<'a> {
        Target {
            id,
            world,
            counter: ProbeCounter::default(),
            faults: None,
        }
    }

    /// Like [`Target::new`], but probes fail according to `faults`.
    /// Algorithms that probe through [`Target::try_probe_from`] observe
    /// the losses; the infallible [`Target::probe_from`] remains exact
    /// (legacy algorithms keep working, they just don't see faults).
    pub fn with_faults(id: PeerId, world: &'a dyn WorldStore, faults: FaultPlan) -> Target<'a> {
        Target {
            id,
            world,
            counter: ProbeCounter::default(),
            faults: Some(faults),
        }
    }

    /// The target's peer id (identity is public; latency is not).
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Measure the RTT from `prober` to the target. Counted.
    ///
    /// Reads the target's row, `rtt(target, prober)`, so every probe
    /// of one query touches one contiguous row of the dense matrix (or
    /// of the target's shard block) instead of a different row per
    /// prober. That is the same value as `rtt(prober, target)`: the
    /// [`WorldStore`] contract makes `rtt` symmetric, and every store
    /// keeps it by construction (the matrix and the shard blocks
    /// mirror their upper triangles, the hub summaries are mirrored,
    /// and hub offsets and drift offsets add commutatively in `u64`).
    pub fn probe_from(&self, prober: PeerId) -> Micros {
        self.counter.bump();
        self.world.rtt(self.id, prober)
    }

    /// Measure the RTT from `prober` to the target through the fault
    /// plan, retrying up to the plan's attempt budget. Every attempt —
    /// lost or not — bumps the probe counter. `None` when all attempts
    /// were dropped (the prober sees a dead peer); without a fault
    /// plan this is exactly one [`Target::probe_from`]. A delivered
    /// attempt reads the target's row, exactly as `probe_from` does;
    /// the drop decision still hashes `(prober, target)` in that order.
    pub fn try_probe_from(&self, prober: PeerId) -> Option<Micros> {
        match self.faults {
            None => Some(self.probe_from(prober)),
            Some(plan) => {
                for attempt in 0..plan.attempts.max(1) {
                    self.counter.bump();
                    if !plan.dropped(prober, self.id, attempt) {
                        return Some(self.world.rtt(self.id, prober));
                    }
                }
                None
            }
        }
    }

    /// Probe the target from every member of `index` (all but the
    /// target itself) and return the closest responder as `(rtt, id)`,
    /// ties to the lowest id; `None` when no member other than the
    /// target answered.
    ///
    /// Counts exactly what probing member by member through
    /// [`Target::try_probe_from`] counts. Without a fault plan, and
    /// when the target lives in the store the index was built over,
    /// the answer comes from the index: one counter update and
    /// O(shards) work instead of one `rtt` read per member. Otherwise
    /// (lossy probes, or another store such as a drifted wrapper) it
    /// is that member-by-member loop.
    pub fn probe_all<W: WorldStore + ?Sized>(
        &self,
        index: &NearestIndex<'_, W>,
    ) -> Option<(Micros, PeerId)> {
        if self.faults.is_none() && index.is_over(self.world) {
            self.counter.add(index.others(self.id));
            return index
                .nearest(self.id)
                .map(|m| (self.world.rtt(m, self.id), m));
        }
        let mut best: Option<(Micros, PeerId)> = None;
        for &m in index.members() {
            if m == self.id {
                continue;
            }
            // Dead peers (all probe attempts lost) are skipped, not
            // fatal: the sweep degrades to "best among responders".
            let Some(d) = self.try_probe_from(m) else {
                continue;
            };
            if best.is_none_or(|b| (d, m) < b) {
                best = Some((d, m));
            }
        }
        best
    }

    /// Probes spent on this target so far.
    pub fn probes(&self) -> u64 {
        self.counter.count()
    }
}

/// The result of one nearest-peer query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The overlay member the algorithm selected.
    pub found: PeerId,
    /// RTT from the found peer to the target (as measured by the final
    /// probe — i.e. ground truth, since probes are noise-free in the
    /// matrix worlds).
    pub rtt_to_target: Micros,
    /// Number of latency probes to the target the query consumed.
    pub probes: u64,
    /// Number of times the query was forwarded between overlay members.
    pub hops: u32,
}

/// A nearest-peer search algorithm over a fixed overlay.
///
/// Implementations: Meridian (`np-meridian`), the Vivaldi greedy walk
/// (`np-coords`), Karger–Ruhl, Tapestry, Tiers and Beaconing
/// (`np-baselines`), and the remedy-augmented hybrid (`np-core`).
///
/// `Sync` is a supertrait: the batch query runner shares one algorithm
/// instance across worker threads, so per-query mutable state must live
/// in the `rng` parameter or the [`Target`], never in `&self`.
pub trait NearestPeerAlgo: Sync {
    /// Short name for tables ("meridian", "tiers", ...).
    fn name(&self) -> &str;

    /// The overlay membership this instance was built over.
    fn members(&self) -> &[PeerId];

    /// Resolve a closest-member query for `target`.
    ///
    /// `rng` drives the random starting peer (the paper: "initiates a
    /// closest-peer query at a random peer") and any internal tie
    /// breaking; determinism comes from the caller's seed discipline.
    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome;
}

/// References delegate, so generic wrappers (e.g. the hybrid) can own
/// or borrow their inner algorithm interchangeably.
impl<A: NearestPeerAlgo + ?Sized> NearestPeerAlgo for &A {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn members(&self) -> &[PeerId] {
        (**self).members()
    }
    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        (**self).find_nearest(target, rng)
    }
}

/// Boxes delegate too — the [`crate::world::WorldStore`]-agnostic
/// factory registry hands out `Box<dyn NearestPeerAlgo>`s.
impl<A: NearestPeerAlgo + ?Sized> NearestPeerAlgo for Box<A> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn members(&self) -> &[PeerId] {
        (**self).members()
    }
    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        (**self).find_nearest(target, rng)
    }
}

/// Brute force: probe every member. The optimal-accuracy / worst-cost
/// reference point — under the clustering condition the paper argues all
/// latency-only algorithms degenerate towards this.
///
/// Generic over the latency backend (defaulting to the dense matrix),
/// so it is also the reference algorithm for compressed worlds too
/// large to materialise densely. Every query is charged one probe per member
/// other than the target; the answer itself comes from a
/// [`NearestIndex`] built once in [`BruteForce::new`] (see
/// [`Target::probe_all`]).
pub struct BruteForce<'m, W: WorldStore + ?Sized = LatencyMatrix> {
    index: NearestIndex<'m, W>,
}

impl<'m, W: WorldStore + ?Sized> BruteForce<'m, W> {
    pub fn new(world: &'m W, members: Vec<PeerId>) -> Self {
        assert!(!members.is_empty(), "empty overlay");
        BruteForce {
            index: NearestIndex::build(world, members),
        }
    }

    /// The backing world (exposed for the runner's ground-truth checks).
    pub fn world(&self) -> &W {
        self.index.store()
    }
}

impl<W: WorldStore + ?Sized> NearestPeerAlgo for BruteForce<'_, W> {
    fn name(&self) -> &str {
        "brute-force"
    }

    fn members(&self) -> &[PeerId] {
        self.index.members()
    }

    fn find_nearest(&self, target: &Target<'_>, _rng: &mut StdRng) -> QueryOutcome {
        let (rtt, found) = target.probe_all(&self.index).unwrap_or_else(|| {
            // Every member unreachable: answer *something* (the first
            // candidate) with an infinite measured RTT rather than
            // panicking mid-batch.
            let first = self.members().iter().copied().find(|&m| m != target.id());
            (
                Micros::INFINITY,
                first.expect("overlay has at least one other member"),
            )
        });
        QueryOutcome {
            found,
            rtt_to_target: rtt,
            probes: target.probes(),
            hops: 0,
        }
    }
}

/// Random selection: probe one random member. The zero-intelligence
/// reference point (lower bound on accuracy).
pub struct RandomChoice<'m, W: WorldStore + ?Sized = LatencyMatrix> {
    world: &'m W,
    members: Vec<PeerId>,
}

impl<'m, W: WorldStore + ?Sized> RandomChoice<'m, W> {
    pub fn new(world: &'m W, members: Vec<PeerId>) -> Self {
        assert!(!members.is_empty(), "empty overlay");
        RandomChoice { world, members }
    }
}

impl<W: WorldStore + ?Sized> NearestPeerAlgo for RandomChoice<'_, W> {
    fn name(&self) -> &str {
        "random"
    }

    fn members(&self) -> &[PeerId] {
        &self.members
    }

    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        use rand::seq::SliceRandom;
        let _ = self.world; // identity only; no latency knowledge used
        let found = loop {
            let &m = self.members.choose(rng).expect("non-empty");
            if m != target.id() {
                break m;
            }
        };
        // A dead pick stays the answer (zero intelligence extends to
        // zero fallback); the measured RTT is just unknown.
        let rtt = target.try_probe_from(found).unwrap_or(Micros::INFINITY);
        QueryOutcome {
            found,
            rtt_to_target: rtt,
            probes: target.probes(),
            hops: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_util::rng::rng_from;

    fn line_matrix(n: usize) -> LatencyMatrix {
        LatencyMatrix::build(n, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        })
    }

    #[test]
    fn target_counts_probes() {
        let m = line_matrix(5);
        let t = Target::new(PeerId(0), &m);
        assert_eq!(t.probes(), 0);
        assert_eq!(t.probe_from(PeerId(3)), Micros::from_ms_u64(3));
        assert_eq!(t.probe_from(PeerId(1)), Micros::from_ms_u64(1));
        assert_eq!(t.probes(), 2);
    }

    #[test]
    fn brute_force_finds_true_nearest_and_probes_everyone() {
        let m = line_matrix(10);
        let members: Vec<PeerId> = (1..10).map(PeerId).collect(); // target 0 excluded
        let algo = BruteForce::new(&m, members);
        let t = Target::new(PeerId(0), &m);
        let out = algo.find_nearest(&t, &mut rng_from(1));
        assert_eq!(out.found, PeerId(1));
        assert_eq!(out.rtt_to_target, Micros::from_ms_u64(1));
        assert_eq!(out.probes, 9);
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn brute_force_skips_target_in_members() {
        let m = line_matrix(4);
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let algo = BruteForce::new(&m, members);
        let t = Target::new(PeerId(2), &m);
        let out = algo.find_nearest(&t, &mut rng_from(1));
        assert_ne!(out.found, PeerId(2), "never returns the target itself");
        assert_eq!(out.probes, 3);
    }

    #[test]
    fn brute_force_answers_for_the_store_the_target_probes() {
        use crate::DriftedWorld;
        let m = line_matrix(6);
        let members: Vec<PeerId> = (0..6).map(PeerId).collect();
        let algo = BruteForce::new(&m, members.clone());
        // Peer 1 is target 0's nearest on the matrix; a 1.5 ms offset
        // on peer 1 makes peer 2 the nearest of the drifted store.
        let off = vec![0u64, 1_500, 0, 0, 0, 0];
        let drifted = DriftedWorld::new(&m, &off);
        let on_matrix = algo.find_nearest(&Target::new(PeerId(0), &m), &mut rng_from(1));
        assert_eq!(on_matrix.found, PeerId(1));
        let out = algo.find_nearest(&Target::new(PeerId(0), &drifted), &mut rng_from(1));
        assert_eq!(out.found, PeerId(2));
        assert_eq!(out.rtt_to_target, drifted.rtt(PeerId(2), PeerId(0)));
        assert_eq!(out.probes, members.len() as u64 - 1);
        assert_eq!(on_matrix.probes, out.probes);
    }

    #[test]
    fn random_choice_uses_one_probe() {
        let m = line_matrix(50);
        let members: Vec<PeerId> = (1..50).map(PeerId).collect();
        let algo = RandomChoice::new(&m, members.clone());
        let mut rng = rng_from(7);
        let t = Target::new(PeerId(0), &m);
        let out = algo.find_nearest(&t, &mut rng);
        assert!(members.contains(&out.found));
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn probes_equal_the_probers_rtt_on_dense_and_hierarchical_stores() {
        use crate::HierarchicalWorld;
        // A structureless world: each pair's RTT is a hash of the pair,
        // so no two rows agree by accident (both stores mirror the
        // upper triangle). The hierarchical store groups its five
        // shards under two super-shards, with hashed hub offsets.
        let n = 48u32;
        let hashed = |a: PeerId, b: PeerId| {
            Micros::from_us(1 + splitmix64((u64::from(a.0) << 32) | u64::from(b.0)) % 50_000)
        };
        let dense = LatencyMatrix::build(n as usize, hashed);
        let shard_of: Vec<u32> = (0..n).map(|i| i % 5).collect();
        let offset: Vec<f32> = (0..n)
            .map(|i| (splitmix64(u64::from(i)) % 5_000) as f32)
            .collect();
        let hub_us = |a: usize, b: usize| 10_000 * a.abs_diff(b) as u64;
        let hier = HierarchicalWorld::build_lazy(&shard_of, 2, offset, hub_us, usize::MAX, hashed);
        assert_eq!(hier.n_super_shards(), 2);
        let stores: [&dyn WorldStore; 2] = [&dense, &hier];
        for world in stores {
            for t in (0..n).map(PeerId) {
                let plain = Target::new(t, world);
                let plan = FaultPlan {
                    loss: 0.5,
                    attempts: 2,
                    seed: u64::from(t.0),
                };
                let lossy = Target::with_faults(t, world, plan);
                for p in (0..n).map(PeerId) {
                    let want = world.rtt(p, t);
                    assert_eq!(plain.probe_from(p), want, "probe_from({p}) to {t}");
                    assert_eq!(plain.try_probe_from(p), Some(want));
                    if let Some(d) = lossy.try_probe_from(p) {
                        assert_eq!(d, want, "lossy try_probe_from({p}) to {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn faultless_try_probe_equals_probe() {
        let m = line_matrix(5);
        let t = Target::new(PeerId(0), &m);
        assert_eq!(t.try_probe_from(PeerId(3)), Some(Micros::from_ms_u64(3)));
        assert_eq!(t.probes(), 1, "one attempt, one bump");
    }

    #[test]
    fn fault_plan_is_deterministic_and_counts_every_attempt() {
        let m = line_matrix(8);
        let plan = FaultPlan {
            loss: 0.5,
            attempts: 3,
            seed: 77,
        };
        let a = Target::with_faults(PeerId(0), &m, plan);
        let b = Target::with_faults(PeerId(0), &m, plan);
        let mut outcomes = Vec::new();
        for p in 1..8u32 {
            let ra = a.try_probe_from(PeerId(p));
            assert_eq!(ra, b.try_probe_from(PeerId(p)), "probe {p} diverged");
            outcomes.push(ra);
        }
        assert_eq!(a.probes(), b.probes());
        // At 50% loss over 7 probers some succeed late or fail; the
        // pure hash must not be degenerate either way.
        assert!(outcomes.iter().any(|o| o.is_some()), "all probes lost");
        assert!(
            a.probes() > 7,
            "retries must be visible in the probe count: {}",
            a.probes()
        );
        // Successful probes still report the exact matrix RTT.
        for (i, o) in outcomes.iter().enumerate() {
            if let Some(d) = o {
                assert_eq!(*d, Micros::from_ms_u64(i as u64 + 1));
            }
        }
    }

    #[test]
    fn total_loss_yields_none_after_the_attempt_budget() {
        let m = line_matrix(3);
        let plan = FaultPlan {
            loss: 1.0,
            attempts: 4,
            seed: 1,
        };
        let t = Target::with_faults(PeerId(0), &m, plan);
        assert_eq!(t.try_probe_from(PeerId(1)), None);
        assert_eq!(t.probes(), 4, "every attempt was counted");
    }

    #[test]
    fn brute_force_skips_dead_peers_and_never_panics() {
        let m = line_matrix(10);
        let members: Vec<PeerId> = (1..10).map(PeerId).collect();
        let algo = BruteForce::new(&m, members.clone());
        // Moderate loss: the best responder wins, no panic.
        let t = Target::with_faults(
            PeerId(0),
            &m,
            FaultPlan {
                loss: 0.4,
                attempts: 2,
                seed: 5,
            },
        );
        let out = algo.find_nearest(&t, &mut rng_from(1));
        assert!(members.contains(&out.found));
        // Total blackout: the fallback answer is returned with an
        // infinite RTT instead of aborting the query batch.
        let dead = Target::with_faults(
            PeerId(0),
            &m,
            FaultPlan {
                loss: 1.0,
                attempts: 2,
                seed: 5,
            },
        );
        let out = algo.find_nearest(&dead, &mut rng_from(1));
        assert_eq!(out.found, PeerId(1), "first candidate is the fallback");
        assert_eq!(out.rtt_to_target, Micros::INFINITY);
        assert_eq!(out.probes, 9 * 2, "two counted attempts per member");
    }

    #[test]
    fn random_choice_is_seed_deterministic() {
        let m = line_matrix(50);
        let members: Vec<PeerId> = (1..50).map(PeerId).collect();
        let algo = RandomChoice::new(&m, members);
        let t1 = Target::new(PeerId(0), &m);
        let t2 = Target::new(PeerId(0), &m);
        let a = algo.find_nearest(&t1, &mut rng_from(42));
        let b = algo.find_nearest(&t2, &mut rng_from(42));
        assert_eq!(a.found, b.found);
    }
}
