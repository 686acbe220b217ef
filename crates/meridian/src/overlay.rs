//! Overlay construction and the β-routing closest-node query.
//!
//! Paper §4 setup: "~2400 randomly picked peers build a Meridian overlay
//! [...] 5000 Meridian closest-neighbor queries are launched to find the
//! closest peer to randomly chosen target nodes", with β = 0.5 and 16
//! nodes per ring. [`Overlay`] implements both the construction (the
//! authors' simulator fills rings from the latency matrix; a gossip
//! warm-up mode is provided as the decentralised alternative) and the
//! query, which is the paper's §2.3 description of Meridian:
//!
//! > "The node currently processing the query measures its latency to the
//! > target, and asks the nodes in its rings that it knows are at about
//! > the same latency to itself to measure their latencies to the target.
//! > The query is then forwarded to the node with the minimum distance to
//! > the target. The query terminates when the current node can find no
//! > closer node to the target than itself."
//!
//! "At about the same latency" is the annulus `[(1-β)d, (1+β)d]`;
//! "forwarded" requires the improvement `d' < β·d` (Meridian's
//! acceptance threshold), which guarantees geometric progress and gives
//! the paper's trade-off knob β.

use crate::rings::{RingConfig, RingSet};
use np_metric::{LatencyMatrix, NearestPeerAlgo, PeerId, QueryOutcome, Target, WorldStore};
use np_util::parallel::{item_seed, par_map};
use np_util::rng::{rng_for, rng_from};
use np_util::Micros;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Seed tag for the per-node RNG streams of the omniscient ring fill.
/// Each node's offer order is drawn from `item_seed(seed, FILL_TAG, i)`
/// — a pure function of `(seed, member index)` — which is what lets the
/// fill run on any number of workers and still produce bit-identical
/// rings (enforced by `tests/parallel_determinism.rs`).
const FILL_TAG: u64 = 0x4D46_494C; // "MFIL"

/// Ring-boundary table for a [`RingConfig`]: `bounds[i]` is the
/// smallest whole-µs latency whose ring index exceeds `i`, found by
/// binary search with [`RingConfig::ring_of`] itself as the oracle
/// (`ring_of` is monotone in latency — property-tested in `rings.rs`).
/// Classification then becomes a partition-point search over at most
/// `n_rings - 1` `u64`s — pointwise equal to `ring_of`, with no
/// logarithm per candidate. The fill kernel (`fill_survivors`)
/// `debug_assert`s that equality on every classified pair.
fn ring_bounds(cfg: &RingConfig) -> Vec<u64> {
    // Far beyond any generated latency; ring_of saturates at the
    // outermost ring long before this.
    const HI: u64 = 1 << 45;
    (0..cfg.n_rings.saturating_sub(1))
        .map(|i| {
            debug_assert!(cfg.ring_of(Micros(HI)) > i);
            let (mut lo, mut hi) = (0u64, HI);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if cfg.ring_of(Micros(mid)) > i {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        })
        .collect()
}

/// Node `stream`'s offer order: the roster shuffled by its own
/// `item_seed(seed, FILL_TAG, stream)` stream.
fn offer_order(roster: &[PeerId], seed: u64, stream: u64) -> Vec<PeerId> {
    let mut order = roster.to_vec();
    order.shuffle(&mut rng_from(item_seed(seed, FILL_TAG, stream)));
    order
}

/// The survivor-window ring fill: offer `order` to `rs`'s owner and
/// insert only the offers that survive, which leaves the rings exactly
/// as a plain [`RingSet::insert`] of every offer would.
///
/// Why it is exact: offered once each at a fixed RTT, a ring's members
/// after the fill are precisely its **first `k`** arrivals (the
/// primaries, in arrival order) plus the **last ≤ `l`** arrivals after
/// them (the secondaries — the FIFO recycle keeps exactly the trailing
/// window). So per ring only those `k + l` survivors are kept, and
/// replayed in arrival order. Each offer costs one
/// `world.rtt(owner, q)` read and a partition-point search of `bounds`
/// ([`ring_bounds`]), with no `ln` and no per-offer ring bookkeeping.
///
/// Offers to the owner itself and those `removed` rejects are skipped. With `dirty`, only
/// offers classified into a ring `r` with `dirty[r]` are kept (repair
/// replays cleared rings; the rest of `rs` must not hold any of their
/// offers). Returns the number of offers kept — the inserts a plain
/// replay would make. `order` must not repeat a peer.
fn fill_survivors<W: WorldStore + ?Sized>(
    rs: &mut RingSet,
    order: &[PeerId],
    bounds: &[u64],
    world: &W,
    removed: impl Fn(PeerId) -> bool,
    dirty: Option<&[bool]>,
) -> u64 {
    let cfg = *rs.config();
    let (k, l, owner) = (cfg.k, cfg.l, rs.owner());
    // Per ring r: first[r*k..] holds the first k arrivals; late[r*l..]
    // is a circular window over the n_late[r] arrivals after them.
    let mut first = vec![(owner, 0u64); cfg.n_rings * k];
    let mut late = vec![(owner, 0u64); cfg.n_rings * l];
    let mut n_first = vec![0usize; cfg.n_rings];
    let mut n_late = vec![0usize; cfg.n_rings];
    let mut kept = 0u64;
    for &q in order {
        if q == owner || removed(q) {
            continue;
        }
        let d = world.rtt(owner, q).as_us();
        let r = bounds.partition_point(|&b| d >= b);
        debug_assert_eq!(
            r,
            cfg.ring_of(Micros(d)),
            "boundary table diverged from ring_of at {d} us"
        );
        if dirty.is_some_and(|dirty| !dirty[r]) {
            continue;
        }
        kept += 1;
        if n_first[r] < k {
            first[r * k + n_first[r]] = (q, d);
            n_first[r] += 1;
        } else if l > 0 {
            late[r * l + n_late[r] % l] = (q, d);
            n_late[r] += 1;
        }
    }
    // Replay the survivors in arrival order.
    rs.reserve_exact(
        (0..cfg.n_rings)
            .map(|r| n_first[r] + n_late[r].min(l))
            .sum(),
    );
    for r in 0..cfg.n_rings {
        let window = n_late[r].min(l);
        let oldest = n_late[r] - window;
        let survivors = first[r * k..r * k + n_first[r]]
            .iter()
            .chain((oldest..n_late[r]).map(|j| &late[r * l + j % l]));
        for &(q, d) in survivors {
            rs.push(r, q, Micros(d));
        }
    }
    kept
}

/// Meridian parameters (§4 of the paper: β = 0.5, 16 per ring).
#[derive(Debug, Clone, Copy)]
pub struct MeridianConfig {
    pub rings: RingConfig,
    /// Acceptance threshold β ∈ (0, 1): forward only when the best probe
    /// improves on `β·d`.
    pub beta: f64,
    /// Ring-management passes after construction.
    pub manage_rounds: usize,
    /// Hop budget (loop guard; Meridian converges long before this).
    pub max_hops: u32,
}

impl Default for MeridianConfig {
    fn default() -> Self {
        MeridianConfig {
            rings: RingConfig::default(),
            beta: 0.5,
            manage_rounds: 2,
            max_hops: 64,
        }
    }
}

/// Provenance of an omniscient ring fill, recorded so churn repair can
/// replay exactly the offer streams that built the rings.
///
/// The omniscient fill offers every roster member to every node once,
/// in an order drawn from `item_seed(seed, FILL_TAG, roster index)`.
/// Ring state is therefore a pure function of `(seed, roster,
/// removed-so-far)` — and after a departure, only the rings whose
/// arrival subsequence contained the departed peer can change. [`Overlay::repair_after_leaves`]
/// exploits that: it replays *only the dirty rings* from these
/// streams, with a bit-identical-to-full-rebuild contract (see
/// [`Overlay::rebuild_surviving`] and `tests/overlay_repair.rs`).
///
/// `removed` accumulates every peer repaired away since the fill, so
/// repeated repairs keep replaying over the correct survivor set.
/// Gossip builds have no replay stream, so they carry no origin and
/// cannot be repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillOrigin {
    /// Seed of the omniscient fill that produced the rings.
    pub seed: u64,
    /// Full membership at fill time, in fill order (index `i` owns the
    /// offer stream `item_seed(seed, FILL_TAG, i)`).
    pub roster: Vec<PeerId>,
    /// Peers repaired out since the fill (cumulative, in departure order).
    pub removed: Vec<PeerId>,
}

/// Cost accounting for one [`Overlay::repair_after_leaves`]
/// call: how much ring state had to be touched, versus the full
/// rebuild the repair replaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Rings cleared and replayed from the fill's offer streams.
    pub rings_replayed: u64,
    /// Surviving offers classified into those rings during the replays:
    /// the insertions a plain replay makes (the fill kernel inserts only
    /// each ring's survivors of them).
    pub ring_inserts: u64,
}

/// How ring members are discovered at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildMode {
    /// Every node is offered every other member in random order (what the
    /// Meridian simulator does); ring capacities + management do the
    /// selection.
    Omniscient,
    /// Gossip warm-up: per round, each node contacts `fanout` random
    /// members and they exchange ring contents.
    Gossip { rounds: usize, fanout: usize },
}

/// A built Meridian overlay over a latency backend.
///
/// Generic over [`WorldStore`] (defaulting to the dense matrix): the
/// omniscient fill and gossip warm-up read inter-member RTTs through
/// the trait, so overlays build identically over a [`LatencyMatrix`]
/// or a `HierarchicalWorld`.
pub struct Overlay<'m, W: WorldStore + ?Sized = LatencyMatrix> {
    cfg: MeridianConfig,
    world: &'m W,
    members: Vec<PeerId>,
    rings: Arc<HashMap<PeerId, RingSet>>,
    origin: Option<FillOrigin>,
}

impl<'m, W: WorldStore + ?Sized> Overlay<'m, W> {
    /// Build an overlay over `members` (must be non-empty) on `threads`
    /// workers.
    ///
    /// In [`BuildMode::Omniscient`] each node's ring membership is a
    /// pure function of the store's RTTs and its own offer-order RNG
    /// stream (`item_seed(seed, FILL_TAG, index)`), so per-node fill +
    /// ring management run in parallel via [`par_map`] and the rings
    /// come out bit-identical at any `threads`, including 1. This is
    /// the one omniscient fill for every store — dense, and
    /// hierarchical at any super-shard count or block budget — since
    /// it reads only [`WorldStore::rtt`]. The fill keeps
    /// only each ring's survivors of the offer stream (see
    /// `fill_survivors`), so `members` must not contain duplicates
    /// (scenario overlays are sorted and unique). The gossip warm-up is
    /// inherently sequential (nodes exchange evolving ring contents)
    /// and stays serial regardless of `threads`.
    pub fn build(
        world: &'m W,
        members: Vec<PeerId>,
        cfg: MeridianConfig,
        mode: BuildMode,
        seed: u64,
        threads: usize,
    ) -> Overlay<'m, W> {
        assert!(!members.is_empty(), "empty overlay");
        assert!(
            (0.0..1.0).contains(&cfg.beta) && cfg.beta > 0.0,
            "beta must be in (0,1)"
        );
        let mut rng = rng_for(seed, 0x4D45_5244); // "MERD" (gossip mode)
        let mut rings: HashMap<PeerId, RingSet>;
        match mode {
            BuildMode::Omniscient => {
                // Offer every member to every node in (per-node) random
                // order, so capacity eviction is unbiased like gossip
                // arrival order would be. Per-node work — fill plus this
                // node's management rounds — is independent given the
                // matrix, so it fans out across workers.
                let bounds = ring_bounds(&cfg.rings);
                let filled = par_map(threads, &members, |i, &p| {
                    let order = offer_order(&members, seed, i as u64);
                    let mut rs = RingSet::new(p, cfg.rings);
                    fill_survivors(&mut rs, &order, &bounds, world, |_| false, None);
                    for _ in 0..cfg.manage_rounds {
                        rs.manage(|a, b| world.rtt(a, b));
                    }
                    rs
                });
                rings = members.iter().copied().zip(filled).collect();
                let origin = Some(FillOrigin {
                    seed,
                    roster: members.clone(),
                    removed: Vec::new(),
                });
                return Overlay {
                    cfg,
                    world,
                    members,
                    rings: Arc::new(rings),
                    origin,
                };
            }
            BuildMode::Gossip { rounds, fanout } => {
                rings = members
                    .iter()
                    .map(|&p| (p, RingSet::new(p, cfg.rings)))
                    .collect();
                // Bootstrap: everyone knows `fanout` random members.
                for &p in &members {
                    for _ in 0..fanout {
                        let &q = members.choose(&mut rng).expect("non-empty");
                        if q != p {
                            rings
                                .get_mut(&p)
                                .expect("member ring set")
                                .insert(q, world.rtt(p, q));
                        }
                    }
                }
                for _ in 0..rounds {
                    for &p in &members {
                        // Pull one known member's view.
                        let known: Vec<PeerId> =
                            rings[&p].primaries().map(|m| m.peer).collect();
                        let Some(&q) = known.as_slice().choose(&mut rng) else {
                            continue;
                        };
                        let offer: Vec<PeerId> =
                            rings[&q].primaries().map(|m| m.peer).collect();
                        let rs = rings.get_mut(&p).expect("member ring set");
                        for r in offer {
                            if r != p {
                                rs.insert(r, world.rtt(p, r));
                            }
                        }
                        // And push ourselves to them (symmetric gossip).
                        let back = world.rtt(q, p);
                        rings.get_mut(&q).expect("member ring set").insert(p, back);
                    }
                }
            }
        }
        for _ in 0..cfg.manage_rounds {
            for &p in &members {
                rings
                    .get_mut(&p)
                    .expect("member ring set")
                    .manage(|a, b| world.rtt(a, b));
            }
        }
        Overlay {
            cfg,
            world,
            members,
            rings: Arc::new(rings),
            origin: None, // gossip arrivals have no replayable stream
        }
    }

    /// Reassemble an overlay from previously built parts (see
    /// [`Overlay::into_parts`]), sharing their rings. `world` must be
    /// the same latency space the parts were built over — repair reads
    /// it — but queries only consult the rings and the probe-counted
    /// target, which is what makes the parts cacheable.
    pub fn from_parts(
        world: &'m W,
        cfg: MeridianConfig,
        members: Vec<PeerId>,
        rings: Arc<HashMap<PeerId, RingSet>>,
        origin: Option<FillOrigin>,
    ) -> Overlay<'m, W> {
        assert_eq!(members.len(), rings.len(), "parts out of sync");
        Overlay {
            cfg,
            world,
            members,
            rings,
            origin,
        }
    }

    /// Decompose into the world-independent parts: configuration,
    /// membership, the ring sets (shared by `Arc`) and the fill origin
    /// (replay provenance for churn repair). The parts are `'static`
    /// (rings store peer ids + RTT values, not matrix borrows), so an
    /// expensive build can be cached and re-borrowed against the same
    /// world: the registry's Meridian factory caches every fill, and
    /// each overlay it builds shares the cached rings.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        MeridianConfig,
        Vec<PeerId>,
        Arc<HashMap<PeerId, RingSet>>,
        Option<FillOrigin>,
    ) {
        (self.cfg, self.members, self.rings, self.origin)
    }

    /// Replay provenance of the ring fill (omniscient fills record it;
    /// gossip builds do not).
    pub fn origin(&self) -> Option<&FillOrigin> {
        self.origin.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &MeridianConfig {
        &self.cfg
    }

    /// The ring set of a member (inspection).
    pub fn rings_of(&self, p: PeerId) -> &RingSet {
        &self.rings[&p]
    }

    /// The backing latency world.
    pub fn world(&self) -> &W {
        self.world
    }

    /// Total primary ring entries across the overlay (capacity telemetry).
    pub fn total_ring_entries(&self) -> usize {
        // np-lint: allow(D1) — commutative usize sum; order cannot reach results
        self.rings.values().map(|r| r.len()).sum()
    }

    /// Run one closest-node query from an explicit start node.
    ///
    /// Fault tolerance: probes go through
    /// [`Target::try_probe_from`], so when the target carries a
    /// [`np_metric::FaultPlan`] a candidate whose probe budget is
    /// exhausted is simply *skipped* — the query routes around dead
    /// peers instead of panicking or returning garbage latencies. If
    /// the **start** node itself cannot reach the target, the query
    /// degrades gracefully to `(start, ∞)` with the attempts still
    /// counted. Without a fault plan every probe succeeds and the path
    /// is bit-identical to the fault-free implementation.
    pub fn query_from(&self, start: PeerId, target: &Target<'_>) -> QueryOutcome {
        let mut current = start;
        let Some(mut d) = target.try_probe_from(current) else {
            return QueryOutcome {
                found: start,
                rtt_to_target: Micros::INFINITY,
                probes: target.probes(),
                hops: 0,
            };
        };
        // Global best over every probe made (Meridian returns the closest
        // node *seen*, which may not be the final hop).
        let mut best = (d, current);
        let mut hops = 0u32;
        let mut visited: Vec<PeerId> = vec![current];
        loop {
            if hops >= self.cfg.max_hops || d == Micros::ZERO {
                break;
            }
            let lo = d.scale(1.0 - self.cfg.beta);
            let hi = d.scale(1.0 + self.cfg.beta);
            let candidates = self.rings[&current].primaries_in(lo, hi);
            // Every annulus member measures its latency to the target;
            // unreachable members drop out of the round.
            let mut round_best: Option<(Micros, PeerId)> = None;
            for m in candidates {
                let Some(dm) = target.try_probe_from(m.peer) else {
                    continue;
                };
                if dm < best.0 || (dm == best.0 && m.peer < best.1) {
                    best = (dm, m.peer);
                }
                if round_best
                    .map(|(bd, bp)| (dm, m.peer) < (bd, bp))
                    .unwrap_or(true)
                {
                    round_best = Some((dm, m.peer));
                }
            }
            let Some((dm, next)) = round_best else { break };
            // Acceptance threshold: forward only on geometric progress.
            if dm >= d.scale(self.cfg.beta) {
                break;
            }
            if visited.contains(&next) {
                break; // loop guard (can only happen with max-ring quirks)
            }
            visited.push(next);
            current = next;
            d = dm;
            hops += 1;
        }
        QueryOutcome {
            found: best.1,
            rtt_to_target: best.0,
            probes: target.probes(),
            hops,
        }
    }

    /// Incremental overlay repair after a batch of departures, with a
    /// **bit-identical-to-full-rebuild** contract: afterwards the
    /// rings equal those of [`Overlay::rebuild_surviving`] — a from-
    /// scratch omniscient fill replay over the survivor set — member
    /// for member, ring for ring (property-tested in
    /// `tests/overlay_repair.rs`).
    ///
    /// Why only a fraction of the rings need touching: in the
    /// omniscient fill each peer `q` is offered to node `p` exactly
    /// once, at the fixed latency `rtt(p, q)`, and lands in the single
    /// ring `ring_of(rtt(p, q))`; ring management never moves peers
    /// across rings. So removing `q` from the offer stream can only
    /// change that one ring of each survivor — every other ring sees
    /// the *identical* arrival subsequence and (being managed
    /// per-ring, independently) ends up in the identical state. The
    /// repair clears exactly those dirty rings and replays them from
    /// the recorded [`FillOrigin`] streams, filtered to survivors —
    /// `|departed|` rings per node instead of all `n_rings`, with ring
    /// management (the hypervolume selection that dominates fill cost)
    /// rerun only on the dirty rings.
    ///
    /// Per-survivor work is a pure function of the origin and the
    /// cumulative removed set, so it fans out across `threads` workers
    /// and the result is bit-identical at any worker count.
    ///
    /// Departures not currently in the overlay are ignored.
    ///
    /// # Panics
    /// Panics when the overlay has no replay provenance (a gossip
    /// build: [`Overlay::origin`] is `None`), as
    /// [`Overlay::rebuild_surviving`] does, and when the departures
    /// would empty the overlay.
    pub fn repair_after_leaves(
        &mut self,
        departed: &[PeerId],
        threads: usize,
    ) -> RepairStats {
        let mut stats = RepairStats::default();
        let origin = self
            .origin
            .as_mut()
            .expect("repair_after_leaves needs a recorded fill origin");
        let going: Vec<PeerId> = {
            let mut seen = HashSet::new();
            departed
                .iter()
                .copied()
                .filter(|p| self.rings.contains_key(p) && seen.insert(*p))
                .collect()
        };
        if going.is_empty() {
            return stats;
        }
        assert!(
            going.len() < self.members.len(),
            "repair would empty the overlay"
        );
        origin.removed.extend_from_slice(&going);
        let origin = origin.clone();
        let removed_set: HashSet<PeerId> = origin.removed.iter().copied().collect();
        // Drop the departed (copying the rings first if they are shared).
        let rings = Arc::make_mut(&mut self.rings);
        for &p in &going {
            rings.remove(&p);
            if let Ok(pos) = self.members.binary_search(&p) {
                self.members.remove(pos);
            }
        }
        let stream_of: HashMap<PeerId, u64> = origin
            .roster
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        let (world, cfg) = (self.world, self.cfg);
        let bounds = ring_bounds(&cfg.rings);
        // Per-survivor: find the dirty rings, clear + replay them from
        // the fill stream over the survivor set, re-manage only those
        // rings. Pure per-node function → parallel and deterministic.
        let repaired = par_map(threads, &self.members, |_, &p| {
            let mut dirty = vec![false; cfg.rings.n_rings];
            for &q in going.iter().filter(|&&q| q != p) {
                dirty[cfg.rings.ring_of(world.rtt(p, q))] = true;
            }
            let dirty_rings: Vec<usize> = (0..dirty.len()).filter(|&r| dirty[r]).collect();
            if dirty_rings.is_empty() {
                return (None, 0u64);
            }
            let mut rs = rings[&p].clone();
            for &r in &dirty_rings {
                rs.clear_ring(r);
            }
            let order = offer_order(&origin.roster, origin.seed, stream_of[&p]);
            let inserts = fill_survivors(
                &mut rs,
                &order,
                &bounds,
                world,
                |q| removed_set.contains(&q),
                Some(&dirty),
            );
            for _ in 0..cfg.manage_rounds {
                for &r in &dirty_rings {
                    rs.manage_ring(r, |a, b| world.rtt(a, b));
                }
            }
            (Some((rs, dirty_rings.len() as u64)), inserts)
        });
        for (i, (res, inserts)) in repaired.into_iter().enumerate() {
            stats.ring_inserts += inserts;
            if let Some((rs, n_dirty)) = res {
                stats.rings_replayed += n_dirty;
                rings.insert(self.members[i], rs);
            }
        }
        stats
    }

    /// Full from-scratch rebuild over the current survivor set, by
    /// replaying the recorded fill streams with every removed peer
    /// filtered out of every offer order. This is the reference
    /// implementation the incremental
    /// [`Overlay::repair_after_leaves`] is contractually
    /// bit-identical to; the equivalence is what `tests/overlay_repair.rs`
    /// pins.
    ///
    /// # Panics
    /// Panics when the overlay has no replay provenance
    /// ([`Overlay::origin`] is `None`).
    pub fn rebuild_surviving(&self, threads: usize) -> Overlay<'m, W> {
        let origin = self
            .origin
            .clone()
            .expect("rebuild_surviving needs a recorded fill origin");
        let removed_set: HashSet<PeerId> = origin.removed.iter().copied().collect();
        let (world, cfg) = (self.world, self.cfg);
        let survivors: Vec<(u64, PeerId)> = origin
            .roster
            .iter()
            .enumerate()
            .filter(|(_, p)| !removed_set.contains(p))
            .map(|(i, &p)| (i as u64, p))
            .collect();
        let filled = par_map(threads, &survivors, |_, &(stream, p)| {
            let order = offer_order(&origin.roster, origin.seed, stream);
            let mut rs = RingSet::new(p, cfg.rings);
            for &q in &order {
                if q != p && !removed_set.contains(&q) {
                    rs.insert(q, world.rtt(p, q));
                }
            }
            for _ in 0..cfg.manage_rounds {
                rs.manage(|a, b| world.rtt(a, b));
            }
            rs
        });
        let members: Vec<PeerId> = {
            let mut m: Vec<PeerId> = survivors.iter().map(|&(_, p)| p).collect();
            m.sort_unstable();
            m
        };
        let rings = survivors
            .iter()
            .map(|&(_, p)| p)
            .zip(filled)
            .collect();
        Overlay {
            cfg,
            world,
            members,
            rings: Arc::new(rings),
            origin: Some(origin),
        }
    }

    /// Pick a uniform random start member (≠ target when possible).
    pub fn random_start(&self, rng: &mut StdRng, target: PeerId) -> PeerId {
        for _ in 0..64 {
            let &p = self.members.choose(rng).expect("non-empty");
            if p != target {
                return p;
            }
        }
        self.members[0]
    }
}

impl<W: WorldStore + ?Sized> NearestPeerAlgo for Overlay<'_, W> {
    fn name(&self) -> &str {
        "meridian"
    }

    fn members(&self) -> &[PeerId] {
        &self.members
    }

    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        let start = self.random_start(rng, target.id());
        self.query_from(start, target)
    }
}

/// Build-mode independent smoke check used by tests and benches: a small
/// uniform world where Meridian should almost always find the true
/// nearest peer.
#[doc(hidden)]
pub fn line_world(n: usize) -> LatencyMatrix {
    LatencyMatrix::build(n, |a, b| {
        Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_util::rng::rng_from;

    /// The §4 cluster shape in miniature: `g` end-networks of 2 peers
    /// each, one cluster; EN i at `4+i·jitter` ms from the hub.
    fn cluster_matrix(g: usize, delta_ms: f64) -> LatencyMatrix {
        let n = g * 2;
        LatencyMatrix::build(n, |a, b| {
            let (ea, eb) = (a.idx() / 2, b.idx() / 2);
            if ea == eb {
                Micros::from_us(100)
            } else {
                let ha = 4.0 + delta_ms * (ea as f64 / g as f64);
                let hb = 4.0 + delta_ms * (eb as f64 / g as f64);
                Micros::from_ms(ha + hb)
            }
        })
    }

    #[test]
    fn finds_nearest_on_a_line() {
        // Paper setup: targets are held OUT of the overlay. Members are
        // the even peers; odd peers are queried as targets; the true
        // nearest member is an adjacent even peer at 1 ms.
        let m = line_world(64);
        let members: Vec<PeerId> = (0..64).step_by(2).map(|i| PeerId(i as u32)).collect();
        let overlay = Overlay::build(
            &m,
            members.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            1,
            1,
        );
        let mut rng = rng_from(2);
        let mut hits = 0;
        let targets: Vec<u32> = (1..64).step_by(2).map(|i| i as u32).collect();
        for &t in &targets {
            let target = Target::new(PeerId(t), &m);
            let out = overlay.find_nearest(&target, &mut rng);
            let truth = m
                .nearest_within(PeerId(t), &members)
                .expect("others exist");
            // Accept either equidistant neighbour.
            if m.rtt(out.found, PeerId(t)) == m.rtt(truth, PeerId(t)) {
                hits += 1;
            }
            assert!(out.probes > 0);
            assert!(members.contains(&out.found), "answer from the overlay");
        }
        assert!(
            hits >= targets.len() - 2,
            "line-world accuracy too low: {hits}/{}",
            targets.len()
        );
    }

    #[test]
    fn query_makes_geometric_progress() {
        let m = line_world(128);
        let members: Vec<PeerId> = (1..128).map(PeerId).collect(); // target 0 held out
        let overlay = Overlay::build(
            &m,
            members,
            MeridianConfig::default(),
            BuildMode::Omniscient,
            3,
            1,
        );
        // Start far from the target: hop count must stay logarithmic-ish.
        let target = Target::new(PeerId(0), &m);
        let out = overlay.query_from(PeerId(127), &target);
        assert!(out.hops <= 12, "too many hops: {}", out.hops);
        assert!(out.rtt_to_target <= Micros::from_ms_u64(2));
    }

    #[test]
    fn degrades_under_clustering() {
        // One big cluster with tiny intra-cluster variation: Meridian
        // should usually fail to find the end-network partner (paper §2.3)
        // but always land inside the cluster.
        let m = cluster_matrix(60, 0.4);
        let members: Vec<PeerId> = (2..120).map(PeerId).collect(); // peer 0,1's EN partner 1 stays
        let overlay = Overlay::build(
            &m,
            members,
            MeridianConfig::default(),
            BuildMode::Omniscient,
            5,
            1,
        );
        let mut rng = rng_from(7);
        let mut exact = 0;
        let runs = 40;
        for _ in 0..runs {
            let target = Target::new(PeerId(0), &m);
            let out = overlay.find_nearest(&target, &mut rng);
            if out.found == PeerId(1) {
                exact += 1;
            }
        }
        assert!(
            exact < runs / 2,
            "clustering should defeat Meridian most of the time, got {exact}/{runs}"
        );
    }

    #[test]
    fn gossip_build_is_functional() {
        let m = line_world(48);
        let members: Vec<PeerId> = (0..48).step_by(2).map(|i| PeerId(i as u32)).collect();
        let overlay = Overlay::build(
            &m,
            members.clone(),
            MeridianConfig::default(),
            BuildMode::Gossip {
                rounds: 8,
                fanout: 4,
            },
            9,
            1,
        );
        assert!(
            overlay.total_ring_entries() >= members.len() * 4,
            "gossip should populate rings"
        );
        let mut rng = rng_from(11);
        let mut close = 0;
        let targets: Vec<u32> = (1..48).step_by(4).map(|i| i as u32).collect();
        for &t in &targets {
            let target = Target::new(PeerId(t), &m);
            let out = overlay.find_nearest(&target, &mut rng);
            if m.rtt(out.found, PeerId(t)) <= Micros::from_ms_u64(3) {
                close += 1;
            }
        }
        assert!(
            close * 4 >= targets.len() * 3,
            "gossip overlay too weak: {close}/{}",
            targets.len()
        );
    }

    #[test]
    fn beta_trades_probes_for_accuracy() {
        let m = line_world(96);
        let members: Vec<PeerId> = (0..96).map(PeerId).collect();
        let mut probes_by_beta = Vec::new();
        for beta in [0.25, 0.5, 0.75] {
            let overlay = Overlay::build(
                &m,
                members.clone(),
                MeridianConfig {
                    beta,
                    ..MeridianConfig::default()
                },
                BuildMode::Omniscient,
                13,
                1,
            );
            let mut rng = rng_from(17);
            let mut total = 0u64;
            for t in (0..96u32).step_by(6) {
                let target = Target::new(PeerId(t), &m);
                total += overlay.find_nearest(&target, &mut rng).probes;
            }
            probes_by_beta.push(total);
        }
        // A wider annulus (larger beta) probes more.
        assert!(
            probes_by_beta[0] < probes_by_beta[2],
            "beta=0.25 ({}) should cost fewer probes than beta=0.75 ({})",
            probes_by_beta[0],
            probes_by_beta[2]
        );
    }

    #[test]
    fn ring_bounds_classify_exactly_like_ring_of() {
        for cfg in [
            RingConfig::default(),
            RingConfig {
                alpha: Micros::from_us(700),
                s: 1.7,
                n_rings: 9,
                ..RingConfig::default()
            },
            RingConfig {
                n_rings: 1,
                ..RingConfig::default()
            },
        ] {
            let bounds = ring_bounds(&cfg);
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "bounds must be sorted");
            // Dense sweep near the origin plus every boundary's
            // neighbourhood — the spots where a float log could
            // disagree with the table.
            let mut probes: Vec<u64> = (0..5_000).collect();
            for &b in &bounds {
                probes.extend([b.saturating_sub(1), b, b + 1]);
            }
            probes.extend([1 << 30, 1 << 40, (1 << 45) - 1]);
            for d in probes {
                assert_eq!(
                    bounds.partition_point(|&b| d >= b),
                    cfg.ring_of(Micros(d)),
                    "classification diverged at {d} us (alpha {:?}, s {})",
                    cfg.alpha,
                    cfg.s
                );
            }
        }
    }

    /// One ring set's members and RTTs, in stored order.
    type Ring = Vec<(PeerId, Micros)>;

    /// Exhaustive ring-state comparison (primaries AND secondaries, in
    /// stored order) — the currency of the repair contract.
    fn ring_state<W: WorldStore + ?Sized>(o: &Overlay<'_, W>) -> Vec<(PeerId, Ring, Ring)> {
        let mut out: Vec<_> = o
            .members()
            .iter()
            .map(|&p| {
                let rs = o.rings_of(p);
                (
                    p,
                    rs.primaries().map(|m| (m.peer, m.rtt)).collect(),
                    rs.secondaries().map(|m| (m.peer, m.rtt)).collect(),
                )
            })
            .collect();
        out.sort_by_key(|(p, _, _)| *p);
        out
    }

    /// The survivor-window fill against its reference: with nothing
    /// removed, [`Overlay::rebuild_surviving`] replays every offer
    /// through plain [`RingSet::insert`], so it must equal the fresh
    /// build, primaries and secondaries in stored order.
    #[test]
    fn fresh_fill_equals_the_plain_insert_replay() {
        use np_topology::{ClusterWorld, ClusterWorldSpec};
        let m = cluster_matrix(40, 0.5);
        let dense = Overlay::build(
            &m,
            (0..80).map(PeerId).collect(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            77,
            2,
        );
        assert_eq!(
            ring_state(&dense),
            ring_state(&dense.rebuild_surviving(2)),
            "dense"
        );
        let world = ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 8,
                en_per_cluster: 10,
                peers_per_en: 2,
                delta: 0.3,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 11,
            },
            13,
            1,
        );
        let members: Vec<PeerId> = world.peers().skip(6).collect();
        for super_shards in [1, 4] {
            let store = world.to_hierarchical(super_shards, usize::MAX);
            let hier = Overlay::build(
                &store,
                members.clone(),
                MeridianConfig::default(),
                BuildMode::Omniscient,
                13,
                2,
            );
            assert_eq!(
                ring_state(&hier),
                ring_state(&hier.rebuild_surviving(2)),
                "hierarchical at {super_shards} super-shards"
            );
        }
    }

    #[test]
    fn repair_is_bit_identical_to_full_rebuild() {
        let m = cluster_matrix(40, 0.5);
        let members: Vec<PeerId> = (0..80).map(PeerId).collect();
        let mut overlay = Overlay::build(
            &m,
            members.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            77,
            2,
        );
        let origin = overlay.origin().expect("omniscient fill records origin");
        assert_eq!((origin.seed, &origin.roster), (77, &members));
        assert!(origin.removed.is_empty());
        let rings = RingConfig::default();
        let mut removed: Vec<PeerId> = Vec::new();
        // Three rounds of batched departures, repaired incrementally;
        // after each round the rings must equal a from-scratch replay
        // over the survivor set.
        for round in [vec![5u32, 17, 33], vec![2, 60], vec![61, 62, 63, 40]] {
            let departed: Vec<PeerId> = round.iter().copied().map(PeerId).collect();
            removed.extend_from_slice(&departed);
            // Independent count of the surviving offers whose ring the
            // round dirties, over every survivor's full roster.
            let expected_inserts: usize = members
                .iter()
                .filter(|p| !removed.contains(p))
                .map(|&p| {
                    let dirty: Vec<usize> = departed
                        .iter()
                        .map(|&q| rings.ring_of(m.rtt(p, q)))
                        .collect();
                    members
                        .iter()
                        .filter(|&&q| q != p && !removed.contains(&q))
                        .filter(|&&q| dirty.contains(&rings.ring_of(m.rtt(p, q))))
                        .count()
                })
                .sum();
            let stats = overlay.repair_after_leaves(&departed, 2);
            assert_eq!(stats.ring_inserts, expected_inserts as u64, "ring_inserts");
            assert!(stats.rings_replayed > 0, "dirty rings must be found");
            assert!(
                (stats.rings_replayed as usize)
                    <= overlay.members().len() * departed.len(),
                "at most |departed| dirty rings per survivor"
            );
            let rebuilt = overlay.rebuild_surviving(2);
            assert_eq!(overlay.members(), rebuilt.members());
            assert_eq!(
                ring_state(&overlay),
                ring_state(&rebuilt),
                "incremental repair diverged from full survivor rebuild"
            );
            for &p in &departed {
                assert!(!overlay.members().contains(&p));
            }
            assert_eq!(overlay.origin().expect("repair keeps the origin").removed, removed);
        }
    }

    #[test]
    fn repair_is_thread_count_invariant_and_ignores_strangers() {
        let m = line_world(60);
        let members: Vec<PeerId> = (0..60).map(PeerId).collect();
        let build = || {
            Overlay::build(
                &m,
                members.clone(),
                MeridianConfig::default(),
                BuildMode::Omniscient,
                19,
                2,
            )
        };
        let departed = [PeerId(3), PeerId(200), PeerId(44), PeerId(3)];
        let mut serial = build();
        let s1 = serial.repair_after_leaves(&departed, 1);
        for threads in [2, 8] {
            let mut par = build();
            let sn = par.repair_after_leaves(&departed, threads);
            assert_eq!(s1, sn, "repair stats diverged at {threads} threads");
            assert_eq!(ring_state(&serial), ring_state(&par));
        }
        // The stranger (200) and the duplicate were ignored: only two
        // real departures happened.
        assert_eq!(serial.members().len(), 58);
    }

    #[test]
    #[should_panic(expected = "needs a recorded fill origin")]
    fn repair_without_origin_panics() {
        let m = line_world(48);
        let members: Vec<PeerId> = (0..48).step_by(2).map(|i| PeerId(i as u32)).collect();
        let mut overlay = Overlay::build(
            &m,
            members,
            MeridianConfig::default(),
            BuildMode::Gossip {
                rounds: 6,
                fanout: 4,
            },
            9,
            1,
        );
        assert!(overlay.origin().is_none(), "gossip records no origin");
        overlay.repair_after_leaves(&[PeerId(4), PeerId(10)], 2);
    }

    #[test]
    fn query_routes_around_dead_peers_without_panicking() {
        use np_metric::FaultPlan;
        let m = line_world(64);
        let members: Vec<PeerId> = (0..64).step_by(2).map(|i| PeerId(i as u32)).collect();
        let overlay = Overlay::build(
            &m,
            members.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            7,
            1,
        );
        // Heavy loss, tight budget: every query must still terminate
        // with an overlay member (or the start node) as the answer.
        for q in 0..24u64 {
            let target = Target::with_faults(
                PeerId(33),
                &m,
                FaultPlan {
                    loss: 0.45,
                    attempts: 2,
                    seed: q,
                },
            );
            let out = overlay.query_from(PeerId(62), &target);
            assert!(members.contains(&out.found));
            assert!(out.probes > 0, "attempts are always counted");
        }
        // Total blackout: graceful (start, ∞) outcome.
        let target = Target::with_faults(
            PeerId(33),
            &m,
            FaultPlan {
                loss: 1.0,
                attempts: 3,
                seed: 1,
            },
        );
        let out = overlay.query_from(PeerId(62), &target);
        assert_eq!(out.found, PeerId(62));
        assert_eq!(out.rtt_to_target, Micros::INFINITY);
        assert_eq!(out.hops, 0);
        assert_eq!(out.probes, 3, "the budget was spent before giving up");
    }

    #[test]
    fn deterministic_given_seeds() {
        let m = line_world(32);
        let members: Vec<PeerId> = (0..32).map(PeerId).collect();
        let o1 = Overlay::build(
            &m,
            members.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            21,
            1,
        );
        let o2 = Overlay::build(
            &m,
            members,
            MeridianConfig::default(),
            BuildMode::Omniscient,
            21,
            1,
        );
        let t1 = Target::new(PeerId(5), &m);
        let t2 = Target::new(PeerId(5), &m);
        let a = o1.find_nearest(&t1, &mut rng_from(1));
        let b = o2.find_nearest(&t2, &mut rng_from(1));
        assert_eq!(a, b);
    }
}
