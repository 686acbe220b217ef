//! Kademlia-style iterative nearest-peer lookup over the identifier ring.
//!
//! The paper's registries (§5) assume a DHT substrate; this module asks
//! the sharper question the ROADMAP poses — does structured-overlay
//! *search* fare any better at the nearest-peer problem than the
//! latency-only schemes of §4? A Kademlia lookup converges in the XOR
//! metric over hashed identifiers, which is uncorrelated with latency
//! by construction, so the k-closest frontier lands on an essentially
//! random latency sample of the overlay. The lookup is cheap (α probes
//! per round, O(log n) rounds) but its accuracy should collapse to the
//! random-sample baseline — exactly the paper's "cheap search cannot
//! find the nearest peer" claim restated in DHT form.
//!
//! Mechanics: every overlay member is hashed onto a 2⁶⁴ identifier ring
//! ([`peer_key`]). A query seeds a shortlist at a random member, then
//! repeatedly queries the α XOR-closest unqueried candidates of its
//! k-closest frontier; each queried member returns the k closest
//! contacts it knows (its Kademlia buckets, derived deterministically
//! from the sorted ring by one descent of its key's binary subtree) and
//! measures its own RTT to the target — one counted probe via
//! [`Target::try_probe_from`], so probe faults are observed. The lookup
//! terminates when the frontier stops improving (every frontier member
//! has been queried and no closer candidate appeared); the answer is
//! the latency-best responder seen along the way.

use np_metric::{NearestPeerAlgo, PeerId, QueryOutcome, Target};
use np_util::rng::splitmix64;
use np_util::Micros;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::sync::Arc;

/// Lookup parameters: the paper-standard `k`-closest frontier width and
/// `α` parallel probes per round (Maymounkov & Mazières used k=20, α=3;
/// the defaults here are scaled to the §4 overlay sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KademliaConfig {
    /// Frontier width: the lookup maintains the k XOR-closest known
    /// candidates and stops once they are all queried. Also the bucket
    /// capacity of the derived routing tables.
    pub k: usize,
    /// Parallelism: candidates queried per round (one round = one hop
    /// of forwarding depth; probes within a round are concurrent in a
    /// real deployment, so hop telemetry counts rounds, not probes).
    pub alpha: usize,
}

impl Default for KademliaConfig {
    fn default() -> Self {
        KademliaConfig { k: 8, alpha: 3 }
    }
}

/// The shared ring state: every member keyed and sorted by identifier.
/// A pure function of the overlay membership — no RNG — so dense and
/// hierarchical backends (and every thread) derive the identical ring.
#[derive(Debug)]
pub struct KademliaRing {
    /// `(key bits, peer)` sorted ascending by key (ties by peer id;
    /// SplitMix64 makes key collisions effectively impossible, but the
    /// order is total either way).
    ring: Vec<(u64, PeerId)>,
}

/// The identifier a peer hashes to on the ring: its id through
/// SplitMix64 under a fixed salt, so sequential ids spread uniformly.
#[inline]
pub fn peer_key(p: PeerId) -> u64 {
    splitmix64(u64::from(p.0) ^ 0x6b65_795f_7536_3434)
}

impl KademliaRing {
    /// Key every member and sort the ring.
    pub fn build(members: &[PeerId]) -> KademliaRing {
        assert!(!members.is_empty(), "empty overlay");
        let mut ring: Vec<(u64, PeerId)> = members.iter().map(|&p| (peer_key(p), p)).collect();
        ring.sort_unstable();
        KademliaRing { ring }
    }

    /// How many members are on the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when the ring is empty (never, post-build).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The contacts node `v` knows: for each bucket `b` (candidates
    /// whose XOR distance to `v` has its highest set bit at `b`), the
    /// first `per_bucket` ring entries of that bucket's key range.
    ///
    /// Bucket `b` is the sibling half of `v`'s subtree one level up:
    /// higher bits equal to `v`'s, bit `b` flipped, lower bits free. So
    /// one descent finds them all, with no per-node table to store.
    /// `[lo, hi)` holds the keys that agree with `v` above bit `b`; one
    /// binary search splits it at bit `b` into `v`'s half, where the
    /// descent continues, and bucket `b`. It stops once `v`'s half holds
    /// only `v`'s own key: every lower bucket is then empty.
    fn contacts(&self, v_key: u64, per_bucket: usize, out: &mut Vec<(u64, PeerId)>) {
        out.clear();
        let (mut lo, mut hi) = (0, self.ring.len());
        for b in (0..64u32).rev() {
            if lo == hi || (self.ring[lo].0 == v_key && self.ring[hi - 1].0 == v_key) {
                break;
            }
            let bit = 1u64 << b;
            let mid = lo + self.ring[lo..hi].partition_point(|&(k, _)| k & bit == 0);
            let (bucket, own) = if v_key & bit == 0 {
                (mid..hi, lo..mid)
            } else {
                (lo..mid, mid..hi)
            };
            out.extend(self.ring[bucket].iter().take(per_bucket));
            (lo, hi) = (own.start, own.end);
        }
    }
}

/// The iterative lookup algorithm: a [`KademliaRing`] plus the
/// per-query frontier machinery.
pub struct KademliaLookup {
    ring: Arc<KademliaRing>,
    members: Vec<PeerId>,
    cfg: KademliaConfig,
}

impl KademliaLookup {
    pub fn new(ring: Arc<KademliaRing>, members: Vec<PeerId>, cfg: KademliaConfig) -> Self {
        assert!(cfg.k >= 1 && cfg.alpha >= 1, "degenerate kademlia config");
        KademliaLookup { ring, members, cfg }
    }
}

impl NearestPeerAlgo for KademliaLookup {
    fn name(&self) -> &str {
        "kademlia"
    }

    fn members(&self) -> &[PeerId] {
        &self.members
    }

    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        let (k, tkey) = (self.cfg.k, peer_key(target.id()));
        // "Initiates a closest-peer query at a random peer."
        let start = loop {
            let &m = self.members.choose(rng).expect("non-empty overlay");
            if m != target.id() {
                break m;
            }
        };
        // The shortlist orders every known candidate by XOR distance to
        // the target's key; only its k-closest prefix, the frontier, is
        // kept, each entry with its queried flag. The shortlist only
        // grows, so a candidate ranked below k never re-enters the
        // frontier and dropping it changes no batch.
        let mut frontier: Vec<(u64, PeerId, bool)> = Vec::with_capacity(k + 1);
        frontier.push((peer_key(start) ^ tkey, start, false));
        let mut best: Option<(Micros, PeerId)> = None;
        let mut fallback: Option<PeerId> = None;
        let mut hops = 0u32;
        let mut batch = Vec::with_capacity(self.cfg.alpha);
        let mut contact_buf = Vec::new();
        // Each round queries the α closest unqueried frontier members.
        // The frontier "stops improving" exactly when its k members are
        // all queried and none of their contacts displaced one — the
        // batch comes up empty and the loop ends. 64 rounds bounds the
        // walk at the key width (unreachable in practice).
        while hops < 64 {
            batch.clear();
            for entry in frontier.iter_mut().filter(|e| !e.2).take(self.cfg.alpha) {
                entry.2 = true;
                batch.push(entry.1);
            }
            if batch.is_empty() {
                break;
            }
            hops += 1;
            for &v in &batch {
                fallback.get_or_insert(v);
                // v measures its RTT to the target — counted, fallible
                // under a fault plan (a dead responder is skipped).
                if let Some(d) = target.try_probe_from(v) {
                    if best.map(|(bd, bp)| (d, v) < (bd, bp)).unwrap_or(true) {
                        best = Some((d, v));
                    }
                }
                // v returns the k closest contacts it knows. The order
                // `(key ^ tkey, peer)` is strict, so selection yields the
                // k-set a full sort would.
                self.ring.contacts(peer_key(v), k, &mut contact_buf);
                if contact_buf.len() > k {
                    contact_buf.select_nth_unstable_by_key(k - 1, |&(key, p)| (key ^ tkey, p));
                    contact_buf.truncate(k);
                }
                for &(key, c) in &contact_buf {
                    if c != target.id() {
                        admit(&mut frontier, k, (key ^ tkey, c));
                    }
                }
            }
        }
        let (rtt, found) = best.unwrap_or_else(|| {
            // Every responder dead: answer the first queried candidate
            // with an infinite measured RTT rather than aborting.
            (
                Micros::INFINITY,
                fallback.expect("at least one round ran"),
            )
        });
        QueryOutcome {
            found,
            rtt_to_target: rtt,
            probes: target.probes(),
            hops,
        }
    }
}

/// Insert `(distance, peer)` into the sorted k-bounded frontier unless
/// it is already there or ranks below the k-th entry.
fn admit(frontier: &mut Vec<(u64, PeerId, bool)>, k: usize, (d, c): (u64, PeerId)) {
    let pos = frontier.partition_point(|&(fd, fp, _)| (fd, fp) < (d, c));
    if pos == k || frontier.get(pos).is_some_and(|&(_, fp, _)| fp == c) {
        return;
    }
    if frontier.len() == k {
        frontier.pop();
    }
    frontier.insert(pos, (d, c, false));
}

/// [`np_core::experiment::AlgoFactory`] for the Kademlia lookup. The
/// ring (membership keyed and sorted) is shared through the build cache
/// across every variant instantiated over one scenario.
pub struct KademliaFactory {
    name: String,
    cfg: KademliaConfig,
}

impl KademliaFactory {
    /// The standard `kademlia` registry entry.
    pub fn new() -> KademliaFactory {
        KademliaFactory::with_config("kademlia", KademliaConfig::default())
    }

    /// A named variant (`kademlia-a5`, ...) with explicit parameters.
    pub fn with_config(name: impl Into<String>, cfg: KademliaConfig) -> KademliaFactory {
        assert!(cfg.k >= 1 && cfg.alpha >= 1, "degenerate kademlia config");
        KademliaFactory {
            name: name.into(),
            cfg,
        }
    }

    /// The configured parameters (exposed for spec-module descriptions).
    pub fn config(&self) -> KademliaConfig {
        self.cfg
    }
}

impl Default for KademliaFactory {
    fn default() -> Self {
        KademliaFactory::new()
    }
}

impl np_core::experiment::AlgoFactory for KademliaFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> String {
        format!(
            "Kademlia iterative XOR-metric lookup (k={}, alpha={})",
            self.cfg.k, self.cfg.alpha
        )
    }

    fn build<'a>(
        &self,
        ctx: &np_core::experiment::AlgoContext<'a>,
    ) -> Box<dyn NearestPeerAlgo + 'a> {
        let ring = ctx
            .shared
            .get_or_build("kademlia-ring", || KademliaRing::build(ctx.overlay));
        Box::new(KademliaLookup::new(
            ring,
            ctx.overlay.to_vec(),
            self.cfg,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::{FaultPlan, LatencyMatrix};
    use np_util::rng::rng_from;
    use std::collections::BTreeSet;

    fn line_matrix(n: usize) -> LatencyMatrix {
        LatencyMatrix::build(n, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        })
    }

    /// The bucket scan the descent replaced: bucket `b` is two binary
    /// searches over the whole ring, for each of the 64 buckets.
    fn contacts_reference(
        ring: &KademliaRing,
        v_key: u64,
        per_bucket: usize,
    ) -> Vec<(u64, PeerId)> {
        let mut out = Vec::new();
        for b in 0..64u32 {
            let low_mask = (1u64 << b) - 1;
            let base = (v_key & !(low_mask | (1 << b))) | (!v_key & (1 << b));
            let start = ring.ring.partition_point(|&(k, _)| k < base);
            let end = ring.ring.partition_point(|&(k, _)| k <= base | low_mask);
            out.extend(ring.ring[start..end].iter().take(per_bucket));
        }
        out
    }

    /// The lookup the bounded frontier replaced: a full sort of every
    /// contact list, the whole shortlist in one `BTreeSet` and the
    /// queried members in another.
    fn find_nearest_reference(
        algo: &KademliaLookup,
        target: &Target<'_>,
        rng: &mut StdRng,
    ) -> QueryOutcome {
        let tkey = peer_key(target.id());
        let dist = |p: PeerId| peer_key(p) ^ tkey;
        let start = loop {
            let &m = algo.members.choose(rng).expect("non-empty overlay");
            if m != target.id() {
                break m;
            }
        };
        let mut shortlist: BTreeSet<(u64, PeerId)> = BTreeSet::new();
        shortlist.insert((dist(start), start));
        let mut queried: BTreeSet<PeerId> = BTreeSet::new();
        let mut best: Option<(Micros, PeerId)> = None;
        let mut fallback: Option<PeerId> = None;
        let mut hops = 0u32;
        while hops < 64 {
            let batch: Vec<PeerId> = shortlist
                .iter()
                .take(algo.cfg.k)
                .map(|&(_, p)| p)
                .filter(|p| !queried.contains(p))
                .take(algo.cfg.alpha)
                .collect();
            if batch.is_empty() {
                break;
            }
            hops += 1;
            for v in batch {
                queried.insert(v);
                fallback.get_or_insert(v);
                if let Some(d) = target.try_probe_from(v) {
                    if best.map(|(bd, bp)| (d, v) < (bd, bp)).unwrap_or(true) {
                        best = Some((d, v));
                    }
                }
                let mut contacts = contacts_reference(&algo.ring, peer_key(v), algo.cfg.k);
                contacts.sort_unstable_by_key(|&(k, p)| (k ^ tkey, p));
                for &(_, c) in contacts.iter().take(algo.cfg.k) {
                    if c != target.id() {
                        shortlist.insert((dist(c), c));
                    }
                }
            }
        }
        let (rtt, found) =
            best.unwrap_or_else(|| (Micros::INFINITY, fallback.expect("at least one round ran")));
        QueryOutcome {
            found,
            rtt_to_target: rtt,
            probes: target.probes(),
            hops,
        }
    }

    /// A symmetric world whose RTTs are a hash of the pair, drawn from
    /// 40 whole-millisecond values so that ties are common.
    fn hash_matrix(n: usize, seed: u64) -> LatencyMatrix {
        LatencyMatrix::build(n, |a, b| {
            let pair = (u64::from(a.0) << 32) | u64::from(b.0);
            Micros::from_ms_u64(1 + splitmix64(seed ^ pair) % 40)
        })
    }

    proptest::proptest! {
        /// The descent returns the set the 64-bucket scan returns, for
        /// member keys and for keys off the ring, bounded buckets and
        /// unbounded ones.
        #[test]
        fn prop_contacts_match_reference(
            n in 1usize..600,
            per_bucket in 0usize..24,
            seed in 0u64..1_000_000_000,
        ) {
            let per_bucket = if per_bucket == 0 { usize::MAX } else { per_bucket };
            let members: Vec<PeerId> = (0..n as u64)
                .map(|i| PeerId((splitmix64(seed ^ i) % 1_000_000) as u32))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let ring = KademliaRing::build(&members);
            let mut keys: Vec<u64> = members.iter().take(16).map(|&p| peer_key(p)).collect();
            keys.extend((0..4).map(|i| splitmix64(seed.wrapping_add(i))));
            let mut out = Vec::new();
            for v_key in keys {
                ring.contacts(v_key, per_bucket, &mut out);
                let mut fast = out.clone();
                let mut reference = contacts_reference(&ring, v_key, per_bucket);
                fast.sort_unstable();
                reference.sort_unstable();
                proptest::prop_assert_eq!(fast, reference, "contacts of key {:#x}", v_key);
            }
        }

        /// The lookup gives the reference lookup's outcome (answer,
        /// RTT, probes and hops) on random overlays, with and without
        /// the target among the members, with and without probe loss.
        #[test]
        fn prop_lookup_matches_reference(
            (n, with_target) in (1usize..600, 0usize..2),
            (k, alpha) in (1usize..24, 1usize..8),
            lossy in 0usize..2,
            seed in 0u64..1_000_000_000,
        ) {
            let world = hash_matrix(n + 1, seed);
            let target = PeerId((seed % (n as u64 + 1)) as u32);
            let members: Vec<PeerId> = (0..=n as u32)
                .map(PeerId)
                .filter(|&p| with_target == 1 || p != target)
                .collect();
            let ring = Arc::new(KademliaRing::build(&members));
            let algo = KademliaLookup::new(ring, members, KademliaConfig { k, alpha });
            let plan = FaultPlan {
                loss: 0.5,
                attempts: 2,
                seed,
            };
            let make = || match lossy {
                0 => Target::new(target, &world),
                _ => Target::with_faults(target, &world, plan),
            };
            for q in 0..4 {
                let fast = algo.find_nearest(&make(), &mut rng_from(seed ^ q));
                let reference = find_nearest_reference(&algo, &make(), &mut rng_from(seed ^ q));
                proptest::prop_assert_eq!(fast, reference, "query {}", q);
            }
        }
    }

    fn lookup(n: u32, cfg: KademliaConfig) -> KademliaLookup {
        let members: Vec<PeerId> = (1..n).map(PeerId).collect();
        KademliaLookup::new(Arc::new(KademliaRing::build(&members)), members, cfg)
    }

    #[test]
    fn sequential_peer_ids_spread_over_the_ring() {
        // Peer ids are dense and sequential; their keys must not be:
        // 1000 consecutive ids cover all 16 top-level ring sectors, and
        // neighbouring ids land far apart.
        let mut sectors = [false; 16];
        for id in 0..1000u32 {
            sectors[(peer_key(PeerId(0x0A00_0000 + id)) >> 60) as usize] = true;
        }
        assert!(sectors.iter().all(|&s| s), "sectors uncovered");
        let (a, b) = (peer_key(PeerId(1)), peer_key(PeerId(2)));
        assert!(a.abs_diff(b) > 1 << 32, "keys too close: {a:x} {b:x}");
    }

    #[test]
    fn buckets_partition_the_ring() {
        let members: Vec<PeerId> = (0..200).map(PeerId).collect();
        let ring = KademliaRing::build(&members);
        // With unbounded capacity, the buckets of any node cover every
        // other node exactly once (the bucket ranges partition the key
        // space minus the node's own key).
        let mut out = Vec::new();
        ring.contacts(peer_key(PeerId(17)), usize::MAX, &mut out);
        assert_eq!(out.len(), members.len() - 1);
        let mut peers: Vec<PeerId> = out.iter().map(|&(_, p)| p).collect();
        peers.sort_unstable_by_key(|p| p.0);
        peers.dedup();
        assert_eq!(peers.len(), members.len() - 1);
        assert!(!peers.contains(&PeerId(17)));
    }

    #[test]
    fn lookup_terminates_and_answers_a_member() {
        let m = line_matrix(300);
        let algo = lookup(300, KademliaConfig::default());
        let t = Target::new(PeerId(0), &m);
        let out = algo.find_nearest(&t, &mut rng_from(3));
        assert!(algo.members().contains(&out.found));
        assert!(out.probes >= 1, "every round probes");
        assert!(out.hops >= 1 && out.hops < 64, "bounded rounds: {}", out.hops);
    }

    #[test]
    fn lookup_is_rng_deterministic() {
        let m = line_matrix(300);
        let algo = lookup(300, KademliaConfig::default());
        let t1 = Target::new(PeerId(0), &m);
        let t2 = Target::new(PeerId(0), &m);
        let a = algo.find_nearest(&t1, &mut rng_from(9));
        let b = algo.find_nearest(&t2, &mut rng_from(9));
        assert_eq!(a, b);
    }

    #[test]
    fn frontier_wider_than_the_overlay_degenerates_to_brute_force() {
        // With k ≥ n every member enters the frontier and must be
        // queried before the batch empties, so the lookup probes
        // everyone and the latency-best answer is exact.
        let m = line_matrix(60);
        let algo = lookup(60, KademliaConfig { k: 64, alpha: 4 });
        let t = Target::new(PeerId(0), &m);
        let out = algo.find_nearest(&t, &mut rng_from(4));
        assert_eq!(out.found, PeerId(1), "exhaustive frontier is exact");
        assert_eq!(out.probes, 59, "every member probed exactly once");
    }

    #[test]
    fn never_returns_the_target_itself() {
        let members: Vec<PeerId> = (0..64).map(PeerId).collect(); // target included
        let ring = Arc::new(KademliaRing::build(&members));
        let algo = KademliaLookup::new(ring, members, KademliaConfig::default());
        let m = line_matrix(64);
        for seed in 0..8 {
            let t = Target::new(PeerId(5), &m);
            let out = algo.find_nearest(&t, &mut rng_from(seed));
            assert_ne!(out.found, PeerId(5));
        }
    }

    #[test]
    fn blackout_yields_fallback_with_infinite_rtt() {
        use np_metric::FaultPlan;
        let m = line_matrix(40);
        let algo = lookup(40, KademliaConfig { k: 4, alpha: 2 });
        let t = Target::with_faults(
            PeerId(0),
            &m,
            FaultPlan {
                loss: 1.0,
                attempts: 2,
                seed: 11,
            },
        );
        let out = algo.find_nearest(&t, &mut rng_from(2));
        assert!(algo.members().contains(&out.found));
        assert_eq!(out.rtt_to_target, Micros::INFINITY);
        assert!(out.probes >= 2, "failed attempts are still counted");
    }

    #[test]
    fn alpha_one_probes_fewer_candidates_than_alpha_wide() {
        let m = line_matrix(400);
        let narrow = lookup(400, KademliaConfig { k: 8, alpha: 1 });
        let wide = lookup(400, KademliaConfig { k: 8, alpha: 8 });
        let t1 = Target::new(PeerId(0), &m);
        let t2 = Target::new(PeerId(0), &m);
        let a = narrow.find_nearest(&t1, &mut rng_from(6));
        let b = wide.find_nearest(&t2, &mut rng_from(6));
        assert!(a.hops >= b.hops, "narrow lookups take more rounds");
    }
}
