//! The per-node ring structure.
//!
//! Each Meridian node organises the peers it knows about into concentric
//! latency rings: ring 0 holds peers closer than α, ring `i ≥ 1` holds
//! peers with RTT in `[α·sⁱ⁻¹, α·sⁱ)`, and the outermost ring is
//! unbounded. Every ring keeps up to `k` *primary* members (used to
//! answer queries) and up to `l` *secondary* members (replacement
//! candidates); periodic management swaps secondaries in when doing so
//! increases the ring's hypervolume.

use crate::hypervolume;
use np_metric::PeerId;
use np_util::Micros;
use std::ops::Range;

/// Ring-structure parameters (paper §4 uses `k = 16`, Meridian's default
/// α = 1 ms, s = 2).
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Inner-ring radius.
    pub alpha: Micros,
    /// Ring growth factor.
    pub s: f64,
    /// Number of rings (the last ring is unbounded).
    pub n_rings: usize,
    /// Primary members per ring.
    pub k: usize,
    /// Secondary members per ring.
    pub l: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            alpha: Micros::from_ms_u64(1),
            s: 2.0,
            n_rings: 16,
            k: 16,
            l: 4,
        }
    }
}

impl RingConfig {
    /// Which ring a peer at RTT `d` belongs to.
    pub fn ring_of(&self, d: Micros) -> usize {
        if d < self.alpha {
            return 0;
        }
        // i = floor(log_s(d/alpha)) + 1, capped at the outermost ring.
        let ratio = d.as_us() as f64 / self.alpha.as_us() as f64;
        let i = ratio.ln() / self.s.ln();
        ((i.floor() as usize) + 1).min(self.n_rings - 1)
    }

    /// The half-open latency span `[lo, hi)` of ring `i` (`hi` is `None`
    /// for the unbounded outermost ring).
    pub fn span_of(&self, i: usize) -> (Micros, Option<Micros>) {
        assert!(i < self.n_rings);
        let lo = if i == 0 {
            Micros::ZERO
        } else {
            self.alpha.scale(self.s.powi(i as i32 - 1))
        };
        let hi = if i == self.n_rings - 1 {
            None
        } else if i == 0 {
            Some(self.alpha)
        } else {
            Some(self.alpha.scale(self.s.powi(i as i32)))
        };
        (lo, hi)
    }
}

/// A known peer with its measured RTT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    pub peer: PeerId,
    pub rtt: Micros,
}

/// The full ring set of one node. `members` holds every ring's members
/// in one allocation, ring by ring: primaries in arrival order, then
/// secondaries oldest first. A node knows at most `n_rings · (k + l)`
/// peers, so [`RingSet::insert`] finds a known one by a scan.
#[derive(Debug, Clone)]
pub struct RingSet {
    cfg: RingConfig,
    owner: PeerId,
    members: Vec<Member>,
    /// Ring `r` is `members[start[r]..start[r + 1]]`.
    start: Vec<u32>,
    /// The first `n_primary[r]` members of ring `r` are its primaries.
    n_primary: Vec<u32>,
}

impl RingSet {
    /// Empty ring set for `owner`.
    pub fn new(owner: PeerId, cfg: RingConfig) -> RingSet {
        RingSet {
            cfg,
            owner,
            members: Vec::new(),
            start: vec![0; cfg.n_rings + 1],
            n_primary: vec![0; cfg.n_rings],
        }
    }

    /// The owning node.
    pub fn owner(&self) -> PeerId {
        self.owner
    }

    /// The configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Observe a peer at RTT `rtt`. Duplicate observations refresh the
    /// stored RTT (relocating the member when the new RTT falls in a
    /// different ring). New peers become primary if the ring has space,
    /// otherwise secondary; when both are full, the oldest secondary is
    /// recycled.
    pub fn insert(&mut self, peer: PeerId, rtt: Micros) {
        if peer == self.owner {
            return;
        }
        let target = self.cfg.ring_of(rtt);
        if let Some(pos) = self.members.iter().position(|m| m.peer == peer) {
            let old = self.start.partition_point(|&s| s as usize <= pos) - 1;
            if old == target {
                // Refresh in place.
                self.members[pos].rtt = rtt;
                return;
            }
            // Relocate: drop from the old ring, fall through to add.
            if pos < (self.start[old] + self.n_primary[old]) as usize {
                self.n_primary[old] -= 1;
            }
            self.remove(old, pos..pos + 1);
        }
        self.push(target, peer, rtt);
    }

    /// Add `peer` to ring `r` as a new arrival: a primary while the
    /// ring has room, else a secondary, else in place of the oldest
    /// secondary. `peer` must not be known yet (the fill kernel offers
    /// each survivor once, and `insert` looks first).
    pub(crate) fn push(&mut self, r: usize, peer: PeerId, rtt: Micros) {
        debug_assert!(self.members.iter().all(|m| m.peer != peer));
        let m = Member { peer, rtt };
        let first_secondary = (self.start[r] + self.n_primary[r]) as usize;
        let end = self.start[r + 1] as usize;
        let pos = if (self.n_primary[r] as usize) < self.cfg.k {
            self.n_primary[r] += 1;
            first_secondary
        } else if end - first_secondary < self.cfg.l {
            end
        } else {
            // Recycle the oldest secondary.
            let window = &mut self.members[first_secondary..end];
            window.rotate_left(1);
            window[window.len() - 1] = m;
            return;
        };
        self.members.insert(pos, m);
        for s in &mut self.start[r + 1..] {
            *s += 1;
        }
    }

    /// Room for `additional` more members (the fill counts its survivors first).
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.members.reserve_exact(additional);
    }

    /// Remove `members[span]`, which lies inside ring `r`.
    fn remove(&mut self, r: usize, span: Range<usize>) {
        for s in &mut self.start[r + 1..] {
            *s -= span.len() as u32;
        }
        self.members.drain(span);
    }

    /// Ring `r`'s primaries and secondaries.
    fn ring(&self, r: usize) -> (&[Member], &[Member]) {
        let ring = &self.members[self.start[r] as usize..self.start[r + 1] as usize];
        ring.split_at(self.n_primary[r] as usize)
    }

    /// All primary members across rings.
    pub fn primaries(&self) -> impl Iterator<Item = Member> + '_ {
        (0..self.cfg.n_rings).flat_map(|r| self.ring(r).0.iter().copied())
    }

    /// All secondary members across rings (replacement candidates —
    /// part of the structure's state, so repair-equivalence checks
    /// compare them too).
    pub fn secondaries(&self) -> impl Iterator<Item = Member> + '_ {
        (0..self.cfg.n_rings).flat_map(|r| self.ring(r).1.iter().copied())
    }

    /// Forget every member of ring `r` (primaries and secondaries).
    /// The incremental repair path clears a dirty ring before
    /// replaying its survivor arrival sequence into it.
    pub(crate) fn clear_ring(&mut self, r: usize) {
        self.n_primary[r] = 0;
        self.remove(r, self.start[r] as usize..self.start[r + 1] as usize);
    }

    /// Primary members with RTT within `[lo, hi]` — the β-annulus query.
    pub fn primaries_in(&self, lo: Micros, hi: Micros) -> Vec<Member> {
        // Only rings overlapping [lo, hi] need scanning.
        (self.cfg.ring_of(lo)..=self.cfg.ring_of(hi))
            .flat_map(|r| self.ring(r).0)
            .filter(|m| m.rtt >= lo && m.rtt <= hi)
            .copied()
            .collect()
    }

    /// Number of primary members.
    pub fn len(&self) -> usize {
        self.n_primary.iter().map(|&n| n as usize).sum()
    }

    /// True iff no members are known.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Run ring-membership management on every ring: choose the `k` of
    /// `primary ∪ secondary` maximising hypervolume (`dist` supplies
    /// pairwise RTTs between members, e.g. from the latency matrix), with
    /// the rest demoted to secondaries.
    pub fn manage(&mut self, mut dist: impl FnMut(PeerId, PeerId) -> Micros) {
        for r in 0..self.cfg.n_rings {
            self.manage_ring(r, &mut dist);
        }
    }

    /// [`RingSet::manage`] restricted to ring `r`. Management is
    /// per-ring independent (the selection reads only the ring's own
    /// candidates), which is what lets incremental repair re-manage
    /// only the rings it replayed and still match a full rebuild
    /// bit for bit.
    pub(crate) fn manage_ring(&mut self, r: usize, mut dist: impl FnMut(PeerId, PeerId) -> Micros) {
        // The candidates in arrival order: primaries, then secondaries.
        let start = self.start[r] as usize;
        let candidates = &self.members[start..self.start[r + 1] as usize];
        let total = candidates.len();
        if total <= self.cfg.k || total == self.n_primary[r] as usize {
            return;
        }
        let selected = hypervolume::select_max_volume(total, self.cfg.k, |i, j| {
            dist(candidates[i].peer, candidates[j].peer).as_ms()
        });
        // The selected become the primaries and the next `l` the
        // secondaries, each in candidate order; the rest are forgotten.
        let chosen = |i: &usize| selected.binary_search(i).is_ok();
        let ring: Vec<Member> = (0..total)
            .filter(chosen)
            .chain((0..total).filter(|i| !chosen(i)).take(self.cfg.l))
            .map(|i| candidates[i])
            .collect();
        self.members[start..start + ring.len()].copy_from_slice(&ring);
        self.n_primary[r] = selected.len() as u32;
        self.remove(r, start + ring.len()..start + total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The two-`Vec`-per-ring layout with its peer index, which the
    // one-allocation `RingSet` must match operation for operation.
    include!("rings_reference.rs");

    fn cfg() -> RingConfig {
        RingConfig::default()
    }

    #[test]
    fn ring_of_matches_spans() {
        let c = cfg();
        assert_eq!(c.ring_of(Micros::from_us(100)), 0);
        assert_eq!(c.ring_of(Micros::from_us(999)), 0);
        assert_eq!(c.ring_of(Micros::from_ms_u64(1)), 1);
        assert_eq!(c.ring_of(Micros::from_ms(1.999)), 1);
        assert_eq!(c.ring_of(Micros::from_ms_u64(2)), 2);
        assert_eq!(c.ring_of(Micros::from_ms_u64(5)), 3); // [4,8)
        assert_eq!(c.ring_of(Micros::from_secs(100.0)), c.n_rings - 1);
    }

    #[test]
    fn spans_tile_the_axis() {
        let c = cfg();
        for i in 0..c.n_rings - 1 {
            let (lo, hi) = c.span_of(i);
            let hi = hi.expect("bounded ring");
            // Every latency in [lo, hi) maps back to ring i.
            assert_eq!(c.ring_of(lo), i, "lower edge of ring {i}");
            assert_eq!(c.ring_of(Micros(hi.as_us() - 1)), i, "upper edge of ring {i}");
            let (next_lo, _) = c.span_of(i + 1);
            assert_eq!(hi, next_lo, "rings must tile");
        }
        assert_eq!(c.span_of(c.n_rings - 1).1, None);
    }

    #[test]
    fn insert_respects_capacity_and_promotes_refreshes() {
        let mut rs = RingSet::new(PeerId(0), RingConfig { k: 2, l: 1, ..cfg() });
        // Four peers, all in ring 2 ([2,4) ms).
        for (i, ms) in [(1u32, 2.1), (2, 2.5), (3, 3.0), (4, 3.5)] {
            rs.insert(PeerId(i), Micros::from_ms(ms));
        }
        assert_eq!(rs.len(), 2, "primaries capped at k");
        // Refresh an existing member: no growth.
        rs.insert(PeerId(1), Micros::from_ms(2.2));
        assert_eq!(rs.len(), 2);
        // Self-inserts are ignored.
        rs.insert(PeerId(0), Micros::from_ms(2.0));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn primaries_in_filters_annulus() {
        let mut rs = RingSet::new(PeerId(0), cfg());
        for (i, ms) in [(1u32, 0.5), (2, 3.0), (3, 6.0), (4, 12.0), (5, 80.0)] {
            rs.insert(PeerId(i), Micros::from_ms(ms));
        }
        // Annulus [2, 10] ms: peers 2 and 3.
        let members = rs.primaries_in(Micros::from_ms(2.0), Micros::from_ms(10.0));
        let mut ids: Vec<u32> = members.iter().map(|m| m.peer.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn manage_promotes_volume_improving_secondary() {
        // k=3: three clumped primaries + one far secondary. Management
        // should swap the far secondary in (bigger simplex).
        let mut rs = RingSet::new(PeerId(0), RingConfig { k: 3, l: 2, ..cfg() });
        // Ring [4, 8): all four inserted there.
        rs.insert(PeerId(1), Micros::from_ms(4.1));
        rs.insert(PeerId(2), Micros::from_ms(4.2));
        rs.insert(PeerId(3), Micros::from_ms(4.3));
        rs.insert(PeerId(4), Micros::from_ms(7.9)); // secondary
        // Pairwise metric: 1,2,3 are mutually 0.1 ms apart; 4 is 50 ms
        // from everyone.
        let dist = |a: PeerId, b: PeerId| {
            if a == b {
                Micros::ZERO
            } else if a.0 <= 3 && b.0 <= 3 {
                Micros::from_us(100)
            } else {
                Micros::from_ms_u64(50)
            }
        };
        rs.manage(dist);
        let ids: Vec<u32> = rs.primaries().map(|m| m.peer.0).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&4), "far peer must be promoted, got {ids:?}");
    }

    #[test]
    fn clear_ring_forgets_members() {
        let mut rs = RingSet::new(PeerId(0), RingConfig { k: 2, l: 1, ..cfg() });
        for (i, ms) in [(1u32, 2.1), (2, 2.5), (3, 3.0), (4, 0.5)] {
            rs.insert(PeerId(i), Micros::from_ms(ms));
        }
        let r = cfg().ring_of(Micros::from_ms(2.1));
        rs.clear_ring(r);
        let ids: Vec<u32> = rs.primaries().chain(rs.secondaries()).map(|m| m.peer.0).collect();
        assert_eq!(ids, vec![4], "only the untouched ring survives");
        // Cleared peers can be re-inserted from scratch.
        rs.insert(PeerId(1), Micros::from_ms(2.1));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn manage_equals_per_ring_management() {
        let dist = |a: PeerId, b: PeerId| {
            Micros::from_us(100 + 997 * u64::from(a.0.min(b.0)) + 131 * u64::from(a.0.max(b.0)))
        };
        let build = || {
            let mut rs = RingSet::new(PeerId(0), RingConfig { k: 3, l: 2, ..cfg() });
            for i in 1..40u32 {
                rs.insert(PeerId(i), Micros::from_us(300 * u64::from(i)));
            }
            rs
        };
        let mut whole = build();
        whole.manage(dist);
        let mut by_ring = build();
        for r in 0..cfg().n_rings {
            by_ring.manage_ring(r, dist);
        }
        let collect = |rs: &RingSet| -> (Vec<Member>, Vec<Member>) {
            (rs.primaries().collect(), rs.secondaries().collect())
        };
        assert_eq!(collect(&whole), collect(&by_ring));
    }

    #[test]
    fn manage_noop_when_underfull() {
        let mut rs = RingSet::new(PeerId(0), cfg());
        rs.insert(PeerId(1), Micros::from_ms(3.0));
        let before: Vec<Member> = rs.primaries().collect();
        rs.manage(|_, _| Micros::from_ms_u64(1));
        let after: Vec<Member> = rs.primaries().collect();
        assert_eq!(before, after);
    }

    proptest::proptest! {
        /// ring_of is monotone in latency and always a valid index.
        #[test]
        fn prop_ring_of_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
            let c = cfg();
            let (lo, hi) = (a.min(b), a.max(b));
            let (rl, rh) = (c.ring_of(Micros(lo)), c.ring_of(Micros(hi)));
            proptest::prop_assert!(rl <= rh);
            proptest::prop_assert!(rh < c.n_rings);
        }

        /// Capacity invariants hold under arbitrary insert sequences.
        #[test]
        fn prop_capacity(
            inserts in proptest::collection::vec((1u32..200, 1u64..1_000_000), 0..300),
        ) {
            let c = RingConfig { k: 4, l: 2, ..cfg() };
            let mut rs = RingSet::new(PeerId(0), c);
            for &(p, rtt) in &inserts {
                rs.insert(PeerId(p), Micros(rtt));
            }
            for i in 0..c.n_rings {
                let ring_members = rs.primaries_in(c.span_of(i).0,
                    c.span_of(i).1.map(|h| Micros(h.as_us()-1)).unwrap_or(Micros::INFINITY));
                proptest::prop_assert!(ring_members.len() <= c.k);
            }
            // No duplicate peers across the whole structure.
            let mut ids: Vec<u32> = rs.primaries().map(|m| m.peer.0).collect();
            let before = ids.len();
            ids.sort_unstable();
            ids.dedup();
            proptest::prop_assert_eq!(ids.len(), before);
        }

        /// One random sequence of inserts, ring clears and ring
        /// management leaves the one-allocation ring set equal to the
        /// two-`Vec`-per-ring reference after every step. 24 peers
        /// (the owner among them) within 20 ms crowd rings 3-5, often
        /// past `k + l`, so inserts refresh, relocate and recycle
        /// secondaries; management reads random symmetric distances.
        #[test]
        fn prop_matches_the_reference_layout(
            kl in (1usize..5, 1usize..4),
            ops in proptest::collection::vec(
                (0u8..10, 0u32..24, 0u64..20_000, proptest::num::u64::ANY),
                0..200,
            ),
        ) {
            let c = RingConfig { k: kl.0, l: kl.1, ..cfg() };
            let mut rs = RingSet::new(PeerId(0), c);
            let mut reference = ReferenceRingSet::new(PeerId(0), c);
            for (step, &(op, peer, us, salt)) in ops.iter().enumerate() {
                let r = c.ring_of(Micros(us));
                match op {
                    0..=6 => {
                        rs.insert(PeerId(peer), Micros(us));
                        reference.insert(PeerId(peer), Micros(us));
                    }
                    7 => {
                        rs.clear_ring(r);
                        reference.clear_ring(r);
                    }
                    _ => {
                        let dist = |a: PeerId, b: PeerId| {
                            let pair = u64::from(a.0.min(b.0)) << 32 | u64::from(a.0.max(b.0));
                            let d = np_util::rng::sub_seed(salt, pair) % 50_000;
                            Micros(if a == b { 0 } else { 100 + d })
                        };
                        rs.manage_ring(r, dist);
                        reference.manage_ring(r, dist);
                    }
                }
                let state = |p: Vec<Member>, s: Vec<Member>, len: usize| (p, s, len);
                proptest::prop_assert_eq!(
                    state(rs.primaries().collect(), rs.secondaries().collect(), rs.len()),
                    state(
                        reference.primaries().collect(),
                        reference.secondaries().collect(),
                        reference.len(),
                    ),
                    "layouts diverged at step {} ({:?})",
                    step,
                    (op, peer, us)
                );
            }
        }
    }
}
