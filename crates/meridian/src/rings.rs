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

/// One ring: primaries + secondaries.
#[derive(Debug, Clone, Default)]
struct Ring {
    primary: Vec<Member>,
    secondary: Vec<Member>,
}

/// The full ring set of one node.
#[derive(Debug, Clone)]
pub struct RingSet {
    cfg: RingConfig,
    owner: PeerId,
    rings: Vec<Ring>,
    /// Which ring (if any) currently holds each known peer — keeps
    /// inserts O(ring size) instead of O(total members), which matters
    /// when the omniscient builder offers every overlay member to every
    /// node.
    index: std::collections::HashMap<PeerId, u8>,
}

impl RingSet {
    /// Empty ring set for `owner`.
    pub fn new(owner: PeerId, cfg: RingConfig) -> RingSet {
        RingSet {
            cfg,
            owner,
            rings: vec![Ring::default(); cfg.n_rings],
            index: std::collections::HashMap::new(),
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
        if let Some(&old) = self.index.get(&peer) {
            let ring = &mut self.rings[old as usize];
            if old as usize == target {
                // Refresh in place.
                let m = ring
                    .primary
                    .iter_mut()
                    .chain(ring.secondary.iter_mut())
                    .find(|m| m.peer == peer)
                    .expect("index entry must exist in its ring");
                m.rtt = rtt;
                return;
            }
            // Relocate: drop from the old ring, fall through to add.
            if let Some(pos) = ring.primary.iter().position(|m| m.peer == peer) {
                ring.primary.remove(pos);
            } else if let Some(pos) = ring.secondary.iter().position(|m| m.peer == peer) {
                ring.secondary.remove(pos);
            }
            self.index.remove(&peer);
        }
        let m = Member { peer, rtt };
        let ring = &mut self.rings[target];
        if ring.primary.len() < self.cfg.k {
            ring.primary.push(m);
        } else if ring.secondary.len() < self.cfg.l {
            ring.secondary.push(m);
        } else {
            // Recycle the oldest secondary (front of the vec).
            let evicted = ring.secondary.remove(0);
            self.index.remove(&evicted.peer);
            ring.secondary.push(m);
        }
        self.index.insert(peer, target as u8);
    }

    /// All primary members across rings.
    pub fn primaries(&self) -> impl Iterator<Item = Member> + '_ {
        self.rings.iter().flat_map(|r| r.primary.iter().copied())
    }

    /// All secondary members across rings (replacement candidates —
    /// part of the structure's state, so repair-equivalence checks
    /// compare them too).
    pub fn secondaries(&self) -> impl Iterator<Item = Member> + '_ {
        self.rings.iter().flat_map(|r| r.secondary.iter().copied())
    }

    /// Forget every member of ring `r` (primaries and secondaries).
    /// The incremental repair path clears a dirty ring before
    /// replaying its survivor arrival sequence into it.
    pub(crate) fn clear_ring(&mut self, r: usize) {
        let ring = &mut self.rings[r];
        let peers: Vec<PeerId> = ring
            .primary
            .iter()
            .chain(ring.secondary.iter())
            .map(|m| m.peer)
            .collect();
        ring.primary.clear();
        ring.secondary.clear();
        for p in peers {
            self.index.remove(&p);
        }
    }

    /// Primary members with RTT within `[lo, hi]` — the β-annulus query.
    pub fn primaries_in(&self, lo: Micros, hi: Micros) -> Vec<Member> {
        // Only rings overlapping [lo, hi] need scanning.
        let first = self.cfg.ring_of(lo);
        let last = self.cfg.ring_of(hi);
        let mut out = Vec::new();
        for ring in &self.rings[first..=last] {
            for m in &ring.primary {
                if m.rtt >= lo && m.rtt <= hi {
                    out.push(*m);
                }
            }
        }
        out
    }

    /// Number of primary members.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.primary.len()).sum()
    }

    /// True iff no members are known.
    pub fn is_empty(&self) -> bool {
        self.rings
            .iter()
            .all(|r| r.primary.is_empty() && r.secondary.is_empty())
    }

    /// Run ring-membership management on every ring: choose the `k` of
    /// `primary ∪ secondary` maximising hypervolume (`dist` supplies
    /// pairwise RTTs between members, e.g. from the latency matrix), with
    /// the rest demoted to secondaries.
    pub fn manage(&mut self, mut dist: impl FnMut(PeerId, PeerId) -> Micros) {
        for r in 0..self.rings.len() {
            self.manage_ring(r, &mut dist);
        }
    }

    /// [`RingSet::manage`] restricted to ring `r`. Management is
    /// per-ring independent (the selection reads only the ring's own
    /// candidates), which is what lets incremental repair re-manage
    /// only the rings it replayed and still match a full rebuild
    /// bit for bit.
    pub(crate) fn manage_ring(&mut self, r: usize, mut dist: impl FnMut(PeerId, PeerId) -> Micros) {
        let ring = &self.rings[r];
        let total = ring.primary.len() + ring.secondary.len();
        if total <= self.cfg.k || ring.secondary.is_empty() {
            return;
        }
        let candidates: Vec<Member> = ring
            .primary
            .iter()
            .chain(ring.secondary.iter())
            .copied()
            .collect();
        let selected = hypervolume::select_max_volume(total, self.cfg.k, |i, j| {
            dist(candidates[i].peer, candidates[j].peer).as_ms()
        });
        let mut new_primary = Vec::with_capacity(self.cfg.k);
        let mut new_secondary = Vec::with_capacity(self.cfg.l);
        let mut dropped = Vec::new();
        for (idx, m) in candidates.into_iter().enumerate() {
            if selected.binary_search(&idx).is_ok() {
                new_primary.push(m);
            } else if new_secondary.len() < self.cfg.l {
                new_secondary.push(m);
            } else {
                // Dropped entirely: forget it.
                dropped.push(m.peer);
            }
        }
        let ring = &mut self.rings[r];
        ring.primary = new_primary;
        ring.secondary = new_secondary;
        for p in dropped {
            self.index.remove(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn clear_ring_forgets_members_and_frees_the_index() {
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
    }
}
