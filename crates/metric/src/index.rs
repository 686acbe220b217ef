//! Shard-grouped nearest-member index: the answer of
//! [`WorldStore::nearest_within`] for one fixed member set, in
//! O(shards) per target instead of O(members).
//!
//! Brute force (probe every member, keep the closest) and the
//! ground-truth [`crate::NearestCache`] ask the same question — which
//! member of one fixed set is closest to `t`? — for many targets. On
//! the compressed store ([`HierarchicalWorld`]) most of the answer does
//! not depend on `t`. Every member `m` of a shard `s ≠ shard(t)` sits at
//!
//! ```text
//! rtt(t, m) = hub_offset(t) + hub_rtt(shard(t), s) + hub_offset(m)
//! ```
//!
//! so, seen from any target outside `s`, the shard's closest member is
//! its `(hub_offset(m), id)` minimum. One level up, every member of a
//! super-shard `g ≠ group(t)` sits at
//!
//! ```text
//! hub_offset(t) + super_offset(shard(t)) + super_rtt(group(t), g)
//!               + super_offset(shard(m)) + hub_offset(m)
//! ```
//!
//! so the group's closest member is its
//! `(super_offset(shard(m)) + hub_offset(m), id)` minimum. The index
//! computes both minima once per member set. A query then reads only
//!
//! * the target's own shard, exactly (block RTTs through
//!   [`WorldStore::rtt`]),
//! * one candidate per other shard of the target's super-shard,
//! * one candidate per other super-shard,
//!
//! which is O(|own shard| + |own super-shard| + G); at one super-shard
//! the last term is empty. Stores without shard structure (the dense
//! matrix, drifted wrappers; [`WorldStore::shard_view`] is `None`)
//! answer through their own [`WorldStore::nearest_within`]: for the
//! dense matrix that is the SIMD row gather.
//!
//! # Exactness
//!
//! Distances are the same `u64` microsecond sums [`WorldStore::rtt`]
//! computes, compared as `(rtt, id)`, so ties go to the lowest id. The
//! default scan compares the same values as `f32`, which holds whole
//! microseconds exactly below 2²⁴ µs (16.8 s) — the range the
//! [`crate::scan`] kernel assumes. There the index and the default scan
//! agree bit for bit; `tests/world_equivalence.rs` property-tests it on
//! both backends, at one and at several super-shards, against a
//! wrapper store that keeps the default.

use crate::hierarchical::HierarchicalWorld;
use crate::matrix::PeerId;
use crate::world::WorldStore;

/// The nearest member of one fixed member set, for any target.
///
/// Built once from `(store, members)`; [`NearestIndex::nearest`] then
/// answers exactly what `store.nearest_within(t, members)` answers.
pub struct NearestIndex<'w, W: WorldStore + ?Sized = dyn WorldStore> {
    store: &'w W,
    members: Vec<PeerId>,
    /// Bit `p` set iff peer `p` is a member.
    present: Vec<u64>,
    /// Some member is listed more than once.
    repeats: bool,
    /// The hub-model minima; `None` on stores without shard structure.
    hubs: Option<HubMinima<'w>>,
}

/// Per-shard and per-super-shard closest members of one member set.
struct HubMinima<'w> {
    view: &'w HierarchicalWorld,
    /// Shard → `(hub_offset, id)` of its member closest to the shard
    /// hub; `None` for a shard without members.
    shard_best: Vec<Option<(u64, PeerId)>>,
    /// Super-shard → its shards that hold members, ascending.
    group_shards: Vec<Vec<u32>>,
    /// Super-shard → `(super_offset + hub_offset, id)` of its member
    /// closest to the super-hub; `None` for a group without members.
    group_best: Vec<Option<(u64, PeerId)>>,
}

/// Keep the lexicographically smaller `(distance, id)` candidate.
#[inline]
fn offer(best: &mut Option<(u64, PeerId)>, cand: (u64, PeerId)) {
    if best.is_none_or(|b| cand < b) {
        *best = Some(cand);
    }
}

impl<'w> HubMinima<'w> {
    fn build(view: &'w HierarchicalWorld, members: &[PeerId]) -> HubMinima<'w> {
        let mut shard_best = vec![None; view.n_shards()];
        for &m in members {
            offer(
                &mut shard_best[view.shard_of(m)],
                (view.hub_offset_us(m), m),
            );
        }
        let mut group_shards = vec![Vec::new(); view.n_super_shards()];
        let mut group_best = vec![None; view.n_super_shards()];
        for (s, best) in shard_best.iter().enumerate() {
            let Some((off, m)) = *best else { continue };
            let g = view.super_of(s);
            group_shards[g].push(s as u32);
            offer(&mut group_best[g], (view.super_offset_us(s) + off, m));
        }
        HubMinima {
            view,
            shard_best,
            group_shards,
            group_best,
        }
    }

    fn nearest(&self, t: PeerId, present: &[u64]) -> Option<(u64, PeerId)> {
        let v = self.view;
        let (st, mut best) = (v.shard_of(t), None);
        let gt = v.super_of(st);
        for &m in v.shard_members(st) {
            if m != t && is_set(present, m) {
                offer(&mut best, (v.rtt(t, m).as_us(), m));
            }
        }
        let off_t = v.hub_offset_us(t);
        for &s in &self.group_shards[gt] {
            let s = s as usize;
            match self.shard_best[s] {
                Some((off, m)) if s != st => {
                    offer(&mut best, (off_t + v.hub_rtt_us(st, s) + off, m))
                }
                _ => {}
            }
        }
        let up = off_t + v.super_offset_us(st);
        for (g, &cand) in self.group_best.iter().enumerate() {
            match cand {
                Some((key, m)) if g != gt => {
                    offer(&mut best, (up + v.super_rtt_us(gt, g) + key, m))
                }
                _ => {}
            }
        }
        best
    }
}

#[inline]
fn is_set(bits: &[u64], p: PeerId) -> bool {
    bits.get(p.idx() / 64)
        .is_some_and(|w| w & (1 << (p.idx() % 64)) != 0)
}

impl<'w, W: WorldStore + ?Sized> NearestIndex<'w, W> {
    /// Index `members` (any order; repeats allowed) over `store`.
    /// O(members + shards).
    ///
    /// # Panics
    /// Panics if a member id is not a peer of `store`.
    pub fn build(store: &'w W, members: Vec<PeerId>) -> NearestIndex<'w, W> {
        let mut present = vec![0u64; store.len().div_ceil(64)];
        let mut repeats = false;
        for &m in &members {
            let (word, bit) = (m.idx() / 64, 1u64 << (m.idx() % 64));
            repeats |= present[word] & bit != 0;
            present[word] |= bit;
        }
        let hubs = store
            .shard_view()
            .map(|view| HubMinima::build(view, &members));
        NearestIndex {
            store,
            members,
            present,
            repeats,
            hubs,
        }
    }

    /// The store the index was built over.
    pub(crate) fn store(&self) -> &'w W {
        self.store
    }

    /// The indexed members, in the order given to
    /// [`NearestIndex::build`].
    pub(crate) fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// The member nearest to `t`, excluding `t` itself; ties broken by
    /// lowest id; `None` if no member other than `t` exists. Equal to
    /// `store.nearest_within(t, members)`.
    pub fn nearest(&self, t: PeerId) -> Option<PeerId> {
        match &self.hubs {
            Some(h) => h.nearest(t, &self.present).map(|(_, m)| m),
            None => self.store.nearest_within(t, &self.members),
        }
    }

    /// How many member entries are not `t`: the probes a brute-force
    /// sweep from every member to `t` sends.
    pub(crate) fn others(&self, t: PeerId) -> u64 {
        let own = if self.repeats {
            self.members.iter().filter(|&&m| m == t).count()
        } else {
            usize::from(is_set(&self.present, t))
        };
        (self.members.len() - own) as u64
    }

    /// Is `world` the very store object this index was built over? A
    /// different object (say, a drifted wrapper around it) may place
    /// the members elsewhere, so the index does not answer for it.
    pub(crate) fn is_over(&self, world: &dyn WorldStore) -> bool {
        std::ptr::addr_eq(self.store as *const W, world as *const dyn WorldStore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DriftedWorld, LatencyMatrix};
    use np_util::Micros;

    #[test]
    fn others_counts_every_entry_but_the_target() {
        let m = LatencyMatrix::build(6, |a, b| Micros(u64::from(a.0.abs_diff(b.0))));
        let index = NearestIndex::build(&m, vec![PeerId(1), PeerId(2), PeerId(4)]);
        assert_eq!(index.others(PeerId(2)), 2);
        assert_eq!(index.others(PeerId(5)), 3);
        let repeated = NearestIndex::build(&m, vec![PeerId(2), PeerId(1), PeerId(2)]);
        assert_eq!(repeated.others(PeerId(2)), 1);
        assert_eq!(repeated.others(PeerId(0)), 3);
        assert_eq!(repeated.nearest(PeerId(2)), Some(PeerId(1)));
    }

    #[test]
    fn is_over_tells_the_store_from_a_wrapper() {
        let m = LatencyMatrix::build(4, |a, b| Micros(u64::from(a.0.abs_diff(b.0))));
        let off = vec![0u64; 4];
        let drifted = DriftedWorld::new(&m, &off);
        let index = NearestIndex::build(&m, vec![PeerId(0), PeerId(1)]);
        assert!(index.is_over(&m));
        assert!(!index.is_over(&drifted));
    }
}
