//! Precomputed ground truth for batches of queries.
//!
//! The runner checks every query outcome against the true nearest
//! overlay member of its target. Computing that truth is an O(overlay)
//! scan — repeated for every one of thousands of queries over only
//! ~100 distinct reused targets, it dominated the runner's profile.
//! [`NearestCache`] hoists the scan out of the query loop: one parallel
//! pass over the distinct targets up front, O(1) lookups afterwards.
//! Each target's answer comes from one shared [`NearestIndex`], so on
//! the hub-model backends the pass costs O(shards) per target, not
//! O(overlay).

use crate::index::NearestIndex;
use crate::matrix::PeerId;
use crate::world::WorldStore;
use np_util::parallel::par_map;
use std::collections::HashMap;

/// Ground-truth `target → nearest member` map, built once per scenario.
#[derive(Debug, Clone)]
pub struct NearestCache {
    nearest: HashMap<PeerId, PeerId>,
}

impl NearestCache {
    /// Precompute the true nearest member (ties by lowest id, matching
    /// [`WorldStore::nearest_within`]) for every target, querying one
    /// [`NearestIndex`] over `members` for the targets in parallel on
    /// `threads` workers. Works over any latency backend — dense
    /// matrix or compressed world.
    ///
    /// Each target's query is independent and reads only the shared
    /// index and world, so the result is identical at any thread
    /// count.
    ///
    /// # Panics
    /// Panics if `members` contains no peer other than some target
    /// (a scenario with an empty overlay is a bug upstream).
    pub fn build<W: WorldStore + ?Sized>(
        world: &W,
        members: &[PeerId],
        targets: &[PeerId],
        threads: usize,
    ) -> NearestCache {
        let index = NearestIndex::build(world, members.to_vec());
        let pairs = par_map(threads, targets, |_, &t| {
            let n = index
                .nearest(t)
                .expect("overlay has at least one non-target member");
            (t, n)
        });
        NearestCache {
            nearest: pairs.into_iter().collect(),
        }
    }

    /// The cached true nearest member of `target`; `None` if `target`
    /// was not in the build set.
    pub fn nearest(&self, target: PeerId) -> Option<PeerId> {
        self.nearest.get(&target).copied()
    }

    /// Incremental maintenance, eviction side: `peer` left the overlay
    /// (or its latencies drifted). Targets whose cached answer is
    /// `peer` rescan over `members` — the *current* membership,
    /// excluding `peer` after a leave, still including it after a
    /// drift — through `world` (the current, possibly drifted,
    /// backend). Targets pointing elsewhere keep an argmin that the
    /// change cannot have disturbed, so the result is bit-identical to
    /// a fresh [`NearestCache::build`] over `(world, members)`.
    ///
    /// # Panics
    /// Panics if a rescan finds no candidate (`members` must retain a
    /// non-target peer).
    pub fn evict_member<W: WorldStore + ?Sized>(
        &mut self,
        world: &W,
        members: &[PeerId],
        peer: PeerId,
    ) {
        // np-lint: allow(D1) — independent per-entry argmin rescan; visit order cannot reach results
        for (&t, best) in self.nearest.iter_mut() {
            if *best == peer {
                *best = world
                    .nearest_within(t, members)
                    .expect("overlay keeps at least one non-target member");
            }
        }
    }

    /// Incremental maintenance, admission side: `peer` joined the
    /// overlay (or finished drifting). Each cached answer is compared
    /// against `peer`'s current distance, with the same lowest-id tie
    /// break as [`WorldStore::nearest_within`], so the result matches
    /// a fresh build exactly. For a drift, call
    /// [`NearestCache::evict_member`] (with `peer` still in `members`)
    /// first, then this.
    pub fn admit_member<W: WorldStore + ?Sized>(&mut self, world: &W, peer: PeerId) {
        // np-lint: allow(D1) — independent per-entry argmin update; visit order cannot reach results
        for (&t, best) in self.nearest.iter_mut() {
            if t == peer || *best == peer {
                continue;
            }
            let d = world.rtt(t, peer);
            let bd = world.rtt(t, *best);
            if d < bd || (d == bd && peer < *best) {
                *best = peer;
            }
        }
    }

    /// Number of cached targets.
    pub fn len(&self) -> usize {
        self.nearest.len()
    }

    /// True iff no targets were cached.
    pub fn is_empty(&self) -> bool {
        self.nearest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LatencyMatrix;
    use np_util::Micros;

    fn line_matrix(n: usize) -> LatencyMatrix {
        LatencyMatrix::build(n, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        })
    }

    #[test]
    fn cache_matches_direct_scan_at_any_thread_count() {
        let m = line_matrix(64);
        let members: Vec<PeerId> = (0..48).map(PeerId).collect();
        let targets: Vec<PeerId> = (48..64).map(PeerId).collect();
        let serial = NearestCache::build(&m, &members, &targets, 1);
        for threads in [2, 8] {
            let par = NearestCache::build(&m, &members, &targets, threads);
            for &t in &targets {
                assert_eq!(par.nearest(t), serial.nearest(t));
                assert_eq!(par.nearest(t), m.nearest_within(t, &members));
            }
        }
        assert_eq!(serial.len(), targets.len());
    }

    #[test]
    fn unknown_target_is_none() {
        let m = line_matrix(8);
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let cache = NearestCache::build(&m, &members, &[PeerId(5)], 1);
        assert_eq!(cache.nearest(PeerId(6)), None);
        assert_eq!(cache.nearest(PeerId(5)), Some(PeerId(3)));
        assert!(!cache.is_empty());
    }

    #[test]
    fn evict_matches_fresh_build_after_leaves() {
        let m = line_matrix(40);
        let mut members: Vec<PeerId> = (0..30).map(PeerId).collect();
        let targets: Vec<PeerId> = (30..40).map(PeerId).collect();
        let mut cache = NearestCache::build(&m, &members, &targets, 2);
        // Remove the peers closest to the targets — the worst case for
        // an incremental rescan.
        for dead in [29u32, 28, 27] {
            let p = PeerId(dead);
            members.retain(|&q| q != p);
            cache.evict_member(&m, &members, p);
            let fresh = NearestCache::build(&m, &members, &targets, 1);
            for &t in &targets {
                assert_eq!(cache.nearest(t), fresh.nearest(t), "after removing {p}");
            }
        }
    }

    #[test]
    fn admit_matches_fresh_build_after_joins() {
        let m = line_matrix(40);
        let mut members: Vec<PeerId> = (0..25).map(PeerId).collect();
        let targets: Vec<PeerId> = (30..40).map(PeerId).collect();
        let mut cache = NearestCache::build(&m, &members, &targets, 1);
        for newcomer in [29u32, 25, 28] {
            let p = PeerId(newcomer);
            members.push(p);
            members.sort_unstable();
            cache.admit_member(&m, p);
            let fresh = NearestCache::build(&m, &members, &targets, 2);
            for &t in &targets {
                assert_eq!(cache.nearest(t), fresh.nearest(t), "after admitting {p}");
            }
        }
    }

    #[test]
    fn drift_refresh_is_evict_then_admit() {
        use crate::drift::DriftedWorld;
        let m = line_matrix(20);
        let members: Vec<PeerId> = (0..15).map(PeerId).collect();
        let targets: Vec<PeerId> = (15..20).map(PeerId).collect();
        let mut off = vec![0u64; 20];
        let mut cache = {
            let w = DriftedWorld::new(&m, &off);
            NearestCache::build(&w, &members, &targets, 1)
        };
        // Penalise peer 14 (the nearest of target 15) heavily, then
        // relax it again; the incremental refresh must track the fresh
        // build at every step.
        for penalty in [5_000u64, 0, 900] {
            off[14] = penalty;
            let w = DriftedWorld::new(&m, &off);
            cache.evict_member(&w, &members, PeerId(14));
            cache.admit_member(&w, PeerId(14));
            let fresh = NearestCache::build(&w, &members, &targets, 2);
            for &t in &targets {
                assert_eq!(cache.nearest(t), fresh.nearest(t), "at penalty {penalty}");
            }
        }
    }

    #[test]
    fn empty_targets_build_empty_cache() {
        let m = line_matrix(4);
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let cache = NearestCache::build(&m, &members, &[], 4);
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
    }
}
