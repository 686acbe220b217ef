//! The latency-backend abstraction.
//!
//! The paper's simulations consume one object: "an inter-peer latency
//! matrix with about 2500 peers". At that scale a dense `n×n` `f32`
//! array ([`crate::LatencyMatrix`]) is 25 MB and ideal; at the
//! production scales the ROADMAP targets it is quadratic death — 40 GB
//! at 100 k peers. [`WorldStore`] abstracts what every consumer (the
//! probe-counted [`crate::Target`], the ground-truth
//! [`crate::NearestCache`], the Meridian overlay fill, the batch query
//! runner) actually needs — peer count, pairwise RTT, and the derived
//! nearest/k-NN queries — so dense and block-compressed backends
//! ([`crate::ShardedWorld`]) interchange freely.
//!
//! The trait is object-safe on purpose: [`crate::Target`] holds a
//! `&dyn WorldStore`, which keeps every `NearestPeerAlgo`
//! implementation backend-agnostic without turning the whole algorithm
//! stack generic.
//!
//! # Contract
//!
//! * `rtt` is symmetric with a zero diagonal, finite, and expressed in
//!   whole microseconds (it came out of [`Micros`]);
//! * peer ids are dense: `0..len()`;
//! * `nearest_within` and friends must agree exactly with a scalar scan
//!   over `rtt` with ties broken by lowest [`PeerId`] — the provided
//!   defaults guarantee this by construction, and the fast paths are
//!   property-tested against the defaults: the dense row gather
//!   (an override) and [`crate::NearestIndex`], the shard-grouped
//!   index the truth cache and brute force answer through
//!   (`tests/world_equivalence.rs`, via a wrapper store that keeps
//!   the default).

use crate::matrix::PeerId;
use crate::scan;
use np_util::Micros;

/// A queryable latency world: the backend behind scenarios, targets,
/// overlays and ground-truth caches.
pub trait WorldStore: Sync {
    /// Number of peers; ids are `0..len()`.
    fn len(&self) -> usize;

    /// Round-trip latency between two peers (zero on the diagonal).
    fn rtt(&self, a: PeerId, b: PeerId) -> Micros;

    /// Approximate heap footprint of the backend in bytes — the number
    /// the sharded backend exists to shrink. Capacity telemetry only.
    fn approx_bytes(&self) -> usize;

    /// True iff the world holds no peers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nearest peer to `target` **within `members`**, excluding
    /// `target` itself; ties broken by lowest id; `None` if `members`
    /// contains no other peer.
    ///
    /// Default: gather the member distances (whole-µs values are exact
    /// in `f32`) and run the shared [`scan`] kernel.
    fn nearest_within(&self, target: PeerId, members: &[PeerId]) -> Option<PeerId> {
        let dists: Vec<f32> = members
            .iter()
            .map(|&m| {
                if m == target {
                    f32::INFINITY
                } else {
                    self.rtt(target, m).as_us() as f32
                }
            })
            .collect();
        scan::nearest_in(&dists, members)
    }

    /// The `k` nearest peers to `target` within `members` (ascending
    /// RTT, ties by id), excluding `target`.
    fn knn_within(&self, target: PeerId, members: &[PeerId], k: usize) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = members.iter().copied().filter(|&m| m != target).collect();
        v.sort_by_key(|&m| (self.rtt(target, m), m));
        v.truncate(k);
        v
    }

    /// Largest pairwise RTT — the metric-space diameter the §2.2
    /// diagnostics normalise against. Default scans all pairs (O(n²)
    /// `rtt` calls); the dense backend overrides with a flat array max.
    fn diameter(&self) -> Micros {
        let n = self.len() as u32;
        let mut max = Micros::ZERO;
        for a in 0..n {
            for b in (a + 1)..n {
                let d = self.rtt(PeerId(a), PeerId(b));
                if d > max {
                    max = d;
                }
            }
        }
        max
    }

    /// The backend's shard structure, when it has one. The dense matrix
    /// (and any other flat backend) returns `None`; the block-compressed
    /// [`crate::ShardedWorld`] returns itself. This is the object-safe
    /// bridge that lets consumers holding a `&dyn WorldStore` (the
    /// experiment factories) discover shard locality — e.g. the Meridian
    /// shard-local overlay fill and [`crate::NearestIndex`] — without
    /// the algorithm stack going generic over the backend.
    fn shard_view(&self) -> Option<&dyn ShardView> {
        None
    }
}

/// Shard structure exposed by block-compressed backends: membership and
/// iteration (`shard_of`, `shard_members`), the hub summary the
/// inter-shard distances are reassembled from, and the per-shard hub
/// ids. Everything a *shard-local* consumer needs to reproduce
/// [`WorldStore::rtt`] without touching a dense row:
///
/// * intra-shard pairs read the shard's dense block (via
///   [`WorldStore::rtt`], which is O(1) there);
/// * inter-shard pairs are `hub_offset_us(a) + hub_rtt_us(s(a), s(b)) +
///   hub_offset_us(b)` — **exactly** the `u64` microsecond sum `rtt`
///   computes, so shard-local reconstruction is bit-identical, not
///   approximate.
pub trait ShardView: WorldStore {
    /// Number of shards.
    fn n_shards(&self) -> usize;

    /// The shard a peer belongs to.
    fn shard_of(&self, p: PeerId) -> usize;

    /// Members of one shard, ascending id.
    fn shard_members(&self, shard: usize) -> &[PeerId];

    /// Peer → its shard hub latency in whole µs (the stored component,
    /// truncated exactly as [`WorldStore::rtt`] sums it).
    fn hub_offset_us(&self, p: PeerId) -> u64;

    /// Hub-to-hub latency in whole µs (zero on the diagonal).
    fn hub_rtt_us(&self, a: usize, b: usize) -> u64;

    /// The shard's hub id: the member closest to its hub (minimum
    /// offset, ties by lowest id). For worlds built by
    /// `ShardedWorld::compress` this is the medoid itself (offset 0);
    /// `None` for an empty shard.
    fn hub_peer(&self, shard: usize) -> Option<PeerId>;

    // ---- Level 2: super-shard structure -------------------------------
    //
    // Two-level backends (`crate::HierarchicalWorld`) group shards into
    // super-shards and reassemble *hub-to-hub* distances for shards in
    // different groups as
    //
    //   hub_rtt_us(a, b) == super_offset_us(a)
    //                     + super_rtt_us(super_of(a), super_of(b))
    //                     + super_offset_us(b)
    //
    // **exactly**, as a `u64` microsecond sum. Because the composition
    // happens *inside* `hub_rtt_us`, level-1 consumers (the shard-local
    // Meridian fill, the spill-detour analysis) keep working verbatim —
    // they never need to know a second level exists; `NearestIndex`
    // reads the components below to keep one candidate per
    // super-shard. One-level backends are, by these defaults, a single
    // super-shard containing every shard, with all level-2 components
    // zero.

    /// Number of super-shards. One-level backends are one big group.
    fn n_super_shards(&self) -> usize {
        1
    }

    /// The super-shard a shard belongs to.
    fn super_of(&self, _shard: usize) -> usize {
        0
    }

    /// Shard hub → its super-hub latency in whole µs (the stored
    /// level-2 component; zero for a one-level backend).
    fn super_offset_us(&self, _shard: usize) -> u64 {
        0
    }

    /// Super-hub-to-super-hub latency in whole µs (zero diagonal; zero
    /// everywhere for a one-level backend).
    fn super_rtt_us(&self, _a: usize, _b: usize) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal hand-rolled backend exercising only the defaults.
    struct RingWorld(usize);

    impl WorldStore for RingWorld {
        fn len(&self) -> usize {
            self.0
        }
        fn rtt(&self, a: PeerId, b: PeerId) -> Micros {
            let d = (a.0 as i64 - b.0 as i64).unsigned_abs();
            Micros::from_ms_u64(d.min(self.0 as u64 - d))
        }
        fn approx_bytes(&self) -> usize {
            std::mem::size_of::<usize>()
        }
    }

    #[test]
    fn default_nearest_excludes_target_and_breaks_ties_low() {
        let w = RingWorld(10);
        let members: Vec<PeerId> = (0..10).map(PeerId).collect();
        // Peer 5's ring neighbours 4 and 6 are equidistant; lowest wins.
        assert_eq!(w.nearest_within(PeerId(5), &members), Some(PeerId(4)));
        // Wrap-around: 0's neighbours are 1 and 9, both at 1 ms.
        assert_eq!(w.nearest_within(PeerId(0), &members), Some(PeerId(1)));
        assert_eq!(w.nearest_within(PeerId(3), &[PeerId(3)]), None);
        assert!(!w.is_empty());
    }

    #[test]
    fn default_knn_sorts_by_rtt_then_id() {
        let w = RingWorld(8);
        let members: Vec<PeerId> = (0..8).map(PeerId).collect();
        assert_eq!(
            w.knn_within(PeerId(0), &members, 3),
            vec![PeerId(1), PeerId(7), PeerId(2)]
        );
    }

    #[test]
    fn dyn_object_usable() {
        let w = RingWorld(4);
        let dynw: &dyn WorldStore = &w;
        assert_eq!(dynw.len(), 4);
        assert_eq!(dynw.rtt(PeerId(1), PeerId(2)), Micros::from_ms_u64(1));
    }
}
