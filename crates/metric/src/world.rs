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
//! nearest/k-NN queries — so the dense matrix and the compressed
//! [`crate::HierarchicalWorld`] interchange freely.
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

use crate::hierarchical::HierarchicalWorld;
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
    /// the compressed backend exists to shrink. Capacity telemetry only.
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
    /// (and any other flat backend) returns `None`; the compressed
    /// [`HierarchicalWorld`] returns itself. This is the bridge that
    /// lets a consumer holding a `&dyn WorldStore` discover shard
    /// locality — [`crate::NearestIndex`], behind truth caches and
    /// brute force — without the algorithm stack going generic over
    /// the backend.
    fn shard_view(&self) -> Option<&HierarchicalWorld> {
        None
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
