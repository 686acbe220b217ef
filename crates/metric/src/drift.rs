//! Bounded RTT drift as an overlay over any latency backend.
//!
//! Churn scenarios let peer latencies wander over simulated time. The
//! model is *additive per-peer offsets*: every peer carries an access
//! penalty `off(p) ≥ 0` µs (last-mile congestion, load) and the
//! drifted RTT is `rtt'(a, b) = rtt(a, b) + off(a) + off(b)` (zero on
//! the diagonal). Two properties make this the right shape for the
//! reproduction:
//!
//! * it preserves symmetry and the zero diagonal, so [`DriftedWorld`]
//!   is a lawful [`WorldStore`] over any backend;
//! * a target's offset shifts *all* of its member distances by the
//!   same constant, so only the **members'** offsets can change who is
//!   nearest — which is exactly what makes the incremental
//!   [`crate::NearestCache`] maintenance in `np-core`'s churn driver
//!   sound: redrawing `off(p)` perturbs only peer `p`'s column.
//!
//! All arithmetic is exact integer µs; no float accumulates.

use crate::matrix::PeerId;
use crate::world::WorldStore;
use np_util::Micros;

/// A latency backend plus per-peer additive drift offsets (µs).
///
/// Borrows both the inner store and the offset table, so churn drivers
/// can rebind one wrapper per epoch at zero copy cost.
pub struct DriftedWorld<'w> {
    inner: &'w dyn WorldStore,
    offsets_us: &'w [u64],
}

impl<'w> DriftedWorld<'w> {
    /// Wrap `inner` with `offsets_us` (one entry per peer id; must
    /// cover `inner.len()`).
    pub fn new(inner: &'w dyn WorldStore, offsets_us: &'w [u64]) -> DriftedWorld<'w> {
        assert!(
            offsets_us.len() >= inner.len(),
            "offset table covers {} of {} peers",
            offsets_us.len(),
            inner.len()
        );
        DriftedWorld { inner, offsets_us }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &'w dyn WorldStore {
        self.inner
    }
}

impl WorldStore for DriftedWorld<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn rtt(&self, a: PeerId, b: PeerId) -> Micros {
        if a == b {
            return Micros::ZERO;
        }
        self.inner.rtt(a, b)
            + Micros::from_us(self.offsets_us[a.0 as usize] + self.offsets_us[b.0 as usize])
    }

    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes() + std::mem::size_of_val(self.offsets_us)
    }

    // Deliberately no `shard_view` override: drifted distances violate
    // the shard store's hub-sum reconstruction, so its consumer
    // (`NearestIndex`) must not engage through this wrapper (the
    // default `None` keeps it off).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LatencyMatrix;

    fn line(n: usize) -> LatencyMatrix {
        LatencyMatrix::build(n, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        })
    }

    #[test]
    fn drift_is_additive_symmetric_zero_diagonal() {
        let m = line(6);
        let off = vec![0u64, 100, 0, 250, 0, 0];
        let d = DriftedWorld::new(&m, &off);
        assert_eq!(d.len(), 6);
        assert_eq!(d.rtt(PeerId(1), PeerId(1)), Micros::ZERO);
        assert_eq!(
            d.rtt(PeerId(1), PeerId(3)),
            Micros::from_ms_u64(2) + Micros::from_us(350)
        );
        assert_eq!(d.rtt(PeerId(1), PeerId(3)), d.rtt(PeerId(3), PeerId(1)));
        // Zero-offset pairs read through unchanged.
        assert_eq!(d.rtt(PeerId(0), PeerId(4)), m.rtt(PeerId(0), PeerId(4)));
    }

    #[test]
    fn zero_offsets_are_an_identity_wrapper() {
        let m = line(8);
        let off = vec![0u64; 8];
        let d = DriftedWorld::new(&m, &off);
        let members: Vec<PeerId> = (0..8).map(PeerId).collect();
        for a in 0..8u32 {
            for b in 0..8u32 {
                assert_eq!(d.rtt(PeerId(a), PeerId(b)), m.rtt(PeerId(a), PeerId(b)));
            }
            assert_eq!(
                d.nearest_within(PeerId(a), &members),
                m.nearest_within(PeerId(a), &members)
            );
        }
    }

    #[test]
    fn member_offset_can_change_the_nearest() {
        let m = line(4);
        // Peer 1 is target 0's nearest until its offset penalises it
        // past peer 2.
        let calm = vec![0u64; 4];
        let loaded = vec![0u64, 1_500, 0, 0];
        let members = [PeerId(1), PeerId(2), PeerId(3)];
        assert_eq!(
            DriftedWorld::new(&m, &calm).nearest_within(PeerId(0), &members),
            Some(PeerId(1))
        );
        assert_eq!(
            DriftedWorld::new(&m, &loaded).nearest_within(PeerId(0), &members),
            Some(PeerId(2))
        );
    }

    #[test]
    fn no_shard_view_leaks_through() {
        let m = line(4);
        let off = vec![0u64; 4];
        let d = DriftedWorld::new(&m, &off);
        assert!(d.shard_view().is_none());
    }
}
