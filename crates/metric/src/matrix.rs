//! Dense symmetric latency matrices.
//!
//! The Meridian simulations of paper §4 run over an "inter-peer latency
//! matrix with about 2500 peers"; this is that object. Storage is a full
//! `n×n` array of `f32` milliseconds-as-µs (u32 would also fit, but f32
//! keeps interop with the diagnostics cheap) — at the paper's scale
//! (2.5 k peers) that is 25 MB, well within laptop budgets, and O(1)
//! access is what the query simulators need.

use crate::scan;
use crate::world::WorldStore;
use np_util::parallel::par_for_rows;
use np_util::Micros;

/// Index of a peer in a latency matrix / world.
///
/// A plain newtype over `u32`: worlds at paper scale have at most a few
/// hundred thousand peers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The matrix row index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

/// A dense symmetric matrix of round-trip latencies with zero diagonal.
#[derive(Clone)]
pub struct LatencyMatrix {
    n: usize,
    /// Row-major full storage, µs as f32. Symmetry is maintained by the
    /// constructors; `debug_validate` checks it.
    data: Vec<f32>,
}

impl LatencyMatrix {
    /// Build from a pairwise latency function (called once per unordered
    /// pair `i < j`).
    pub fn build(n: usize, mut rtt: impl FnMut(PeerId, PeerId) -> Micros) -> LatencyMatrix {
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = rtt(PeerId(i as u32), PeerId(j as u32)).as_us() as f32;
                data[i * n + j] = v;
                data[j * n + i] = v;
            }
        }
        LatencyMatrix { n, data }
    }

    /// Parallel [`LatencyMatrix::build`]: row-blocked construction on
    /// `threads` workers.
    ///
    /// Produces a matrix **bit-identical** to `build` with the same
    /// `rtt` function: each worker claims whole rows and computes only
    /// the strictly-upper entries of its rows (so no unordered pair is
    /// ever computed twice, exactly like the serial constructor); the
    /// lower triangle is then mirrored in one cache-friendly pass.
    ///
    /// Unlike `build`, the latency function must be pure (`Fn`, not
    /// `FnMut`) and `Sync`: a stateful closure (say, one drawing from a
    /// shared RNG) would make row values depend on scheduling order.
    /// World generators satisfy this by materialising randomness up
    /// front and closing over the finished world — see
    /// `ClusterWorld::to_matrix`.
    pub fn build_par(
        n: usize,
        threads: usize,
        rtt: impl Fn(PeerId, PeerId) -> Micros + Sync,
    ) -> LatencyMatrix {
        let mut data = vec![0.0f32; n * n];
        par_for_rows(threads, &mut data, n.max(1), |i, row| {
            for (j, cell) in row.iter_mut().enumerate().skip(i + 1) {
                *cell = rtt(PeerId(i as u32), PeerId(j as u32)).as_us() as f32;
            }
        });
        // Mirror the upper triangle; memory-bound, so serial is fine.
        for i in 0..n {
            for j in (i + 1)..n {
                data[j * n + i] = data[i * n + j];
            }
        }
        LatencyMatrix { n, data }
    }

    /// Number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// RTT between two peers (zero on the diagonal).
    #[inline]
    pub fn rtt(&self, a: PeerId, b: PeerId) -> Micros {
        Micros(self.data[a.idx() * self.n + b.idx()] as u64)
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.n as u32).map(PeerId)
    }

    /// The nearest peer to `target` **within `members`**, excluding
    /// `target` itself. Ties broken by lowest id (deterministic). `None`
    /// if `members` contains no other peer.
    ///
    /// This is the ground truth the paper's "P(found peer is correct
    /// closest peer)" compares against: the target node is outside the
    /// overlay and `members` is the overlay.
    ///
    /// Implementation: gather the members' cells straight out of the
    /// target's row and run the shared auto-vectorized
    /// [`scan::nearest_in`] kernel (cells are whole microseconds, so
    /// f32 comparison coincides with the `Micros` ordering).
    pub fn nearest_within(&self, target: PeerId, members: &[PeerId]) -> Option<PeerId> {
        let row = &self.data[target.idx() * self.n..][..self.n];
        let dists: Vec<f32> = members
            .iter()
            .map(|&m| if m == target { f32::INFINITY } else { row[m.idx()] })
            .collect();
        scan::nearest_in(&dists, members)
    }

    /// The `k` nearest peers to `target` within `members` (ascending RTT,
    /// ties by id), excluding `target`.
    pub fn knn_within(&self, target: PeerId, members: &[PeerId], k: usize) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = members.iter().copied().filter(|&m| m != target).collect();
        v.sort_by_key(|&m| (self.rtt(target, m), m));
        v.truncate(k);
        v
    }

    /// Median RTT over all unordered pairs (reservoir-free exact
    /// computation; O(n²) values). Used to calibrate the synthetic hub
    /// matrix against the Meridian dataset's ≈65 ms median.
    pub fn median_pair_rtt(&self) -> Option<Micros> {
        if self.n < 2 {
            return None;
        }
        let mut v: Vec<u64> = Vec::with_capacity(self.n * (self.n - 1) / 2);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                v.push(self.data[i * self.n + j] as u64);
            }
        }
        v.sort_unstable();
        Some(Micros(v[v.len() / 2]))
    }

    /// Check symmetry and zero diagonal; used by tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        for i in 0..self.n {
            if self.data[i * self.n + i] != 0.0 {
                return Err(format!("non-zero diagonal at {i}"));
            }
            for j in (i + 1)..self.n {
                let a = self.data[i * self.n + j];
                let b = self.data[j * self.n + i];
                if a != b {
                    return Err(format!("asymmetry at ({i},{j}): {a} vs {b}"));
                }
                if a < 0.0 || !a.is_finite() {
                    return Err(format!("invalid latency at ({i},{j}): {a}"));
                }
            }
        }
        Ok(())
    }

    /// Maximum over all pairs (diameter of the space).
    pub fn diameter(&self) -> Micros {
        let mut max = 0.0f32;
        for &v in &self.data {
            if v > max {
                max = v;
            }
        }
        Micros(max as u64)
    }
}

impl WorldStore for LatencyMatrix {
    fn len(&self) -> usize {
        self.n
    }

    fn diameter(&self) -> Micros {
        // The inherent flat-array scan, not the trait's O(n²) default.
        LatencyMatrix::diameter(self)
    }

    #[inline]
    fn rtt(&self, a: PeerId, b: PeerId) -> Micros {
        LatencyMatrix::rtt(self, a, b)
    }

    fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    // The derived queries delegate to the inherent row-based
    // implementations (the gather skips the f32→u64→f32 round-trip the
    // trait default pays; for whole-µs cells the results are identical).
    fn nearest_within(&self, target: PeerId, members: &[PeerId]) -> Option<PeerId> {
        LatencyMatrix::nearest_within(self, target, members)
    }

    fn knn_within(&self, target: PeerId, members: &[PeerId], k: usize) -> Vec<PeerId> {
        LatencyMatrix::knn_within(self, target, members, k)
    }
}

impl std::fmt::Debug for LatencyMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyMatrix({} peers)", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_matrix(n: usize) -> LatencyMatrix {
        // Peers on a line, 1 ms apart: rtt(i,j) = |i-j| ms.
        LatencyMatrix::build(n, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        })
    }

    #[test]
    fn build_is_symmetric_with_zero_diagonal() {
        let m = line_matrix(8);
        m.validate().expect("valid");
        assert_eq!(m.rtt(PeerId(2), PeerId(5)), Micros::from_ms_u64(3));
        assert_eq!(m.rtt(PeerId(5), PeerId(2)), Micros::from_ms_u64(3));
        assert_eq!(m.rtt(PeerId(4), PeerId(4)), Micros::ZERO);
    }

    #[test]
    fn nearest_within_excludes_target_and_breaks_ties_by_id() {
        let m = line_matrix(10);
        let members: Vec<PeerId> = (0..10).map(PeerId).collect();
        // Peer 5's neighbours 4 and 6 are equidistant; lowest id wins.
        assert_eq!(m.nearest_within(PeerId(5), &members), Some(PeerId(4)));
        // Target not in members still works.
        let sub = [PeerId(0), PeerId(9)];
        assert_eq!(m.nearest_within(PeerId(2), &sub), Some(PeerId(0)));
        // No other member -> None.
        assert_eq!(m.nearest_within(PeerId(3), &[PeerId(3)]), None);
    }

    #[test]
    fn knn_is_sorted_ascending() {
        let m = line_matrix(10);
        let members: Vec<PeerId> = (0..10).map(PeerId).collect();
        let knn = m.knn_within(PeerId(0), &members, 3);
        assert_eq!(knn, vec![PeerId(1), PeerId(2), PeerId(3)]);
    }

    #[test]
    fn build_par_matches_build_exactly() {
        // Non-trivial latency structure (not just |i-j|) so a row/column
        // mix-up or double-computed pair would show.
        let rtt = |a: PeerId, b: PeerId| {
            Micros((a.0 as u64 * 7919 + b.0 as u64 * 104_729) % 50_000 + (a.0 ^ b.0) as u64)
        };
        // Symmetrise: the constructors call rtt once per unordered pair
        // with a < b, so wrap to make the function order-insensitive.
        let sym = |a: PeerId, b: PeerId| {
            let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
            rtt(lo, hi)
        };
        for n in [0, 1, 2, 17, 64] {
            let serial = LatencyMatrix::build(n, sym);
            for threads in [1, 3, 8] {
                let par = LatencyMatrix::build_par(n, threads, sym);
                assert_eq!(par.n, serial.n);
                assert_eq!(par.data, serial.data, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn build_par_is_valid_symmetric() {
        let m = LatencyMatrix::build_par(23, 4, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        });
        m.validate().expect("valid");
    }

    #[test]
    fn median_and_diameter() {
        let m = line_matrix(3); // pairs: 1, 1, 2 ms -> median 1 ms
        assert_eq!(m.median_pair_rtt(), Some(Micros::from_ms_u64(1)));
        assert_eq!(m.diameter(), Micros::from_ms_u64(2));
        assert_eq!(line_matrix(1).median_pair_rtt(), None);
    }

    proptest::proptest! {
        /// nearest_within always returns the true minimum.
        #[test]
        fn prop_nearest_is_minimum(
            lat in proptest::collection::vec(0u64..10_000, 36),
        ) {
            // A random 9-peer symmetric matrix: `build` asks for the 36
            // upper-triangle pairs once each, row by row.
            let n = 9usize;
            let mut it = lat.into_iter();
            let m = LatencyMatrix::build(n, |_, _| Micros(it.next().expect("enough entries")));
            m.validate().expect("valid");
            let members: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
            for t in 0..n as u32 {
                let t = PeerId(t);
                let found = m.nearest_within(t, &members).expect("others exist");
                let best = members.iter().copied().filter(|&p| p != t)
                    .map(|p| m.rtt(t, p)).min().expect("non-empty");
                proptest::prop_assert_eq!(m.rtt(t, found), best);
            }
        }
    }
}
