//! The shared nearest-scan kernel.
//!
//! Every full-row nearest query in the workspace — dense
//! [`crate::LatencyMatrix::nearest_within`] and the
//! [`crate::WorldStore`] default implementation that
//! [`crate::HierarchicalWorld`] and [`crate::DriftedWorld`] inherit —
//! bottoms out in the same
//! operation: *argmin over a gathered `f32` distance row, ties broken
//! by lowest [`PeerId`]*. This module is that one kernel, written so
//! the hot reduction auto-vectorizes.
//!
//! [`crate::NearestIndex`] (behind [`crate::NearestCache`] and
//! brute force) calls it only on stores without shard structure — on
//! the dense matrix, through the row gather. On the compressed store it
//! answers from per-shard minima instead and never gathers a row.
//!
//! # Shape
//!
//! The scan is two passes, both branch-free over `chunks_exact` lanes:
//!
//! 1. [`min_f32`] folds the row into [`LANES`] independent per-lane
//!    minima (no cross-lane dependency, so LLVM lowers the loop to
//!    packed `min` instructions), then reduces the lanes and the
//!    remainder scalar-tail;
//! 2. [`nearest_in`] re-walks the row once comparing against that
//!    minimum and keeps the lowest `PeerId` among the hits.
//!
//! Splitting value-min from id-tie-breaking is what keeps pass 1
//! vectorizable: a fused `(f32, PeerId)` lexicographic min would force
//! scalar compares. Pass 2 is a predictable equality scan that almost
//! never hits more than once.
//!
//! # Exclusions
//!
//! Callers exclude entries (the query target itself, departed members)
//! by gathering `f32::INFINITY` for them; an all-infinite row yields
//! `None`. Latency matrices validate all cells finite, so infinity is
//! unambiguous as a sentinel.
//!
//! # Tie semantics
//!
//! Ties are decided on the raw `f32` values. Every matrix in the
//! workspace stores whole microseconds (cells come from
//! [`np_util::Micros`]), and integral `f32` values survive the
//! `f32 → u64 → f32` round-trip exactly, so f32 equality here coincides
//! with the `Micros` equality the pre-kernel scalar scans used.

use crate::matrix::PeerId;

/// Lane width of the per-lane min fold. Eight `f32`s span a 256-bit
/// vector register; narrower targets simply unroll.
pub const LANES: usize = 8;

/// Minimum of a row of `f32` distances; `f32::INFINITY` on an empty
/// row. NaN-free input is assumed (matrix validation enforces it).
#[inline]
pub fn min_f32(dists: &[f32]) -> f32 {
    let mut lanes = [f32::INFINITY; LANES];
    let chunks = dists.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &d) in lanes.iter_mut().zip(chunk) {
            // `if` rather than `f32::min`: identical on NaN-free input
            // and guaranteed to lower to a packed-min select.
            if d < *lane {
                *lane = d;
            }
        }
    }
    let mut min = f32::INFINITY;
    for &lane in &lanes {
        if lane < min {
            min = lane;
        }
    }
    for &d in tail {
        if d < min {
            min = d;
        }
    }
    min
}

/// The member with the smallest gathered distance, ties broken by
/// lowest [`PeerId`]. `dists[i]` is the distance of `members[i]`;
/// entries gathered as `f32::INFINITY` are excluded. `None` when every
/// entry is excluded (or the row is empty).
///
/// # Panics
/// Panics if `dists` and `members` disagree in length.
pub fn nearest_in(dists: &[f32], members: &[PeerId]) -> Option<PeerId> {
    assert_eq!(
        dists.len(),
        members.len(),
        "distance row and member list must align"
    );
    let min = min_f32(dists);
    if min == f32::INFINITY {
        return None;
    }
    let mut best: Option<PeerId> = None;
    for (&d, &p) in dists.iter().zip(members) {
        if d == min && best.is_none_or(|b| p < b) {
            best = Some(p);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-kernel semantics, verbatim: lexicographic min over
    /// `(distance, id)` with infinite entries excluded.
    fn naive(dists: &[f32], members: &[PeerId]) -> Option<PeerId> {
        dists
            .iter()
            .zip(members)
            .filter(|(d, _)| d.is_finite())
            .map(|(&d, &p)| (d, p))
            .min_by(|a, b| a.partial_cmp(b).expect("NaN-free"))
            .map(|(_, p)| p)
    }

    /// Deterministic pseudo-random f32 distances with heavy duplication
    /// (quantized to 8 levels), so ties are common.
    fn row(len: usize, salt: u64) -> Vec<f32> {
        (0..len as u64)
            .map(|i| {
                let h = (i ^ salt)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17);
                (h % 8) as f32 * 125.0
            })
            .collect()
    }

    #[test]
    fn empty_row_is_none() {
        assert_eq!(min_f32(&[]), f32::INFINITY);
        assert_eq!(nearest_in(&[], &[]), None);
    }

    #[test]
    fn all_excluded_is_none() {
        let dists = [f32::INFINITY; 11];
        let members: Vec<PeerId> = (0..11).map(PeerId).collect();
        assert_eq!(nearest_in(&dists, &members), None);
    }

    /// Satellite regression test: every row length 0..64 (all
    /// `chunks_exact` remainder shapes), member ids deliberately
    /// shuffled so lowest-PeerId ≠ lowest-index, compared against the
    /// naive scalar loop.
    #[test]
    fn matches_naive_scalar_on_all_remainder_shapes() {
        for len in 0..64usize {
            for salt in 0..8u64 {
                let mut dists = row(len, salt);
                // Reverse ids: index 0 holds the HIGHEST id, so any
                // first-index-wins shortcut diverges from lowest-id.
                let members: Vec<PeerId> =
                    (0..len as u32).rev().map(PeerId).collect();
                assert_eq!(
                    nearest_in(&dists, &members),
                    naive(&dists, &members),
                    "len={len} salt={salt}"
                );
                // And with exclusions sprinkled in.
                for i in (0..len).step_by(3) {
                    dists[i] = f32::INFINITY;
                }
                assert_eq!(
                    nearest_in(&dists, &members),
                    naive(&dists, &members),
                    "len={len} salt={salt} (with exclusions)"
                );
            }
        }
    }

    /// Exhaustive tie-breaking: an all-equal row of every length must
    /// return the lowest id regardless of where it sits.
    #[test]
    fn all_tied_rows_pick_lowest_id() {
        for len in 1..64usize {
            let dists = vec![42.0f32; len];
            // Lowest id planted at every possible position.
            for pos in 0..len {
                let members: Vec<PeerId> = (0..len)
                    .map(|i| {
                        if i == pos {
                            PeerId(0)
                        } else {
                            PeerId(i as u32 + 1)
                        }
                    })
                    .collect();
                assert_eq!(
                    nearest_in(&dists, &members),
                    Some(PeerId(0)),
                    "len={len} pos={pos}"
                );
            }
        }
    }

    #[test]
    fn min_in_remainder_tail_is_found() {
        // 9 entries: one full lane chunk + a 1-element tail holding the min.
        let mut dists = vec![100.0f32; 9];
        dists[8] = 1.0;
        let members: Vec<PeerId> = (0..9).map(PeerId).collect();
        assert_eq!(min_f32(&dists), 1.0);
        assert_eq!(nearest_in(&dists, &members), Some(PeerId(8)));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_inputs_panic() {
        nearest_in(&[1.0], &[]);
    }
}
