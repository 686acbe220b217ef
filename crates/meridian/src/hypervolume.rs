//! Simplex hypervolume from pairwise distances, and max-volume subset
//! selection.
//!
//! Meridian's ring management keeps the `k` members (out of `k + l`
//! candidates) that span the largest hypervolume in latency space; the
//! Cayley–Menger determinant computes a simplex's squared volume purely
//! from pairwise distances, which is exactly what a latency matrix
//! provides. Under the clustering condition all candidate subsets become
//! near-degenerate (volume ≈ 0) and the selection loses its power — the
//! argument of §2.3 of the reproduction's paper — which the tests below
//! witness directly.

/// Squared-volume *comparator* for a point set given squared pairwise
/// distances: the Cayley–Menger determinant with the sign normalised so
/// that larger = larger simplex volume.
///
/// For `n` points the CM matrix is `(n+1)×(n+1)`:
///
/// ```text
/// | 0  1    1    ... |
/// | 1  0    d01² ... |
/// | 1  d01² 0    ... |
/// | ...              |
/// ```
///
/// `V² = (-1)^(n) · det(CM) / (2^(n-1) · ((n-1)!)²)` for an
/// `(n-1)`-simplex; the positive constant is irrelevant for comparisons
/// between equal-sized sets, so this function returns
/// `(-1)^n · det(CM)` directly (≥ 0 for any metric input, up to floating
/// error).
pub fn cm_volume_measure(d2: &[Vec<f64>]) -> f64 {
    let n = d2.len();
    let mut scratch = Vec::new();
    cm_volume_measure_flat(n, |i, j| d2[i][j], &mut scratch)
}

/// [`cm_volume_measure`] without per-call allocation: the CM matrix is
/// assembled row-major into `scratch` (grown as needed, reused across
/// calls). Identical arithmetic, identical operation order, identical
/// result bits. It is also the per-set reference that the shared-LU
/// leave-one-out volumes of [`select_max_volume`] reproduce bit for
/// bit.
pub fn cm_volume_measure_flat(
    n: usize,
    d2: impl FnMut(usize, usize) -> f64,
    scratch: &mut Vec<f64>,
) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let m = n + 1;
    assemble_cm(n, d2, scratch);
    signed_measure(n, determinant(scratch, m, 1.0))
}

/// The `(n+1)×(n+1)` Cayley–Menger matrix of `n` points, row-major
/// into `a`.
fn assemble_cm(n: usize, mut d2: impl FnMut(usize, usize) -> f64, a: &mut Vec<f64>) {
    let m = n + 1;
    a.clear();
    a.resize(m * m, 0.0);
    for i in 1..m {
        a[i] = 1.0;
        a[i * m] = 1.0;
    }
    for i in 0..n {
        for j in 0..n {
            a[(i + 1) * m + j + 1] = d2(i, j);
        }
    }
}

/// `(-1)^n · det` for an `n`-point CM determinant.
fn signed_measure(n: usize, det: f64) -> f64 {
    if n.is_multiple_of(2) {
        det
    } else {
        -det
    }
}

/// Partial pivot of column `col` of a row-major `n×n` slice: the first
/// row at or below `col` whose entry has the largest magnitude.
#[inline]
fn pivot_row(a: &[f64], n: usize, col: usize) -> usize {
    let mut pivot = col;
    for row in (col + 1)..n {
        if a[row * n + col].abs() > a[pivot * n + col].abs() {
            pivot = row;
        }
    }
    pivot
}

/// One LU elimination step at column `col` with a nonzero pivot in row
/// `pivot`: swap it into place (negating `det`), fold it into `det`,
/// and subtract its multiples from every row below. Columns left of
/// `col`, and column `col` below the pivot, are never read again, so
/// only columns from `col` on are swapped and only those right of it
/// updated; every live entry sees the same operations as in the
/// textbook loop.
#[inline]
fn eliminate(a: &mut [f64], n: usize, col: usize, pivot: usize, det: &mut f64) {
    if pivot != col {
        let (top, bottom) = a.split_at_mut(pivot * n);
        top[col * n + col..col * n + n].swap_with_slice(&mut bottom[col..n]);
        *det = -*det;
    }
    let p = a[col * n + col];
    *det *= p;
    let inv = 1.0 / p;
    let (upper, lower) = a.split_at_mut((col + 1) * n);
    let src = &upper[col * n + col + 1..];
    for row in lower.chunks_exact_mut(n) {
        let f = row[col] * inv;
        if f == 0.0 {
            continue;
        }
        for (d, &s) in row[col + 1..].iter_mut().zip(src) {
            *d -= f * s;
        }
    }
}

/// In-place LU determinant with partial pivoting over a row-major
/// `n×n` slice, multiplied into the running determinant `det` of an
/// elimination already under way (`1.0` for a fresh matrix). Same
/// pivoting rule and update order as the historical `Vec<Vec<f64>>`
/// version — bit-identical determinants. A zero pivot returns `0.0`
/// whatever `det` was.
fn determinant(a: &mut [f64], n: usize, mut det: f64) -> f64 {
    for col in 0..n {
        let pivot = pivot_row(a, n, col);
        if a[pivot * n + col] == 0.0 {
            return 0.0;
        }
        eliminate(a, n, col, pivot, &mut det);
    }
    det
}

/// Reused buffers of [`leave_one_out_volumes`].
#[derive(Default)]
struct LooScratch {
    /// The shared LU of the full CM matrix.
    full: Vec<f64>,
    /// One candidate's trailing block.
    block: Vec<f64>,
    /// Candidates whose volume is already known.
    done: Vec<bool>,
}

/// Every leave-one-out volume of a `c`-point set from one shared LU:
/// `out[p]` gets the bits of [`cm_volume_measure_flat`] over the set
/// without point `p`.
///
/// Why the bits agree. Dropping point `p` deletes row and column
/// `r = p + 1` of the full CM matrix `M`. Run [`determinant`]'s
/// partial-pivot LU on `M`. Until a step `s` where either `s = r` (the next column is
/// the deleted one) or row `r` would become the pivot, the reduced
/// matrix's LU takes the same steps: row `r` sits untouched at position
/// `r` (it is never the pivot and never swapped), the pivot is the same
/// row (the first maximum of a column stays first when a row that is
/// not it is deleted), swaps exchange the same two rows, every row
/// update subtracts the same multiple element by element, and the
/// running determinant sees the same factors in the same order. At the
/// start of step `s` the reduced matrix therefore *is* `M`'s current
/// trailing block (rows and columns `s..`) without row and column `r`;
/// copying it out and finishing it with [`determinant`] from the
/// running determinant reproduces the rest of the reduced LU exactly.
/// A zero pivot in `M` before step `s` means an all-zero column below
/// the diagonal, which is a zero pivot for the reduced LU too: the
/// same signed `0.0`. There is no tolerance and no fallback, so every drop, floor
/// exit and tie-break of [`select_max_volume`] is unchanged.
///
/// Cost: point `p` pays for a block of side `c - s`, and `s` is the
/// step it leaves the shared LU — about `r` — so the leave-one-out set
/// costs about a quarter of the `c` separate factorisations.
fn leave_one_out_volumes(
    c: usize,
    d2: impl FnMut(usize, usize) -> f64,
    scratch: &mut LooScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(c, 0.0);
    if c <= 2 {
        // Every leave-one-out set has at most one point.
        return;
    }
    let (n, m) = (c - 1, c + 1);
    assemble_cm(c, d2, &mut scratch.full);
    let LooScratch { full, block, done } = scratch;
    let a = full.as_mut_slice();
    done.clear();
    done.resize(c, false);
    let mut det = 1.0f64;
    for col in 0..m {
        let pivot = pivot_row(a, m, col);
        // The candidates whose reduced LU leaves the shared one here:
        // the owner of the next column, and the owner of the pivot row.
        for r in [col, pivot] {
            if r == 0 || done[r - 1] {
                continue;
            }
            block.clear();
            for row in (col..m).filter(|&row| row != r) {
                let src = &a[row * m..row * m + m];
                block.extend_from_slice(&src[col..r]);
                block.extend_from_slice(&src[r + 1..]);
            }
            out[r - 1] = signed_measure(n, determinant(block, m - 1 - col, det));
            done[r - 1] = true;
        }
        if a[pivot * m + col] == 0.0 {
            for (v, _) in out.iter_mut().zip(done.iter()).filter(|(_, &d)| !d) {
                *v = signed_measure(n, 0.0);
            }
            return;
        }
        eliminate(a, m, col, pivot, &mut det);
    }
}

/// Select at most `k` of `candidates` (identified by index `0..n`)
/// maximising the CM volume measure, by greedy backward elimination:
/// repeatedly drop the candidate whose removal leaves the largest volume.
///
/// `dist(i, j)` returns the (unsquared) distance between candidates.
/// Ties are broken towards dropping the higher index (deterministic).
/// Returns the selected indices in ascending order.
///
/// Each step's leave-one-out volumes come from one shared LU
/// (`leave_one_out_volumes`), bit-identical to computing each with
/// [`cm_volume_measure_flat`].
pub fn select_max_volume(n: usize, k: usize, mut dist: impl FnMut(usize, usize) -> f64) -> Vec<usize> {
    let mut keep: Vec<usize> = (0..n).collect();
    if n <= k {
        return keep;
    }
    // Precompute squared distances once (flat row-major; the values and
    // every use below match the historical Vec<Vec> version bit for
    // bit).
    let mut d2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(i, j);
            d2[i * n + j] = d * d;
            d2[j * n + i] = d * d;
        }
    }
    let mut scratch = LooScratch::default();
    let mut vols = Vec::new();
    while keep.len() > k {
        // Natural volume scale of the current set, for degeneracy
        // detection: (mean pairwise d²)^(m-1) where m is the subset size.
        let mut mean_d2 = 0.0;
        let mut pairs = 0usize;
        for (a, &i) in keep.iter().enumerate() {
            for &j in keep.iter().skip(a + 1) {
                mean_d2 += d2[i * n + j];
                pairs += 1;
            }
        }
        mean_d2 /= pairs.max(1) as f64;
        let degenerate_floor = 1e-9 * mean_d2.max(1e-300).powi(keep.len() as i32 - 2);
        leave_one_out_volumes(
            keep.len(),
            |i, j| d2[keep[i] * n + keep[j]],
            &mut scratch,
            &mut vols,
        );
        let mut best_drop = 0usize;
        let mut best_vol = f64::NEG_INFINITY;
        for (drop_pos, &vol) in vols.iter().enumerate() {
            // `>=` prefers dropping later candidates on ties.
            if vol >= best_vol {
                best_vol = vol;
                best_drop = drop_pos;
            }
        }
        if best_vol <= degenerate_floor {
            // Every k-subset is (numerically) flat — which is exactly the
            // clustering condition's signature, and where CM determinants
            // turn into floating-point noise. Fall back to the dispersion
            // objective so the choice stays deterministic and still
            // prefers spread members.
            let sub: Vec<usize> = keep.clone();
            let chosen = select_max_dispersion(sub.len(), k, |i, j| d2[sub[i] * n + sub[j]].sqrt());
            return chosen.into_iter().map(|i| sub[i]).collect();
        }
        keep.remove(best_drop);
    }
    keep
}

/// Max-dispersion fallback selector: maximise the sum of pairwise
/// distances (greedy backward elimination). Cheaper and monotone; used to
/// cross-check the CM selector in tests and exposed as an ablation knob.
pub fn select_max_dispersion(n: usize, k: usize, mut dist: impl FnMut(usize, usize) -> f64) -> Vec<usize> {
    let mut keep: Vec<usize> = (0..n).collect();
    if n <= k {
        return keep;
    }
    let mut d = vec![vec![0.0f64; n]; n];
    // `dist` runs once per pair, in this order, and its value goes to both
    // `d[i][j]` and `d[j][i]`; an iterator over `d` borrows one row.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in (i + 1)..n {
            let v = dist(i, j);
            d[i][j] = v;
            d[j][i] = v;
        }
    }
    // contribution[i] = sum of distances from i to the kept set.
    while keep.len() > k {
        let (drop_pos, _) = keep
            .iter()
            .enumerate()
            .map(|(p, &i)| {
                let contrib: f64 = keep.iter().map(|&j| d[i][j]).sum();
                (p, contrib)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        keep.remove(drop_pos);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d2_from_points(pts: &[(f64, f64)]) -> Vec<Vec<f64>> {
        let n = pts.len();
        let mut d2 = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let dx = pts[i].0 - pts[j].0;
                let dy = pts[i].1 - pts[j].1;
                d2[i][j] = dx * dx + dy * dy;
            }
        }
        d2
    }

    #[test]
    fn triangle_volume_matches_area() {
        // Right triangle with legs 3,4: area 6. CM det for n=3 equals
        // -16·Area² = -16·36 = -576; measure = (-1)^3·det = 576.
        let pts = [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)];
        let v = cm_volume_measure(&d2_from_points(&pts));
        assert!((v - 576.0).abs() < 1e-6, "measure {v}");
    }

    #[test]
    fn degenerate_sets_have_zero_volume() {
        // Collinear points.
        let pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)];
        let v = cm_volume_measure(&d2_from_points(&pts));
        assert!(v.abs() < 1e-9, "collinear volume {v}");
        // Duplicated point.
        let pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)];
        let v = cm_volume_measure(&d2_from_points(&pts));
        assert!(v.abs() < 1e-9, "duplicate volume {v}");
    }

    #[test]
    fn bigger_simplex_bigger_measure() {
        let small = d2_from_points(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        let large = d2_from_points(&[(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]);
        assert!(cm_volume_measure(&large) > cm_volume_measure(&small));
    }

    #[test]
    fn select_keeps_spread_points() {
        // Four corners of a square plus a centre point. k=3: the largest
        // triangle uses corners only (area 50 vs 25 through the centre),
        // so the centre must be dropped. (k=4 would be a degenerate
        // 3-simplex in 2-D — covered by the fallback test below.)
        let pts = [
            (0.0, 0.0),
            (10.0, 0.0),
            (0.0, 10.0),
            (10.0, 10.0),
            (5.0, 5.0),
        ];
        let dist = |i: usize, j: usize| {
            let dx: f64 = pts[i].0 - pts[j].0;
            let dy: f64 = pts[i].1 - pts[j].1;
            (dx * dx + dy * dy).sqrt()
        };
        let sel = select_max_volume(5, 3, dist);
        assert!(!sel.contains(&4), "centre point must be dropped: {sel:?}");
        assert_eq!(sel.len(), 3);
        let sel2 = select_max_dispersion(5, 4, dist);
        assert_eq!(sel2, vec![0, 1, 2, 3], "dispersion drops the centre");
    }

    #[test]
    fn degenerate_selection_falls_back_to_dispersion() {
        // 5 points in 2-D, k=4: every 4-subset is volume-zero, so the CM
        // route is numerically meaningless; the fallback must pick the
        // dispersion answer (drop the centre) rather than float noise.
        let pts = [
            (0.0, 0.0),
            (10.0, 0.0),
            (0.0, 10.0),
            (10.0, 10.0),
            (5.0, 5.0),
        ];
        let dist = |i: usize, j: usize| {
            let dx: f64 = pts[i].0 - pts[j].0;
            let dy: f64 = pts[i].1 - pts[j].1;
            (dx * dx + dy * dy).sqrt()
        };
        let sel = select_max_volume(5, 4, dist);
        assert_eq!(sel, vec![0, 1, 2, 3], "fallback must drop the centre");
    }

    #[test]
    fn select_with_few_candidates_is_identity() {
        let sel = select_max_volume(3, 16, |_, _| 1.0);
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn clustering_makes_selection_arbitrary() {
        // All candidates pairwise-equidistant (the cluster condition):
        // every subset has the same volume, so selection degenerates to
        // tie-breaking — the paper's point that "hypervolume maximisation
        // does not help here".
        let sel = select_max_volume(8, 4, |_, _| 10.0);
        assert_eq!(sel.len(), 4);
        // With ties broken towards dropping high indices, the low indices
        // survive — i.e. nothing about the metric informed the choice.
        assert_eq!(sel, vec![0, 1, 2, 3]);
    }

    /// The per-candidate selector, one [`cm_volume_measure_flat`] per
    /// leave-one-out set: the reference the shared-LU
    /// [`select_max_volume`] must match selection for selection.
    fn select_max_volume_reference(
        n: usize,
        k: usize,
        mut dist: impl FnMut(usize, usize) -> f64,
    ) -> Vec<usize> {
        let mut keep: Vec<usize> = (0..n).collect();
        if n <= k {
            return keep;
        }
        let mut d2 = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = dist(i, j);
                d2[i * n + j] = d * d;
                d2[j * n + i] = d * d;
            }
        }
        let mut scratch = Vec::new();
        while keep.len() > k {
            let mut best_drop = 0usize;
            let mut best_vol = f64::NEG_INFINITY;
            let mut mean_d2 = 0.0;
            let mut pairs = 0usize;
            for (a, &i) in keep.iter().enumerate() {
                for &j in keep.iter().skip(a + 1) {
                    mean_d2 += d2[i * n + j];
                    pairs += 1;
                }
            }
            mean_d2 /= pairs.max(1) as f64;
            let degenerate_floor = 1e-9 * mean_d2.max(1e-300).powi(keep.len() as i32 - 2);
            for drop_pos in 0..keep.len() {
                let sub = |p: usize| keep[if p < drop_pos { p } else { p + 1 }];
                let vol = cm_volume_measure_flat(
                    keep.len() - 1,
                    |i, j| d2[sub(i) * n + sub(j)],
                    &mut scratch,
                );
                if vol >= best_vol {
                    best_vol = vol;
                    best_drop = drop_pos;
                }
            }
            if best_vol <= degenerate_floor {
                let sub: Vec<usize> = keep.clone();
                let chosen =
                    select_max_dispersion(sub.len(), k, |i, j| d2[sub[i] * n + sub[j]].sqrt());
                return chosen.into_iter().map(|i| sub[i]).collect();
            }
            keep.remove(best_drop);
        }
        keep
    }

    /// Distance kinds of the equivalence tests.
    const KINDS: [&str; 4] = ["random", "integer 1..=3", "all equal", "duplicate points"];

    /// A symmetric `n×n` distance matrix (flat, zero diagonal) of kind
    /// `KINDS[kind]`: uniform random distances; integers in 1..=3 (ties
    /// everywhere); one common distance; or 3-D points drawn from three
    /// sites, so most sets repeat a point and many are flat.
    fn sample_dist(kind: usize, n: usize, seed: u64) -> Vec<f64> {
        use rand::Rng;
        let mut rng = np_util::rng::rng_from(seed);
        let sites: Vec<[f64; 3]> = (0..3)
            .map(|_| [0; 3].map(|_| f64::from(rng.gen_range(0..12u32))))
            .collect();
        let at: Vec<usize> = (0..n).map(|_| rng.gen_range(0..sites.len())).collect();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = match kind {
                    0 => rng.gen_range(0.1..50.0),
                    1 => f64::from(rng.gen_range(1..=3u32)),
                    2 => 7.0,
                    _ => {
                        let (a, b) = (sites[at[i]], sites[at[j]]);
                        ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2))
                            .sqrt()
                    }
                };
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        d
    }

    /// Every leave-one-out volume of an `n`-point set, bit for bit:
    /// (shared LU, per-candidate reference).
    fn loo_bits(n: usize, d: &[f64]) -> (Vec<u64>, Vec<u64>) {
        let d2 = |i: usize, j: usize| d[i * n + j] * d[i * n + j];
        let mut shared = Vec::new();
        leave_one_out_volumes(n, d2, &mut LooScratch::default(), &mut shared);
        let mut scratch = Vec::new();
        let reference = (0..n)
            .map(|p| {
                let sub = |i: usize| if i < p { i } else { i + 1 };
                cm_volume_measure_flat(n - 1, |i, j| d2(sub(i), sub(j)), &mut scratch).to_bits()
            })
            .collect();
        (shared.iter().map(|v| v.to_bits()).collect(), reference)
    }

    #[test]
    fn leave_one_out_volumes_have_the_reference_bits() {
        for (kind, name) in KINDS.iter().enumerate() {
            for n in 1..24 {
                for seed in 0..4 {
                    let (shared, reference) = loo_bits(n, &sample_dist(kind, n, seed));
                    assert_eq!(shared, reference, "{name} n={n} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn select_matches_the_per_candidate_reference() {
        for (kind, name) in KINDS.iter().enumerate() {
            for n in 1..24 {
                for k in 1..22 {
                    let d = sample_dist(kind, n, (n * 31 + k) as u64);
                    let dist = |i: usize, j: usize| d[i * n + j];
                    assert_eq!(
                        select_max_volume(n, k, dist),
                        select_max_volume_reference(n, k, dist),
                        "{name} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn coincident_points_take_the_zero_pivot_exit() {
        // Every point in one place: the shared LU meets an exact zero
        // pivot at column 2, and every candidate still open there gets
        // the reference's signed zero (-0.0 for an odd point count).
        for n in 3..9 {
            let d = vec![0.0; n * n];
            let (shared, reference) = loo_bits(n, &d);
            assert_eq!(shared, reference, "n={n}");
            let zero = if (n - 1) % 2 == 0 { 0.0f64 } else { -0.0 };
            assert!(
                shared.iter().all(|&b| b == zero.to_bits()),
                "n={n}: {shared:?}"
            );
        }
    }

    proptest::proptest! {
        /// The measure is permutation-invariant and non-negative for
        /// points from a genuine Euclidean embedding — up to the LU
        /// determinant's numerical noise, whose natural scale is the
        /// volume magnitude `(mean d²)^(n-1)` (degenerate configurations
        /// produce pure noise of that scale, so tolerances are relative
        /// to it).
        #[test]
        fn prop_euclidean_nonnegative(
            pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..7),
        ) {
            let d2 = d2_from_points(&pts);
            let n = pts.len();
            let mut mean_d2 = 0.0;
            for (i, row) in d2.iter().enumerate() {
                for v in &row[i + 1..] {
                    mean_d2 += v;
                }
            }
            mean_d2 /= (n * (n - 1) / 2).max(1) as f64;
            let mag = mean_d2.max(1.0).powi(n as i32 - 1);
            let v = cm_volume_measure(&d2);
            proptest::prop_assert!(v > -1e-6 * mag, "negative volume {v} (mag {mag})");
            let mut rev = pts.clone();
            rev.reverse();
            let vr = cm_volume_measure(&d2_from_points(&rev));
            proptest::prop_assert!(
                (v - vr).abs() < 1e-6 * mag,
                "permutation changed measure: {v} vs {vr} (mag {mag})"
            );
        }

        /// The shared LU reproduces every per-candidate volume bit for
        /// bit on fresh draws of every distance kind.
        #[test]
        fn prop_leave_one_out_bits(n in 1usize..24, kind in 0usize..4, seed in 0u64..1_000_000_000) {
            let (shared, reference) = loo_bits(n, &sample_dist(kind, n, seed));
            proptest::prop_assert_eq!(shared, reference);
        }

        /// And the selector picks what the per-candidate loop picks.
        #[test]
        fn prop_select_matches_reference(
            n in 1usize..24,
            k in 1usize..22,
            kind in 0usize..4,
            seed in 0u64..1_000_000_000,
        ) {
            let d = sample_dist(kind, n, seed);
            let dist = |i: usize, j: usize| d[i * n + j];
            proptest::prop_assert_eq!(
                select_max_volume(n, k, dist),
                select_max_volume_reference(n, k, dist)
            );
        }

        /// Selection always returns exactly k distinct, valid indices.
        #[test]
        fn prop_selection_size(n in 1usize..12, k in 1usize..12) {
            let sel = select_max_volume(n, k, |i, j| ((i + 1) * (j + 2)) as f64);
            proptest::prop_assert_eq!(sel.len(), n.min(k));
            let mut s = sel.clone();
            s.dedup();
            proptest::prop_assert_eq!(s.len(), sel.len());
            proptest::prop_assert!(sel.iter().all(|&i| i < n));
        }
    }
}
