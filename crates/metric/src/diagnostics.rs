//! Quantitative diagnostics for §2.2's metric-space assumptions.
//!
//! The paper argues that the clustering condition breaks three standard
//! assumptions — growth constraint (Karger–Ruhl, Tapestry), the doubling
//! property (Meridian) and low dimensionality (PIC, Mithos, Vivaldi). This
//! module measures all three on a concrete [`LatencyMatrix`], so the
//! argument can be checked numerically (extension experiment **Ext B**,
//! `experiments/ext_assumptions.toml`):
//!
//! * [`growth_constant`] — `max |B(p, 2l)| / |B(p, l)|` over sampled peers
//!   and radii. A clustered world shows a spike when `l` sits inside the
//!   empty annulus between the end-network (µs) and the rest of the
//!   cluster (ms).
//! * [`doubling_constant`] — the number of radius-`r/2` balls a greedy
//!   cover needs for a radius-`r` ball. Under clustering this approaches
//!   the number of end-networks in a cluster (the paper's exact argument).
//! * [`intrinsic_dimension`] — the Levina–Bickel maximum-likelihood
//!   estimator; clusters inflate it because distinguishing n equidistant
//!   end-networks needs ~n dimensions.

use crate::matrix::PeerId;
use crate::world::WorldStore;
use np_util::Micros;
use rand::seq::SliceRandom;
use rand::Rng;

/// One `(peer, radius)` growth observation.
#[derive(Debug, Clone, Copy)]
pub struct GrowthSample {
    pub peer: PeerId,
    pub radius: Micros,
    pub inner: usize,
    pub outer: usize,
}

impl GrowthSample {
    /// `|B(p,2l)| / |B(p,l)|`.
    pub fn ratio(&self) -> f64 {
        self.outer as f64 / self.inner as f64
    }
}

/// Measure growth ratios over `n_peers` sampled peers and `n_radii`
/// log-spaced radii. Only observations with a meaningful inner ball
/// (`inner >= min_inner`) are kept — ratios over singleton balls say
/// nothing about the space.
pub fn growth_samples<R: Rng + ?Sized>(
    matrix: &dyn WorldStore,
    members: &[PeerId],
    n_peers: usize,
    n_radii: usize,
    min_inner: usize,
    rng: &mut R,
) -> Vec<GrowthSample> {
    assert!(min_inner >= 1);
    let diameter = matrix.diameter();
    if diameter == Micros::ZERO || members.len() < 2 {
        return Vec::new();
    }
    let lo = 50.0f64; // 50 µs: below any realistic latency
    let hi = diameter.as_us() as f64 / 2.0;
    let mut peers: Vec<PeerId> = members.to_vec();
    peers.shuffle(rng);
    peers.truncate(n_peers);
    let mut out = Vec::new();
    for &p in &peers {
        for k in 0..n_radii {
            let f = if n_radii == 1 {
                0.5
            } else {
                k as f64 / (n_radii - 1) as f64
            };
            let radius = Micros((lo * (hi / lo).powf(f)).round() as u64);
            // Balls are closed (<= r): the clustering argument uses
            // "within latency l".
            let inner = members
                .iter()
                .filter(|&&m| m != p && matrix.rtt(p, m) <= radius)
                .count();
            if inner < min_inner {
                continue;
            }
            let outer = members
                .iter()
                .filter(|&&m| m != p && matrix.rtt(p, m) <= radius * 2)
                .count();
            out.push(GrowthSample {
                peer: p,
                radius,
                inner,
                outer,
            });
        }
    }
    out
}

/// The growth constant: the maximum `|B(p,2l)|/|B(p,l)|` over the sampled
/// observations. `None` when no observation had a populated inner ball.
pub fn growth_constant(samples: &[GrowthSample]) -> Option<f64> {
    samples
        .iter()
        .map(|s| s.ratio())
        .max_by(|a, b| a.partial_cmp(b).expect("finite ratios"))
}

/// Greedily cover the closed ball `B(center, r)` (over `members`) with
/// balls of radius `r/2` centred at member points; returns the number of
/// balls used.
///
/// Greedy cover is a ln(n)-approximation of the optimal cover — good
/// enough to *witness* the blow-up the paper describes (the true doubling
/// constant is only smaller by a log factor).
pub fn cover_count(matrix: &dyn WorldStore, members: &[PeerId], center: PeerId, r: Micros) -> usize {
    let mut uncovered: Vec<PeerId> = members
        .iter()
        .copied()
        .filter(|&m| matrix.rtt(center, m) <= r)
        .collect();
    let half = Micros(r.as_us() / 2);
    let mut balls = 0;
    while let Some(&c) = uncovered.first() {
        balls += 1;
        uncovered.retain(|&m| matrix.rtt(c, m) > half);
    }
    balls
}

/// The doubling constant estimate: the max greedy [`cover_count`] over
/// `n_centers` sampled centres and `n_radii` log-spaced radii.
pub fn doubling_constant<R: Rng + ?Sized>(
    matrix: &dyn WorldStore,
    members: &[PeerId],
    n_centers: usize,
    n_radii: usize,
    rng: &mut R,
) -> usize {
    let diameter = matrix.diameter();
    if diameter == Micros::ZERO || members.is_empty() {
        return 0;
    }
    let mut centers: Vec<PeerId> = members.to_vec();
    centers.shuffle(rng);
    centers.truncate(n_centers);
    let lo = 100.0f64;
    let hi = diameter.as_us() as f64;
    let mut worst = 0;
    for &c in &centers {
        for k in 0..n_radii {
            let f = if n_radii == 1 {
                0.5
            } else {
                k as f64 / (n_radii - 1) as f64
            };
            let r = Micros((lo * (hi / lo).powf(f)).round() as u64);
            worst = worst.max(cover_count(matrix, members, c, r));
        }
    }
    worst
}

/// Levina–Bickel maximum-likelihood intrinsic dimension with `k`
/// neighbours, averaged over `n_samples` sampled peers.
///
/// `m_k(x) = [ (k-1)⁻¹ Σ_{j<k} ln( T_k(x) / T_j(x) ) ]⁻¹` where `T_j` is
/// the distance to the j-th nearest neighbour. Distances of zero (peers in
/// the same end-network at identical latency) are clamped to 1 µs — the
/// estimator needs strictly positive ratios; the clamp only *underestimates*
/// dimension, making the reported blow-up conservative.
pub fn intrinsic_dimension<R: Rng + ?Sized>(
    matrix: &dyn WorldStore,
    members: &[PeerId],
    k: usize,
    n_samples: usize,
    rng: &mut R,
) -> Option<f64> {
    if members.len() <= k || k < 2 {
        return None;
    }
    let mut sample: Vec<PeerId> = members.to_vec();
    sample.shuffle(rng);
    sample.truncate(n_samples);
    let mut dims = Vec::new();
    for &p in &sample {
        let knn = matrix.knn_within(p, members, k);
        let t_k = (matrix.rtt(p, *knn.last().expect("k >= 2")).as_us()).max(1) as f64;
        let mut acc = 0.0;
        for &q in &knn[..k - 1] {
            let t_j = (matrix.rtt(p, q).as_us()).max(1) as f64;
            acc += (t_k / t_j).ln();
        }
        if acc > 0.0 {
            dims.push((k - 1) as f64 / acc);
        }
    }
    if dims.is_empty() {
        None
    } else {
        Some(dims.iter().sum::<f64>() / dims.len() as f64)
    }
}

/// A bundled report for a world, as printed by `ext_assumptions`.
#[derive(Debug, Clone)]
pub struct AssumptionReport {
    pub growth_max: Option<f64>,
    pub growth_p95: Option<f64>,
    pub doubling: usize,
    pub intrinsic_dim: Option<f64>,
}

/// Run all three diagnostics with moderate sampling budgets.
pub fn assumption_report<R: Rng + ?Sized>(
    matrix: &dyn WorldStore,
    members: &[PeerId],
    rng: &mut R,
) -> AssumptionReport {
    // min_inner = 1: the clustering spike is precisely "inner ball holds
    // only the end-network partner, the 2x ball holds the whole cluster".
    let samples = growth_samples(matrix, members, 64, 24, 1, rng);
    let ratios: Vec<f64> = samples.iter().map(|s| s.ratio()).collect();
    AssumptionReport {
        growth_max: growth_constant(&samples),
        growth_p95: np_util::stats::percentile(&ratios, 95.0),
        doubling: doubling_constant(matrix, members, 16, 12, rng),
        intrinsic_dim: intrinsic_dimension(matrix, members, 10, 128, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LatencyMatrix;
    use np_util::rng::rng_from;

    /// A uniform line: growth-friendly space.
    fn line(n: usize) -> (LatencyMatrix, Vec<PeerId>) {
        let m = LatencyMatrix::build(n, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        });
        let members = (0..n as u32).map(PeerId).collect();
        (m, members)
    }

    /// A "clustered" space: `g` groups of `s` peers; 100 µs inside a
    /// group, ~10–11 ms across groups (the PoP star of Figure 1, with the
    /// small latency variation real clusters have — exact ties would make
    /// the MLE dimension estimator degenerate, which realistic worlds
    /// never exhibit).
    fn clustered(g: usize, s: usize) -> (LatencyMatrix, Vec<PeerId>) {
        let n = g * s;
        let m = LatencyMatrix::build(n, |a, b| {
            if a.idx() / s == b.idx() / s {
                Micros::from_us(100)
            } else {
                // Symmetric deterministic jitter in [0, 1.1 ms).
                let j = ((a.0 ^ b.0).wrapping_mul(2654435761) % 1100) as u64;
                Micros::from_ms_u64(10) + Micros::from_us(j)
            }
        });
        let members = (0..n as u32).map(PeerId).collect();
        (m, members)
    }

    #[test]
    fn growth_is_tame_on_a_line() {
        let (m, members) = line(64);
        let mut rng = rng_from(1);
        let samples = growth_samples(&m, &members, 32, 16, 2, &mut rng);
        let g = growth_constant(&samples).expect("populated");
        // Doubling a radius on a line at most ~doubles+1 the count near
        // edges; allow slack for boundary effects.
        assert!(g <= 4.0, "line growth constant {g}");
    }

    #[test]
    fn growth_spikes_under_clustering() {
        let (m, members) = clustered(40, 2);
        let mut rng = rng_from(2);
        let samples = growth_samples(&m, &members, 40, 24, 1, &mut rng);
        let g = growth_constant(&samples).expect("populated");
        // Inner ball at ~5 ms holds only the end-network partner (1 peer);
        // the 2x ball at ~10 ms holds everyone (79 peers).
        assert!(g >= 20.0, "clustered growth constant {g}");
    }

    #[test]
    fn doubling_counts_end_networks() {
        let (m, members) = clustered(30, 2);
        let mut rng = rng_from(3);
        let d = doubling_constant(&m, &members, 10, 10, &mut rng);
        // A 10 ms ball covers the whole cluster; 5 ms balls cover one
        // group each -> ~30 balls needed (the paper's §2.2 argument).
        assert!(d >= 25, "doubling estimate {d}");
        let (ml, mem_l) = line(60);
        let dl = doubling_constant(&ml, &mem_l, 10, 10, &mut rng);
        assert!(dl <= 6, "line doubling estimate {dl}");
    }

    #[test]
    fn dimension_higher_under_clustering() {
        let (ml, mem_l) = line(128);
        let (mc, mem_c) = clustered(64, 2);
        let mut rng = rng_from(4);
        // k = 20 looks past the single end-network partner into the
        // equidistant cluster shell, where the dimensionality blow-up lives.
        let dim_line = intrinsic_dimension(&ml, &mem_l, 20, 64, &mut rng).expect("est");
        let dim_clu = intrinsic_dimension(&mc, &mem_c, 20, 64, &mut rng).expect("est");
        assert!(
            dim_clu > 2.0 * dim_line,
            "clustered dim {dim_clu} vs line dim {dim_line}"
        );
    }

    #[test]
    fn cover_count_of_tight_ball_is_one() {
        let (m, members) = clustered(5, 4);
        // Radius 200 µs around a peer covers only its own group, and one
        // half-radius ball suffices.
        assert_eq!(
            cover_count(&m, &members, PeerId(0), Micros::from_us(200)),
            1
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (m, members) = line(1);
        let mut rng = rng_from(5);
        assert!(growth_samples(&m, &members, 8, 8, 1, &mut rng).is_empty());
        assert_eq!(growth_constant(&[]), None);
        assert_eq!(intrinsic_dimension(&m, &members, 10, 8, &mut rng), None);
    }

    #[test]
    fn report_runs_end_to_end() {
        let (m, members) = clustered(20, 2);
        let mut rng = rng_from(6);
        let r = assumption_report(&m, &members, &mut rng);
        assert!(r.doubling >= 15);
        assert!(r.growth_max.expect("populated") > 10.0);
        assert!(r.intrinsic_dim.is_some());
    }
}
