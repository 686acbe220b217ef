//! Vivaldi network coordinates (Dabek et al., SIGCOMM 2004).
//!
//! Each node holds a Euclidean coordinate plus a non-negative *height*
//! modelling the access link (exactly the last-hop latency this paper is
//! about); the predicted RTT between two nodes is the Euclidean distance
//! of the coordinates plus both heights. Nodes adjust by spring
//! relaxation with the adaptive timestep weighted by relative error.

use np_metric::{PeerId, WorldStore};
use np_util::rng::rng_for;
use np_util::Micros;
use rand::seq::SliceRandom;
use rand::Rng;

/// A height-vector coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct Coord {
    /// Euclidean part (ms units).
    pub pos: Vec<f64>,
    /// Access-link height (ms, non-negative).
    pub height: f64,
}

impl Coord {
    /// Origin coordinate of the given dimension.
    pub fn origin(dims: usize) -> Coord {
        Coord {
            pos: vec![0.0; dims],
            height: 0.0,
        }
    }

    /// Predicted RTT to `other`, in ms.
    pub fn predict_ms(&self, other: &Coord) -> f64 {
        let eu: f64 = self
            .pos
            .iter()
            .zip(&other.pos)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        eu + self.height + other.height
    }

    /// Predicted RTT as [`Micros`].
    pub fn predict(&self, other: &Coord) -> Micros {
        Micros::from_ms(self.predict_ms(other).max(0.0))
    }
}

/// Tuning parameters (defaults follow the Vivaldi paper: cc = ce = 0.25).
#[derive(Debug, Clone, Copy)]
pub struct VivaldiConfig {
    pub dims: usize,
    /// Timestep gain.
    pub cc: f64,
    /// Error-estimate gain.
    pub ce: f64,
    /// Neighbours sampled per node per round.
    pub neighbours: usize,
    /// Relaxation rounds.
    pub rounds: usize,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            dims: 3,
            cc: 0.25,
            ce: 0.25,
            neighbours: 16,
            rounds: 50,
        }
    }
}

/// A converged (or converging) Vivaldi system over a latency matrix.
pub struct VivaldiSystem {
    cfg: VivaldiConfig,
    members: Vec<PeerId>,
    coords: Vec<Coord>,
    errors: Vec<f64>,
}

impl VivaldiSystem {
    /// Run the relaxation over `members` of `matrix` (any latency
    /// backend — coordinates embed dense and compressed worlds alike).
    pub fn build<W: WorldStore + ?Sized>(
        matrix: &W,
        members: Vec<PeerId>,
        cfg: VivaldiConfig,
        seed: u64,
    ) -> VivaldiSystem {
        assert!(!members.is_empty());
        let mut rng = rng_for(seed, 0x5649_5641); // "VIVA"
        let n = members.len();
        // Small random start breaks symmetry (all-origin is a saddle).
        let mut coords: Vec<Coord> = (0..n)
            .map(|_| Coord {
                pos: (0..cfg.dims).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                height: rng.gen_range(0.0..1.0),
            })
            .collect();
        let mut errors = vec![1.0f64; n];
        let idx: Vec<usize> = (0..n).collect();
        for _ in 0..cfg.rounds {
            for i in 0..n {
                for _ in 0..cfg.neighbours {
                    let &j = idx.choose(&mut rng).expect("non-empty");
                    if j == i {
                        continue;
                    }
                    let rtt = matrix.rtt(members[i], members[j]).as_ms().max(0.01);
                    let predicted = coords[i].predict_ms(&coords[j]).max(0.01);
                    // Sample weight: local error relative to neighbour's.
                    let w = errors[i] / (errors[i] + errors[j]).max(1e-9);
                    let rel_err = (predicted - rtt).abs() / rtt;
                    errors[i] = (rel_err * cfg.ce * w + errors[i] * (1.0 - cfg.ce * w))
                        .clamp(0.01, 2.0);
                    let delta = cfg.cc * w;
                    // Unit vector from j to i (random direction when
                    // coincident).
                    let (ci, cj) = (&coords[i], &coords[j]);
                    let mut dir: Vec<f64> = ci
                        .pos
                        .iter()
                        .zip(&cj.pos)
                        .map(|(a, b)| a - b)
                        .collect();
                    let norm: f64 = dir.iter().map(|d| d * d).sum::<f64>().sqrt();
                    if norm < 1e-9 {
                        for d in &mut dir {
                            *d = rng.gen_range(-1.0..1.0);
                        }
                    } else {
                        for d in &mut dir {
                            *d /= norm;
                        }
                    }
                    let force = rtt - predicted; // positive = push apart
                    let ci = &mut coords[i];
                    for (p, d) in ci.pos.iter_mut().zip(&dir) {
                        *p += delta * force * d;
                    }
                    ci.height = (ci.height + delta * force * 0.1).max(0.0);
                }
            }
        }
        VivaldiSystem {
            cfg,
            members,
            coords,
            errors,
        }
    }

    /// Coordinate of the `i`-th member.
    pub fn coord(&self, i: usize) -> &Coord {
        &self.coords[i]
    }

    /// Member list (parallel to coordinates).
    pub fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// The configuration.
    pub fn config(&self) -> &VivaldiConfig {
        &self.cfg
    }

    /// Embed a *new* node (a query target) against `samples` measured
    /// RTTs without disturbing the system — how a joining peer obtains
    /// rough coordinates.
    pub fn embed_new(
        &self,
        rtts: &[(usize, Micros)], // (member index, measured rtt)
        seed: u64,
    ) -> Coord {
        let mut rng = rng_for(seed, 0x454D_4244); // "EMBD"
        let mut c = Coord {
            pos: (0..self.cfg.dims).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            height: 0.5,
        };
        for _ in 0..40 {
            for &(m, rtt) in rtts {
                let target = &self.coords[m];
                let predicted = c.predict_ms(target).max(0.01);
                let force = rtt.as_ms() - predicted;
                let mut dir: Vec<f64> = c
                    .pos
                    .iter()
                    .zip(&target.pos)
                    .map(|(a, b)| a - b)
                    .collect();
                let norm: f64 = dir.iter().map(|d| d * d).sum::<f64>().sqrt();
                if norm < 1e-9 {
                    continue;
                }
                for d in &mut dir {
                    *d /= norm;
                }
                for (p, d) in c.pos.iter_mut().zip(&dir) {
                    *p += 0.15 * force * d;
                }
                c.height = (c.height + 0.015 * force).max(0.0);
            }
        }
        c
    }

    /// Median relative embedding error over sampled pairs.
    pub fn median_relative_error<W: WorldStore + ?Sized>(
        &self,
        matrix: &W,
        samples: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = rng_for(seed, 0x45_5252);
        let n = self.members.len();
        let mut errs = Vec::with_capacity(samples);
        for _ in 0..samples {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i == j {
                continue;
            }
            let rtt = matrix.rtt(self.members[i], self.members[j]).as_ms();
            if rtt <= 0.0 {
                continue;
            }
            let p = self.coords[i].predict_ms(&self.coords[j]);
            errs.push((p - rtt).abs() / rtt);
        }
        np_util::stats::median(&errs).unwrap_or(f64::INFINITY)
    }

    /// Mean residual error estimate across nodes.
    pub fn mean_error_estimate(&self) -> f64 {
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::LatencyMatrix;

    /// A 2-D grid world embeds almost perfectly in 3-D.
    fn grid_matrix(side: usize) -> (LatencyMatrix, Vec<PeerId>) {
        let n = side * side;
        let m = LatencyMatrix::build(n, |a, b| {
            let (ax, ay) = (a.idx() % side, a.idx() / side);
            let (bx, by) = (b.idx() % side, b.idx() / side);
            let d = (((ax as f64 - bx as f64).powi(2) + (ay as f64 - by as f64).powi(2)).sqrt())
                * 5.0;
            Micros::from_ms(d.max(0.1))
        });
        (m, (0..n as u32).map(PeerId).collect())
    }

    #[test]
    fn embeds_euclidean_worlds_well() {
        let (m, members) = grid_matrix(8);
        let sys = VivaldiSystem::build(&m, members, VivaldiConfig::default(), 1);
        let err = sys.median_relative_error(&m, 500, 2);
        assert!(err < 0.15, "median relative error {err:.3}");
    }

    #[test]
    fn cluster_worlds_collapse_coordinates() {
        // The §2.3 argument: equidistant cluster members are
        // indistinguishable in low dimension — predicted distances inside
        // the cluster become nearly uniform regardless of end-network.
        let g = 30usize;
        let m = LatencyMatrix::build(g * 2, |a, b| {
            if a.idx() / 2 == b.idx() / 2 {
                Micros::from_us(100)
            } else {
                Micros::from_ms_u64(10)
            }
        });
        let members: Vec<PeerId> = (0..(g * 2) as u32).map(PeerId).collect();
        let sys = VivaldiSystem::build(&m, members, VivaldiConfig::default(), 3);
        // Within-cluster predicted distances: partner vs non-partner must
        // be hard to tell apart relative to the 100x true contrast.
        let mut partner_pred = Vec::new();
        let mut other_pred = Vec::new();
        for i in 0..g {
            let a = 2 * i;
            partner_pred.push(sys.coord(a).predict_ms(sys.coord(a + 1)));
            other_pred.push(sys.coord(a).predict_ms(sys.coord((a + 2) % (2 * g))));
        }
        let mp = np_util::stats::median(&partner_pred).expect("non-empty");
        let mo = np_util::stats::median(&other_pred).expect("non-empty");
        // True contrast is 100x; embedded contrast collapses to < 3x.
        assert!(
            mo / mp.max(0.01) < 3.0,
            "embedding kept the contrast: partner {mp:.3} vs other {mo:.3}"
        );
    }

    #[test]
    fn new_node_embedding_lands_near_its_cluster() {
        let (m, mut members) = grid_matrix(6);
        let target = members.pop().expect("non-empty"); // hold one out
        let sys = VivaldiSystem::build(&m, members.clone(), VivaldiConfig::default(), 5);
        let rtts: Vec<(usize, Micros)> = (0..members.len())
            .step_by(3)
            .map(|i| (i, m.rtt(members[i], target)))
            .collect();
        let c = sys.embed_new(&rtts, 7);
        // Predicted distance to the true nearest member should be small.
        let true_nearest = m.nearest_within(target, &members).expect("non-empty");
        let idx = members.iter().position(|&p| p == true_nearest).expect("member");
        let pred = c.predict_ms(sys.coord(idx));
        assert!(pred < 25.0, "predicted distance to true nearest: {pred:.1} ms");
    }

    #[test]
    fn heights_stay_nonnegative_and_errors_bounded() {
        let (m, members) = grid_matrix(5);
        let sys = VivaldiSystem::build(&m, members, VivaldiConfig::default(), 9);
        for i in 0..sys.members().len() {
            assert!(sys.coord(i).height >= 0.0);
        }
        let e = sys.mean_error_estimate();
        assert!((0.0..=2.0).contains(&e), "error estimate {e}");
    }
}
