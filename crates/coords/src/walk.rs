//! The coordinate greedy walk (Vivaldi-style nearest-peer search).
//!
//! Paper §2.3: *"In order for a peer to find its closest peer, it first
//! computes its (rough) coordinates, and then launches multiple greedy
//! walks aimed at finding closer peers: At each hop of the walk, the
//! walk chooses the closest neighbor as predicted by the respective
//! coordinates as the next hop."* The walk ends with a real probe of
//! the best few candidates (coordinates alone cannot confirm a winner).

use crate::vivaldi::VivaldiSystem;
use np_metric::{NearestPeerAlgo, PeerId, QueryOutcome, Target};
use np_util::rng::sub_seed;
use np_util::Micros;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Greedy-walk search over a Vivaldi system.
///
/// Owns its [`VivaldiSystem`] (coordinates are self-contained once
/// embedded), so a factory can hand out one boxed, self-sufficient
/// algorithm; call sites that want to keep the system pass a clone or
/// rebuild it.
pub struct CoordWalk {
    system: VivaldiSystem,
    /// Random neighbours each member knows (the walk's graph).
    neighbours: HashMap<usize, Vec<usize>>,
    /// Number of parallel walks per query.
    pub walks: usize,
    /// Bootstrap probes used to embed the target.
    pub bootstrap_probes: usize,
    /// Final candidates verified by real probes.
    pub verify: usize,
}

impl CoordWalk {
    /// Build over a system; each member gets `degree` random neighbours.
    pub fn new(system: VivaldiSystem, degree: usize, seed: u64) -> CoordWalk {
        let n = system.members().len();
        let mut rng = np_util::rng::rng_from(sub_seed(seed, 0x57_41_4C));
        let mut neighbours = HashMap::new();
        for i in 0..n {
            let mut v = Vec::with_capacity(degree);
            for _ in 0..degree {
                let j = rng.gen_range(0..n);
                if j != i {
                    v.push(j);
                }
            }
            neighbours.insert(i, v);
        }
        CoordWalk {
            system,
            neighbours,
            walks: 4,
            bootstrap_probes: 16,
            verify: 4,
        }
    }
}

impl NearestPeerAlgo for CoordWalk {
    fn name(&self) -> &str {
        "coord-walk"
    }

    fn members(&self) -> &[PeerId] {
        self.system.members()
    }

    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        let members = self.system.members();
        let n = members.len();
        // 1. Embed the target from a few real probes.
        let probes: Vec<(usize, Micros)> = (0..self.bootstrap_probes)
            .map(|_| {
                let i = rng.gen_range(0..n);
                (i, target.probe_from(members[i]))
            })
            .collect();
        let t_coord = self.system.embed_new(&probes, rng.gen());
        // 2. Greedy walks on predicted distance.
        let mut hops = 0u32;
        let mut candidates: Vec<usize> = Vec::new();
        for _ in 0..self.walks {
            let mut cur = rng.gen_range(0..n);
            loop {
                let cur_d = t_coord.predict_ms(self.system.coord(cur));
                let next = self.neighbours[&cur]
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        t_coord
                            .predict_ms(self.system.coord(a))
                            .partial_cmp(&t_coord.predict_ms(self.system.coord(b)))
                            .expect("finite")
                    });
                match next {
                    Some(nx) if t_coord.predict_ms(self.system.coord(nx)) < cur_d => {
                        cur = nx;
                        hops += 1;
                        if hops > 256 {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            candidates.push(cur);
        }
        // 3. Verify the best few (by prediction) with real probes, and
        // keep the bootstrap best as a safety net.
        candidates.sort_by(|&a, &b| {
            t_coord
                .predict_ms(self.system.coord(a))
                .partial_cmp(&t_coord.predict_ms(self.system.coord(b)))
                .expect("finite")
        });
        candidates.dedup();
        let mut best: Option<(Micros, PeerId)> = probes
            .iter()
            .map(|&(i, d)| (d, members[i]))
            .min_by_key(|&(d, p)| (d, p));
        for &c in candidates.iter().take(self.verify) {
            let d = target.probe_from(members[c]);
            if best.map(|(bd, bp)| (d, members[c]) < (bd, bp)).unwrap_or(true) {
                best = Some((d, members[c]));
            }
        }
        let (rtt, found) = best.expect("at least one probe");
        QueryOutcome {
            found,
            rtt_to_target: rtt,
            probes: target.probes(),
            hops,
        }
    }
}

/// Convenience: build system + walk and keep them together.
pub fn build_walk<W: np_metric::WorldStore + ?Sized>(
    matrix: &W,
    members: Vec<PeerId>,
    dims: usize,
    seed: u64,
) -> (VivaldiSystem, u64) {
    let cfg = crate::vivaldi::VivaldiConfig {
        dims,
        ..Default::default()
    };
    (VivaldiSystem::build(matrix, members, cfg, seed), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::LatencyMatrix;
    use np_util::rng::rng_from;

    fn grid(side: usize) -> (LatencyMatrix, Vec<PeerId>) {
        let n = side * side;
        let m = LatencyMatrix::build(n, |a, b| {
            let (ax, ay) = (a.idx() % side, a.idx() / side);
            let (bx, by) = (b.idx() % side, b.idx() / side);
            Micros::from_ms(
                (((ax as f64 - bx as f64).powi(2) + (ay as f64 - by as f64).powi(2)).sqrt() * 5.0)
                    .max(0.1),
            )
        });
        (m, (0..n as u32).map(PeerId).collect())
    }

    #[test]
    fn walk_finds_close_peers_in_euclidean_worlds() {
        let (m, all) = grid(9);
        // Hold out every 7th peer as targets.
        let members: Vec<PeerId> = all.iter().copied().filter(|p| p.0 % 7 != 0).collect();
        let (sys, seed) = build_walk(&m, members.clone(), 3, 11);
        let walk = CoordWalk::new(sys, 8, seed);
        let mut rng = rng_from(13);
        let mut good = 0;
        let targets: Vec<PeerId> = all.iter().copied().filter(|p| p.0 % 7 == 0).collect();
        for &t in &targets {
            let tgt = Target::new(t, &m);
            let out = walk.find_nearest(&tgt, &mut rng);
            let truth = m.nearest_within(t, &members).expect("non-empty");
            // Success = within 2x of the true nearest distance.
            if out.rtt_to_target <= m.rtt(truth, t).scale(2.0) + Micros::from_ms(1.0) {
                good += 1;
            }
        }
        assert!(
            good * 10 >= targets.len() * 7,
            "coord walk too weak: {good}/{}",
            targets.len()
        );
    }

    #[test]
    fn walk_fails_under_clustering() {
        // One cluster of 40 ENs x 2 peers: the embedding collapses, so
        // the walk rarely lands on the EN partner (§2.3's claim).
        let g = 40usize;
        let m = LatencyMatrix::build(g * 2, |a, b| {
            if a.idx() / 2 == b.idx() / 2 {
                Micros::from_us(100)
            } else {
                Micros::from_ms_u64(10)
            }
        });
        let members: Vec<PeerId> = (2..(g * 2) as u32).map(PeerId).collect();
        let (sys, seed) = build_walk(&m, members, 3, 17);
        let walk = CoordWalk::new(sys, 8, seed);
        let mut rng = rng_from(19);
        let mut exact = 0;
        for _ in 0..30 {
            let tgt = Target::new(PeerId(0), &m);
            let out = walk.find_nearest(&tgt, &mut rng);
            if out.found == PeerId(1) {
                exact += 1;
            }
        }
        assert!(exact <= 15, "clustering should defeat the walk: {exact}/30");
    }

    #[test]
    fn probes_are_bounded() {
        let (m, members) = grid(8);
        let (sys, seed) = build_walk(&m, members, 3, 23);
        let walk = CoordWalk::new(sys, 8, seed);
        let mut rng = rng_from(29);
        let tgt = Target::new(PeerId(0), &m);
        let out = walk.find_nearest(&tgt, &mut rng);
        assert!(
            out.probes <= (walk.bootstrap_probes + walk.verify) as u64,
            "probe budget exceeded: {}",
            out.probes
        );
    }
}
