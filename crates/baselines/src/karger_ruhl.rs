//! Karger–Ruhl distance-based sampling (STOC 2002).
//!
//! Each node keeps, for every distance scale `2^i`, a bounded sample of
//! peers within that ball. A search repeatedly asks the current node for
//! its samples at scales around the current distance `d`, probes them,
//! and moves to any peer meaningfully closer to the target. In a
//! growth-constrained metric each step succeeds with constant
//! probability; under the clustering condition the scale around `d`
//! holds a huge equidistant sample and progress stalls — the paper's
//! §2.2 argument.

use np_metric::{LatencyMatrix, NearestPeerAlgo, PeerId, QueryOutcome, Target, WorldStore};
use np_util::rng::rng_for;
use np_util::Micros;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct KrConfig {
    /// Sample size per scale.
    pub k: usize,
    /// Smallest scale (µs); scales double upward.
    pub base_scale: Micros,
    /// Number of scales.
    pub scales: usize,
    /// Required improvement factor per accepted move.
    pub gamma: f64,
    /// Hop budget.
    pub max_hops: u32,
}

impl Default for KrConfig {
    fn default() -> Self {
        KrConfig {
            k: 8,
            base_scale: Micros::from_us(500),
            scales: 20,
            gamma: 0.9,
            max_hops: 64,
        }
    }
}

/// The built structure.
///
/// Generic over the latency backend (defaulting to the dense matrix),
/// like every algorithm in the workspace — the same build runs over a
/// [`np_metric::HierarchicalWorld`] or any other [`WorldStore`].
pub struct KargerRuhl<'m, W: WorldStore + ?Sized = LatencyMatrix> {
    /// Kept for API symmetry with overlays that re-measure; the direct
    /// query path only reads it at build time.
    #[allow(dead_code)]
    matrix: &'m W,
    cfg: KrConfig,
    members: Vec<PeerId>,
    /// `samples[member][scale]` = sampled peers within `2^scale·base`.
    samples: HashMap<PeerId, Vec<Vec<PeerId>>>,
}

impl<'m, W: WorldStore + ?Sized> KargerRuhl<'m, W> {
    /// Build by per-scale reservoir sampling from global knowledge (the
    /// idealised construction; gossip converges to the same
    /// distribution).
    pub fn build(
        matrix: &'m W,
        members: Vec<PeerId>,
        cfg: KrConfig,
        seed: u64,
    ) -> KargerRuhl<'m, W> {
        assert!(!members.is_empty());
        let mut rng = rng_for(seed, 0x4B_52); // "KR"
        let mut samples = HashMap::new();
        let mut shuffled = members.clone();
        for &p in &members {
            shuffled.shuffle(&mut rng);
            let mut per_scale: Vec<Vec<PeerId>> = vec![Vec::new(); cfg.scales];
            for &q in &shuffled {
                if q == p {
                    continue;
                }
                let d = matrix.rtt(p, q);
                // Insert into every scale whose ball contains q, smallest
                // first, respecting capacity (random order = fair sample).
                for (s, slot) in per_scale.iter_mut().enumerate() {
                    let radius = cfg.base_scale * (1u64 << s.min(40));
                    if d <= radius && slot.len() < cfg.k {
                        slot.push(q);
                    }
                }
            }
            samples.insert(p, per_scale);
        }
        KargerRuhl {
            matrix,
            cfg,
            members,
            samples,
        }
    }

    fn scale_of(&self, d: Micros) -> usize {
        let mut s = 0;
        while s + 1 < self.cfg.scales && self.cfg.base_scale * (1u64 << (s as u32)) < d {
            s += 1;
        }
        s
    }
}

impl<W: WorldStore + ?Sized> NearestPeerAlgo for KargerRuhl<'_, W> {
    fn name(&self) -> &str {
        "karger-ruhl"
    }

    fn members(&self) -> &[PeerId] {
        &self.members
    }

    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        let mut current = *self.members.choose(rng).expect("non-empty");
        let mut d = target.probe_from(current);
        let mut best = (d, current);
        let mut hops = 0u32;
        loop {
            if hops >= self.cfg.max_hops || d == Micros::ZERO {
                break;
            }
            // Probe the samples at the scale of d and one below.
            let s = self.scale_of(d);
            let mut improved: Option<(Micros, PeerId)> = None;
            let scales = [s.saturating_sub(1), s];
            for &si in &scales {
                for &q in &self.samples[&current][si] {
                    let dq = target.probe_from(q);
                    if dq < best.0 || (dq == best.0 && q < best.1) {
                        best = (dq, q);
                    }
                    if dq < d.scale(self.cfg.gamma)
                        && improved.map(|(bd, bp)| (dq, q) < (bd, bp)).unwrap_or(true)
                    {
                        improved = Some((dq, q));
                    }
                }
                if scales[0] == scales[1] {
                    break;
                }
            }
            match improved {
                Some((dq, q)) => {
                    current = q;
                    d = dq;
                    hops += 1;
                }
                None => break,
            }
        }
        QueryOutcome {
            found: best.1,
            rtt_to_target: best.0,
            probes: target.probes(),
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_worlds::{clustered, line};
    use np_util::rng::rng_from;

    #[test]
    fn near_optimal_on_a_line() {
        let (m, all) = line(64);
        let members: Vec<PeerId> = all.iter().copied().filter(|p| p.0 % 2 == 0).collect();
        let kr = KargerRuhl::build(&m, members.clone(), KrConfig::default(), 1);
        let mut rng = rng_from(2);
        let mut hits = 0;
        let targets: Vec<PeerId> = all.iter().copied().filter(|p| p.0 % 2 == 1).collect();
        for &t in &targets {
            let tgt = Target::new(t, &m);
            let out = kr.find_nearest(&tgt, &mut rng);
            let truth = m.nearest_within(t, &members).expect("non-empty");
            if m.rtt(out.found, t) <= m.rtt(truth, t).scale(2.0) {
                hits += 1;
            }
        }
        assert!(hits * 10 >= targets.len() * 8, "KR too weak: {hits}/{}", targets.len());
    }

    #[test]
    fn degrades_under_clustering() {
        let (m, _) = clustered(50);
        let members: Vec<PeerId> = (2..100).map(PeerId).collect();
        let kr = KargerRuhl::build(&m, members, KrConfig::default(), 3);
        let mut rng = rng_from(4);
        let mut exact = 0;
        for _ in 0..40 {
            let tgt = Target::new(PeerId(0), &m);
            let out = kr.find_nearest(&tgt, &mut rng);
            if out.found == PeerId(1) {
                exact += 1;
            }
        }
        assert!(exact < 20, "clustering should defeat KR: {exact}/40");
    }

    #[test]
    fn sample_capacities_respected() {
        let (m, members) = line(32);
        let cfg = KrConfig::default();
        let kr = KargerRuhl::build(&m, members.clone(), cfg, 5);
        for p in &members {
            for scale in &kr.samples[p] {
                assert!(scale.len() <= cfg.k);
            }
        }
    }

    #[test]
    fn probes_and_hops_accounted() {
        let (m, all) = line(64);
        let members: Vec<PeerId> = all[1..].to_vec();
        let kr = KargerRuhl::build(&m, members, KrConfig::default(), 7);
        let mut rng = rng_from(8);
        let tgt = Target::new(PeerId(0), &m);
        let out = kr.find_nearest(&tgt, &mut rng);
        assert!(out.probes >= 1);
        assert!(out.hops <= KrConfig::default().max_hops);
    }
}
