//! §5 hints over §4 cluster worlds, and the hybrid factory.
//!
//! In the synthetic cluster worlds "sharing an upstream router" is
//! exactly "sharing an end-network", so the UCL registry reduces to an
//! end-network-keyed membership map: [`EnRegistry`]. The
//! [`HybridHintFactory`] combines that registry (at a configurable
//! deployment coverage) with any fallback factory — typically Meridian
//! — reproducing the paper's closing "use them in conjunction"
//! recommendation as one registry entry.

use np_core::experiment::{AlgoContext, AlgoFactory};
use np_core::hybrid::{HintSource, Hybrid};
use np_metric::{NearestPeerAlgo, PeerId};
use np_topology::ClusterWorld;
use np_util::rng::rng_for;
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// UCL hints in a cluster world: registered peers keyed by end-network
/// (= shared first upstream router).
pub struct EnRegistry {
    by_en: HashMap<usize, Vec<PeerId>>,
    en_of: HashMap<PeerId, usize>,
}

impl EnRegistry {
    /// Register a `coverage` fraction of `overlay` (uniformly at
    /// random, seed-deterministic). Every peer — registered or not —
    /// knows its own EN key, as every host knows its first-hop router.
    pub fn build(
        world: &ClusterWorld,
        overlay: &[PeerId],
        coverage: f64,
        seed: u64,
    ) -> EnRegistry {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
        let mut rng = rng_for(seed, 0x48_59_42); // "HYB"
        let mut members = overlay.to_vec();
        members.shuffle(&mut rng);
        let n = (members.len() as f64 * coverage).round() as usize;
        let mut by_en: HashMap<usize, Vec<PeerId>> = HashMap::new();
        for &p in &members[..n] {
            by_en.entry(world.en_of(p)).or_default().push(p);
        }
        let en_of = world.peers().map(|p| (p, world.en_of(p))).collect();
        EnRegistry { by_en, en_of }
    }

    /// Number of registered peers.
    pub fn registered(&self) -> usize {
        // np-lint: allow(D1) — commutative usize sum; order cannot reach results
        self.by_en.values().map(Vec::len).sum()
    }
}

impl HintSource for EnRegistry {
    fn candidates(&self, target: PeerId) -> Vec<PeerId> {
        self.by_en
            .get(&self.en_of[&target])
            .cloned()
            .unwrap_or_default()
    }

    fn name(&self) -> &str {
        "ucl"
    }
}

/// Seed tag offset for the registry draw, kept distinct from the
/// fallback's stream (historical: the ext_hybrid binary used
/// `seed + 7`).
const REGISTRY_SEED_OFFSET: u64 = 7;

/// Factory: [`EnRegistry`] hints at a fixed coverage, any fallback.
pub struct HybridHintFactory<F: AlgoFactory> {
    name: String,
    coverage: f64,
    fallback: F,
}

impl<F: AlgoFactory> HybridHintFactory<F> {
    /// A hybrid registered as `name`, consulting an [`EnRegistry`]
    /// covering `coverage` of the overlay before falling back to
    /// `fallback`'s algorithm.
    pub fn new(name: impl Into<String>, coverage: f64, fallback: F) -> HybridHintFactory<F> {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
        HybridHintFactory {
            name: name.into(),
            coverage,
            fallback,
        }
    }
}

impl<F: AlgoFactory> AlgoFactory for HybridHintFactory<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> String {
        format!(
            "UCL end-network registry at {:.0}% coverage, falling back to {}",
            self.coverage * 100.0,
            self.fallback.name()
        )
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        let hints = EnRegistry::build(
            ctx.world,
            ctx.overlay,
            self.coverage,
            ctx.seed.wrapping_add(REGISTRY_SEED_OFFSET),
        );
        let fallback = self.fallback.build(ctx);
        Box::new(Hybrid::new(hints, fallback))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::experiment::RandomChoiceFactory;
    use np_metric::{Target, WorldStore};
    use np_topology::ClusterWorldSpec;
    use np_util::rng::rng_from;
    use np_util::Micros;

    fn world() -> ClusterWorld {
        ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 4,
                en_per_cluster: 8,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 5,
            },
            11,
            1,
        )
    }

    #[test]
    fn coverage_scales_registration() {
        let w = world();
        let overlay: Vec<PeerId> = w.peers().collect();
        let none = EnRegistry::build(&w, &overlay, 0.0, 1);
        let half = EnRegistry::build(&w, &overlay, 0.5, 1);
        let full = EnRegistry::build(&w, &overlay, 1.0, 1);
        assert_eq!(none.registered(), 0);
        assert_eq!(half.registered(), overlay.len() / 2);
        assert_eq!(full.registered(), overlay.len());
        // Full coverage: every peer's EN partner is a candidate.
        let p = overlay[0];
        assert!(full.candidates(p).contains(&p), "own EN includes self");
    }

    #[test]
    fn hybrid_factory_finds_partner_at_full_coverage() {
        let w = world();
        let matrix = w.to_matrix(1);
        // Hold the first peer out; its EN partner stays in the overlay.
        let overlay: Vec<PeerId> = w.peers().skip(1).collect();
        let target = w.peers().next().unwrap();
        let partner = w.en_partner(target).expect("2 peers per EN");
        let store: &dyn WorldStore = &matrix;
        let shared = np_core::experiment::BuildCache::new();
        let ctx = AlgoContext {
            store,
            world: &w,
            overlay: &overlay,
            seed: 3,
            threads: 1,
            shared: &shared,
        };
        let factory = HybridHintFactory::new("ucl+random", 1.0, RandomChoiceFactory);
        assert_eq!(factory.name(), "ucl+random");
        assert!(factory.description().contains("100%"));
        let algo = factory.build(&ctx);
        assert_eq!(algo.name(), "ucl+random");
        let t = Target::new(target, &matrix);
        let out = algo.find_nearest(&t, &mut rng_from(5));
        assert_eq!(out.found, partner, "full-coverage registry must hit the partner");
    }
}
