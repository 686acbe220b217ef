//! [`AlgoFactory`] for the coordinate greedy walk.

use crate::walk::{build_walk, CoordWalk};
use np_core::experiment::{AlgoContext, AlgoFactory};
use np_metric::NearestPeerAlgo;

/// Builds a Vivaldi system over the scenario and searches it with the
/// greedy walk (paper §2.3's coordinate-scheme family).
pub struct CoordWalkFactory {
    /// Embedding dimensions (the Ext A study uses 3).
    pub dims: usize,
    /// Random neighbours per member for the walk graph.
    pub degree: usize,
}

impl Default for CoordWalkFactory {
    fn default() -> Self {
        CoordWalkFactory { dims: 3, degree: 16 }
    }
}

impl AlgoFactory for CoordWalkFactory {
    fn name(&self) -> &str {
        "coord-walk"
    }

    fn description(&self) -> String {
        format!(
            "Vivaldi coordinates + greedy walk ({}-D, degree {})",
            self.dims, self.degree
        )
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        let (system, walk_seed) = build_walk(ctx.store, ctx.overlay.to_vec(), self.dims, ctx.seed);
        Box::new(CoordWalk::new(system, self.degree, walk_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::{LatencyMatrix, PeerId, Target};
    use np_topology::{ClusterWorld, ClusterWorldSpec};
    use np_util::rng::rng_from;
    use np_util::Micros;

    #[test]
    fn factory_builds_self_contained_walk() {
        let m = LatencyMatrix::build(36, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        });
        let members: Vec<PeerId> = (1..36).map(PeerId).collect();
        let world = ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 1,
                en_per_cluster: 2,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 2,
            },
            1,
            1,
        );
        let shared = np_core::experiment::BuildCache::new();
        let ctx = AlgoContext {
            store: &m,
            world: &world,
            overlay: &members,
            seed: 13,
            threads: 1,
            shared: &shared,
        };
        let factory = CoordWalkFactory::default();
        assert_eq!(factory.name(), "coord-walk");
        let algo = factory.build(&ctx);
        let t = Target::new(PeerId(0), &m);
        let out = algo.find_nearest(&t, &mut rng_from(7));
        assert!(members.contains(&out.found));
        assert!(out.probes >= 1);
    }
}
