//! [`AlgoFactory`] impls for the §2.3/§6 baseline schemes.
//!
//! Each factory carries its scheme's configuration and registers under
//! the scheme's canonical name, so experiment specs can sweep the whole
//! family ("all latency-only algorithms collapse under clustering") by
//! name alone.

use crate::beacon::BeaconConfig;
use crate::karger_ruhl::KrConfig;
use crate::tiers::TiersConfig;
use crate::{Beaconing, KargerRuhl, Tapestry, Tiers};
use np_core::experiment::{AlgoContext, AlgoFactory};
use np_metric::NearestPeerAlgo;

/// Karger–Ruhl distance-based sampling.
#[derive(Default)]
pub struct KargerRuhlFactory {
    pub cfg: KrConfig,
}

impl AlgoFactory for KargerRuhlFactory {
    fn name(&self) -> &str {
        "karger-ruhl"
    }

    fn description(&self) -> String {
        format!(
            "Karger-Ruhl distance-based sampling (k={}, {} scales)",
            self.cfg.k, self.cfg.scales
        )
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        Box::new(KargerRuhl::build(
            ctx.store,
            ctx.overlay.to_vec(),
            self.cfg,
            ctx.seed,
        ))
    }
}

/// Tapestry prefix routing with closest-eligible neighbours.
pub struct TapestryFactory;

impl AlgoFactory for TapestryFactory {
    fn name(&self) -> &str {
        "tapestry"
    }

    fn description(&self) -> String {
        "Tapestry identifier-prefix levels, closest-eligible neighbours".into()
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        Box::new(Tapestry::build(ctx.store, ctx.overlay.to_vec(), ctx.seed))
    }
}

/// Tiers hierarchical clustering.
#[derive(Default)]
pub struct TiersFactory {
    pub cfg: TiersConfig,
}

impl AlgoFactory for TiersFactory {
    fn name(&self) -> &str {
        "tiers"
    }

    fn description(&self) -> String {
        format!(
            "Tiers hierarchical clustering (cluster size {})",
            self.cfg.cluster_size
        )
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        Box::new(Tiers::build(
            ctx.store,
            ctx.overlay.to_vec(),
            self.cfg,
            ctx.seed,
        ))
    }
}

/// Beaconing latency-vector indexing.
#[derive(Default)]
pub struct BeaconingFactory {
    pub cfg: BeaconConfig,
}

impl AlgoFactory for BeaconingFactory {
    fn name(&self) -> &str {
        "beaconing"
    }

    fn description(&self) -> String {
        format!("Beaconing latency vectors ({} beacons)", self.cfg.beacons)
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        Box::new(Beaconing::build(
            ctx.store,
            ctx.overlay.to_vec(),
            self.cfg,
            ctx.seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_worlds::line;
    use np_metric::{PeerId, Target};
    use np_topology::{ClusterWorld, ClusterWorldSpec};
    use np_util::rng::rng_from;
    use np_util::Micros;

    #[test]
    fn every_factory_builds_and_answers() {
        let (m, all) = line(40);
        let members: Vec<PeerId> = all[1..].to_vec();
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
            world: &world, // baselines ignore topology metadata
            overlay: &members,
            seed: 5,
            threads: 1,
            shared: &shared,
        };
        let factories: Vec<Box<dyn AlgoFactory>> = vec![
            Box::new(KargerRuhlFactory::default()),
            Box::new(TapestryFactory),
            Box::new(TiersFactory::default()),
            Box::new(BeaconingFactory::default()),
        ];
        for f in &factories {
            let algo = f.build(&ctx);
            assert_eq!(algo.name(), f.name());
            assert!(!f.description().is_empty());
            let t = Target::new(PeerId(0), &m);
            let out = algo.find_nearest(&t, &mut rng_from(2));
            assert!(members.contains(&out.found), "{} broken", f.name());
            assert!(out.probes >= 1);
        }
    }
}
