//! [`AlgoFactory`] for Meridian overlays.
//!
//! Registers the paper's §4 Meridian (omniscient simulator fill,
//! β = 0.5) and the deployable gossip warm-up under distinct names;
//! the harness registry adds the ablation variants via
//! [`MeridianFactory::custom`].

use crate::overlay::{BuildMode, Overlay};
use crate::MeridianConfig;
use np_core::churn::{DynamicAlgo, EpochMembership, RepairCost, EVT_TAG};
use np_core::experiment::{AlgoContext, AlgoFactory, BuildCache};
use np_metric::{NearestPeerAlgo, PeerId, WorldStore};
use np_util::parallel::item_seed;

/// Builds a Meridian [`Overlay`] with a fixed configuration.
pub struct MeridianFactory {
    name: String,
    cfg: MeridianConfig,
    mode: BuildMode,
}

impl MeridianFactory {
    /// The paper's configuration with the simulator's omniscient ring
    /// fill — registry name `"meridian"`.
    pub fn omniscient() -> MeridianFactory {
        MeridianFactory::custom("meridian", MeridianConfig::default(), BuildMode::Omniscient)
    }

    /// The decentralised gossip warm-up — registry name
    /// `"meridian-gossip"`.
    pub fn gossip(rounds: usize, fanout: usize) -> MeridianFactory {
        MeridianFactory::custom(
            "meridian-gossip",
            MeridianConfig::default(),
            BuildMode::Gossip { rounds, fanout },
        )
    }

    /// Any configuration under any registry name (ablations).
    pub fn custom(
        name: impl Into<String>,
        cfg: MeridianConfig,
        mode: BuildMode,
    ) -> MeridianFactory {
        MeridianFactory {
            name: name.into(),
            cfg,
            mode,
        }
    }

    /// The build-cache slot of this factory's ring fill. The fill is a
    /// pure function of (world, members, ring geometry, management
    /// rounds, mode, seed); the context's build cache already scopes
    /// world and seed, and β and the hop budget only steer queries. So
    /// every factory that fills alike — the hybrid coverage sweep, the
    /// β ablations — shares one fill, and one copy of its rings.
    fn fill_key(&self) -> String {
        format!(
            "meridian-rings|{:?}|manage={}|{:?}",
            self.cfg.rings, self.cfg.manage_rounds, self.mode
        )
    }
}

impl AlgoFactory for MeridianFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> String {
        let mode = match self.mode {
            BuildMode::Omniscient => "omniscient fill".to_string(),
            BuildMode::Gossip { rounds, fanout } => {
                format!("gossip warm-up ({rounds} rounds, fanout {fanout})")
            }
        };
        format!(
            "Meridian beta-routing (beta={}, {} manage rounds, {mode})",
            self.cfg.beta, self.cfg.manage_rounds
        )
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        let parts = ctx.shared.get_or_build(&self.fill_key(), || {
            Overlay::build(
                ctx.store,
                ctx.overlay.to_vec(),
                self.cfg,
                self.mode,
                ctx.seed,
                ctx.threads,
            )
            .into_parts()
        });
        // The cached parts may come from a factory with another β or
        // hop budget: the overlay queries with this factory's own cfg.
        let (_, members, rings, origin) = (*parts).clone();
        Box::new(Overlay::from_parts(
            ctx.store, self.cfg, members, rings, origin,
        ))
    }

    fn dynamic_override<'a>(
        &'a self,
        ctx: &AlgoContext<'a>,
    ) -> Option<Box<dyn DynamicAlgo<'a> + 'a>> {
        // Gossip fills have no replayable offer streams, so they take
        // the universal rebuild-each-epoch default.
        if self.mode != BuildMode::Omniscient {
            return None;
        }
        Some(Box::new(MeridianDynamic {
            cfg: self.cfg,
            store: ctx.store,
            seed: ctx.seed,
            threads: ctx.threads,
            overlay: None,
            epoch: 0,
        }))
    }
}

/// Meridian's churn-aware wrapper: incremental overlay repair instead
/// of rebuild-per-epoch.
///
/// Epoch policy:
/// * **epoch 0** — full omniscient fill over the live set at the run
///   seed, so a null churn schedule is bit-identical to the static
///   pipeline;
/// * **join epochs** — full rebuild at `item_seed(seed, EVT_TAG,
///   epoch)`: a joiner changes every node's offer stream, so there is
///   nothing incremental to salvage (and the paper-faithful simulator
///   fill is the reference structure);
/// * **leave-only epochs** — [`Overlay::repair_after_leaves`]:
///   replay only the rings that lost a member, bit-identical to a
///   full rebuild over the survivors (the tentpole contract, pinned
///   in `tests/overlay_repair.rs`);
/// * **drift-only epochs** — no structural work: rings keep their
///   stale fill-time measurements, exactly like a deployed overlay
///   whose members do not refill rings when latencies wander.
struct MeridianDynamic<'a> {
    cfg: MeridianConfig,
    store: &'a dyn WorldStore,
    seed: u64,
    threads: usize,
    overlay: Option<Overlay<'a, dyn WorldStore + 'a>>,
    epoch: u64,
}

impl<'a> MeridianDynamic<'a> {
    fn full_build(&self, seed: u64, live: &[PeerId]) -> Overlay<'a, dyn WorldStore + 'a> {
        Overlay::build(
            self.store,
            live.to_vec(),
            self.cfg,
            BuildMode::Omniscient,
            seed,
            self.threads,
        )
    }
}

impl<'a> DynamicAlgo<'a> for MeridianDynamic<'a> {
    fn advance(&mut self, ep: &'a EpochMembership, _fresh: &'a BuildCache) -> RepairCost {
        let cost = if self.epoch == 0 {
            self.overlay = Some(self.full_build(self.seed, &ep.live));
            RepairCost {
                full_rebuilds: 1,
                ..RepairCost::default()
            }
        } else if !ep.joined.is_empty() {
            let seed = item_seed(self.seed, EVT_TAG, self.epoch);
            self.overlay = Some(self.full_build(seed, &ep.live));
            RepairCost {
                full_rebuilds: 1,
                ..RepairCost::default()
            }
        } else if !ep.departed.is_empty() {
            let stats = self
                .overlay
                .as_mut()
                .expect("advance() runs epoch 0 first")
                .repair_after_leaves(&ep.departed, self.threads);
            RepairCost {
                full_rebuilds: 0,
                rings_replayed: stats.rings_replayed,
                ring_inserts: stats.ring_inserts,
            }
        } else {
            RepairCost::default() // drift-only: rings stay as measured
        };
        self.epoch += 1;
        cost
    }

    fn algo(&self) -> &(dyn NearestPeerAlgo + '_) {
        self.overlay
            .as_ref()
            .expect("advance() must run before algo()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::line_world;
    use np_metric::{PeerId, Target, WorldStore};
    use np_topology::{ClusterWorld, ClusterWorldSpec};
    use np_util::rng::rng_from;
    use np_util::Micros;
    use std::sync::Arc;

    #[test]
    fn factory_builds_a_working_overlay() {
        let spec = ClusterWorldSpec {
            clusters: 3,
            en_per_cluster: 6,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 4,
        };
        let world = ClusterWorld::generate(spec, 3, 1);
        let matrix = world.to_matrix(1);
        let overlay: Vec<PeerId> = world.peers().skip(2).collect();
        let shared = np_core::experiment::BuildCache::new();
        let ctx = AlgoContext {
            store: &matrix,
            world: &world,
            overlay: &overlay,
            seed: 9,
            threads: 2,
            shared: &shared,
        };
        let factory = MeridianFactory::omniscient();
        assert_eq!(factory.name(), "meridian");
        assert!(factory.description().contains("beta=0.5"));
        let algo = factory.build(&ctx);
        assert_eq!(algo.name(), "meridian");
        let t = Target::new(PeerId(0), &matrix);
        let out = algo.find_nearest(&t, &mut rng_from(1));
        assert!(out.probes > 0);
        assert!(overlay.contains(&out.found));
    }

    #[test]
    fn cached_rebuild_is_indistinguishable() {
        // Two builds from one context share the cached ring fill; a
        // build from a fresh context refills from scratch. All three
        // must answer identically — a cache hit is not allowed to be
        // observable.
        let m = line_world(48);
        let members: Vec<PeerId> = (0..48).map(PeerId).collect();
        let world = ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 1,
                en_per_cluster: 1,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 2,
            },
            1,
            1,
        );
        let ctx_for = |shared| AlgoContext {
            store: &m,
            world: &world,
            overlay: &members,
            seed: 33,
            threads: 2,
            shared,
        };
        let shared = np_core::experiment::BuildCache::new();
        let fresh = np_core::experiment::BuildCache::new();
        let factory = MeridianFactory::omniscient();
        let first = factory.build(&ctx_for(&shared));
        let second = factory.build(&ctx_for(&shared)); // cache hit
        let scratch = factory.build(&ctx_for(&fresh)); // full refill
        for t in [3u32, 17, 40] {
            let outs: Vec<_> = [&first, &second, &scratch]
                .iter()
                .map(|algo| {
                    let target = Target::new(PeerId(t), &m);
                    algo.find_nearest(&target, &mut rng_from(9))
                })
                .collect();
            assert_eq!(outs[0], outs[1], "cache hit diverged");
            assert_eq!(outs[0], outs[2], "cache path diverged from scratch build");
        }
    }

    #[test]
    fn query_only_knobs_share_the_fill_and_keep_their_own_answers() {
        // β only steers queries, so a β = 0.25 factory reuses the ring
        // fill a β = 0.5 factory cached — and must still answer with
        // its own β, exactly like a build from a fresh cache.
        let m = line_world(96);
        let members: Vec<PeerId> = (0..48).map(|i| PeerId(2 * i)).collect();
        let world = ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 1,
                en_per_cluster: 1,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 2,
            },
            1,
            1,
        );
        let ctx_for = |shared| AlgoContext {
            store: &m,
            world: &world,
            overlay: &members,
            seed: 21,
            threads: 2,
            shared,
        };
        let base = MeridianFactory::omniscient();
        let with = |cfg| MeridianFactory::custom("variant", cfg, BuildMode::Omniscient);
        let b25 = with(MeridianConfig {
            beta: 0.25,
            ..MeridianConfig::default()
        });
        let unmanaged = with(MeridianConfig {
            manage_rounds: 0,
            ..MeridianConfig::default()
        });
        assert_eq!(b25.fill_key(), base.fill_key());
        assert_ne!(unmanaged.fill_key(), base.fill_key());
        let shared = BuildCache::new();
        let fresh = BuildCache::new();
        let baseline = base.build(&ctx_for(&shared));
        let cached = b25.build(&ctx_for(&shared)); // the β = 0.5 factory's fill
        let uncached = b25.build(&ctx_for(&fresh));
        let answers = |algo: &dyn NearestPeerAlgo| -> Vec<_> {
            (0..48u32)
                .map(|t| {
                    let target = Target::new(PeerId(2 * t + 1), &m);
                    algo.find_nearest(&target, &mut rng_from(u64::from(t)))
                })
                .collect()
        };
        // Both overlays hold the cache's rings, not copies of them.
        type Parts = (
            MeridianConfig,
            Vec<PeerId>,
            Arc<std::collections::HashMap<PeerId, crate::rings::RingSet>>,
            Option<crate::FillOrigin>,
        );
        let parts: Arc<Parts> =
            shared.get_or_build(&base.fill_key(), || unreachable!("the fill is cached"));
        assert_eq!(Arc::strong_count(&parts.2), 3, "cache + two overlays");
        let b25_answers = answers(uncached.as_ref());
        assert_eq!(
            answers(cached.as_ref()),
            b25_answers,
            "shared fill changed the answers"
        );
        assert_ne!(
            answers(baseline.as_ref()),
            b25_answers,
            "beta must matter on this world"
        );
    }

    #[test]
    fn hierarchical_store_fill_matches_dense() {
        // On a §4 world the one-super-shard hub summary is exact, so
        // the factory's fill over the compressed store must answer
        // exactly like the same fill over the dense store.
        let spec = ClusterWorldSpec {
            clusters: 4,
            en_per_cluster: 8,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 5,
        };
        let world = ClusterWorld::generate(spec, 11, 1);
        let matrix = world.to_matrix(1);
        let compressed = world.to_hierarchical(1, usize::MAX);
        let overlay: Vec<PeerId> = world.peers().skip(4).collect();
        let factory = MeridianFactory::omniscient();
        let build_on = |store: &dyn WorldStore| {
            let shared = np_core::experiment::BuildCache::new();
            let ctx = AlgoContext {
                store,
                world: &world,
                overlay: &overlay,
                seed: 13,
                threads: 2,
                shared: &shared,
            };
            let algo = factory.build(&ctx);
            (0..4u32)
                .map(|t| {
                    let target = Target::new(PeerId(t), store);
                    algo.find_nearest(&target, &mut rng_from(t as u64 + 1))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            build_on(&matrix),
            build_on(&compressed),
            "hierarchical-store fill diverged from the dense one"
        );
    }

    #[test]
    fn dynamic_meridian_null_churn_matches_the_static_pipeline() {
        use np_core::churn::{run_dynamic, ChurnConfig};
        use np_core::{run_queries, ClusterScenario};
        let spec = ClusterWorldSpec {
            clusters: 4,
            en_per_cluster: 8,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 5,
        };
        let s = ClusterScenario::build(spec, 8, 3, 1);
        let cfg = ChurnConfig::null(60.0);
        let shared = BuildCache::new();
        let ctx = AlgoContext {
            store: &s.matrix,
            world: &s.world,
            overlay: &s.overlay,
            seed: 7,
            threads: 2,
            shared: &shared,
        };
        let factory = MeridianFactory::omniscient();
        let (dyn_metrics, stats) = run_dynamic(&factory, &ctx, &s, &cfg, 50, 7, 2);
        let static_algo = factory.build(&ctx);
        let static_metrics = run_queries(static_algo.as_ref(), &s, 50, 7, 2);
        assert_eq!(dyn_metrics, static_metrics, "null churn must be invisible");
        assert_eq!(stats.repair.full_rebuilds, 1);
        assert_eq!(stats.repair.rings_replayed, 0);
    }

    #[test]
    fn dynamic_meridian_repairs_under_churn_and_is_thread_invariant() {
        use np_core::churn::{run_dynamic, ChurnConfig};
        use np_core::ClusterScenario;
        let spec = ClusterWorldSpec {
            clusters: 4,
            en_per_cluster: 8,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 5,
        };
        let s = ClusterScenario::build(spec, 8, 5, 1);
        let cfg = ChurnConfig {
            events_per_min: 20.0,
            duration_s: 60.0,
            drift_max_us: 2_000,
            offline_frac: 0.1,
            loss: 0.05,
            retries: 3,
        };
        let factory = MeridianFactory::omniscient();
        let run_at = |threads: usize| {
            let shared = BuildCache::new();
            let ctx = AlgoContext {
                store: &s.matrix,
                world: &s.world,
                overlay: &s.overlay,
                seed: 9,
                threads,
                shared: &shared,
            };
            run_dynamic(&factory, &ctx, &s, &cfg, 60, 9, threads)
        };
        let (metrics, stats) = run_at(1);
        assert!(stats.leaves > 0, "schedule must exercise the repair path");
        // Leave-only epochs went through incremental repair, not rebuild.
        assert!(stats.repair.rings_replayed > 0, "{stats:?}");
        assert!(
            stats.repair.full_rebuilds <= 1 + stats.joins,
            "only epoch 0 and join epochs may rebuild: {stats:?}"
        );
        assert_eq!(metrics.queries, 60);
        assert!(metrics.p_correct_closest > 0.0);
        for threads in [2, 4] {
            assert_eq!(
                (metrics, stats),
                run_at(threads),
                "dynamic meridian diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn gossip_mode_has_no_dynamic_override() {
        let m = line_world(24);
        let members: Vec<PeerId> = (0..24).map(PeerId).collect();
        let world = ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 1,
                en_per_cluster: 1,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 2,
            },
            1,
            1,
        );
        let shared = BuildCache::new();
        let ctx = AlgoContext {
            store: &m,
            world: &world,
            overlay: &members,
            seed: 3,
            threads: 1,
            shared: &shared,
        };
        assert!(MeridianFactory::gossip(4, 4).dynamic_override(&ctx).is_none());
        assert!(MeridianFactory::omniscient().dynamic_override(&ctx).is_some());
    }

    #[test]
    fn factory_build_matches_direct_build() {
        // The factory is sugar, not semantics: same seed ⇒ the same
        // rings and answers as calling Overlay::build directly.
        let m = line_world(32);
        let members: Vec<PeerId> = (0..32).map(PeerId).collect();
        let direct = Overlay::build(
            &m,
            members.clone(),
            MeridianConfig::default(),
            BuildMode::Omniscient,
            21,
            1,
        );
        let fake_world = ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 1,
                en_per_cluster: 1,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 2,
            },
            1,
            1,
        );
        let store: &dyn WorldStore = &m;
        let shared = np_core::experiment::BuildCache::new();
        let ctx = AlgoContext {
            store,
            world: &fake_world, // meridian ignores topology metadata
            overlay: &members,
            seed: 21,
            threads: 4,
            shared: &shared,
        };
        let via_factory = MeridianFactory::omniscient().build(&ctx);
        let t1 = Target::new(PeerId(5), &m);
        let t2 = Target::new(PeerId(5), &m);
        let a = direct.find_nearest(&t1, &mut rng_from(3));
        let b = via_factory.find_nearest(&t2, &mut rng_from(3));
        assert_eq!(a, b);
    }
}
