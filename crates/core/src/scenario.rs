//! The §4 experiment scenario.
//!
//! > "The above setup is used to build inter-peer latency matrices with
//! > about 2500 peers, out of which about 2400 randomly picked peers are
//! > picked to build a Meridian overlay. The 100 remaining peers are used
//! > as target nodes [...] 5000 Meridian closest-neighbor queries are
//! > launched to find the closest peer to randomly chosen target nodes."

use np_metric::{HierarchicalWorld, LatencyMatrix, NearestCache, PeerId, WorldStore};
use np_topology::{ClusterWorld, ClusterWorldSpec};
use np_util::rng::rng_for;
use rand::seq::SliceRandom;
use std::sync::OnceLock;

/// A built scenario: world, latency backend, overlay membership and
/// targets.
///
/// Generic over the [`WorldStore`] backend. The default
/// (`ClusterScenario<LatencyMatrix>`, via [`ClusterScenario::build`] /
/// [`ClusterScenario::paper`]) materialises the dense matrix exactly as
/// the paper does; [`ClusterScenario::build_hierarchical`] materialises
/// the compressed [`HierarchicalWorld`] instead, which is what lets
/// scenarios scale past the dense backend's ~2.5 k-peer memory wall.
/// Both variants draw the **same** overlay/target split from the same
/// RNG stream, so backends are interchangeable run-for-run.
pub struct ClusterScenario<W: WorldStore = LatencyMatrix> {
    pub world: ClusterWorld,
    /// The latency backend (named `matrix` since the dense matrix is
    /// the paper's object; for hierarchical scenarios it is the
    /// compressed store).
    pub matrix: W,
    pub overlay: Vec<PeerId>,
    pub targets: Vec<PeerId>,
    /// Lazily built ground truth for all targets — a pure function of
    /// the fields above, so computing it once per scenario is safe and
    /// saves the per-`run_queries` rescan when many algorithms share
    /// one scenario.
    truth: OnceLock<NearestCache>,
}

impl ClusterScenario<LatencyMatrix> {
    /// Build from a world spec on `threads` workers; `n_targets` peers
    /// are held out (the paper uses 100).
    pub fn build(spec: ClusterWorldSpec, n_targets: usize, seed: u64, threads: usize) -> Self {
        ClusterScenario::build_with(spec, n_targets, seed, threads, |w| w.to_matrix(threads))
    }

    /// The paper's configuration for a given cluster size and δ.
    pub fn paper(en_per_cluster: usize, delta: f64, seed: u64, threads: usize) -> ClusterScenario {
        ClusterScenario::build(ClusterWorldSpec::paper(en_per_cluster, delta), 100, seed, threads)
    }
}

impl ClusterScenario<HierarchicalWorld> {
    /// [`ClusterScenario::build`] over the compressed backend
    /// (`ClusterWorld::to_hierarchical`): same seed ⇒ the same
    /// overlay/target split as the dense build. `threads` bounds the
    /// hub synthesis; blocks are materialised lazily and every block is
    /// a pure function of the world, so the store is bit-identical at
    /// any thread count and any cache temperature.
    pub fn build_hierarchical(
        spec: ClusterWorldSpec,
        n_targets: usize,
        seed: u64,
        super_shards: usize,
        cache_budget_bytes: usize,
        threads: usize,
    ) -> ClusterScenario<HierarchicalWorld> {
        ClusterScenario::build_with(spec, n_targets, seed, threads, |w| {
            w.to_hierarchical(super_shards, cache_budget_bytes)
        })
    }
}

impl<W: WorldStore> ClusterScenario<W> {
    /// Backend-agnostic core: generate the world on `threads` workers,
    /// materialise the latency store with `materialise`, and draw the
    /// overlay/target split. The split's RNG stream (`"SCNR"`) depends
    /// only on the seed, never on the backend.
    fn build_with(
        spec: ClusterWorldSpec,
        n_targets: usize,
        seed: u64,
        threads: usize,
        materialise: impl FnOnce(&ClusterWorld) -> W,
    ) -> ClusterScenario<W> {
        let world = ClusterWorld::generate(spec, seed, threads);
        assert!(
            n_targets < world.len(),
            "cannot hold out {n_targets} of {} peers",
            world.len()
        );
        let matrix = materialise(&world);
        let mut peers: Vec<PeerId> = world.peers().collect();
        let mut rng = rng_for(seed, 0x5343_4E52); // "SCNR"
        peers.shuffle(&mut rng);
        let targets = peers.split_off(peers.len() - n_targets);
        peers.sort_unstable(); // deterministic overlay order
        ClusterScenario {
            world,
            matrix,
            overlay: peers,
            targets,
            truth: OnceLock::new(),
        }
    }

    /// Ground truth: the overlay member closest to `target`.
    pub fn true_nearest(&self, target: PeerId) -> PeerId {
        self.matrix
            .nearest_within(target, &self.overlay)
            .expect("overlay is non-empty")
    }

    /// The precomputed ground-truth cache over all targets, built on
    /// first use (scanning targets on `threads` workers) and shared by
    /// every subsequent query batch on this scenario. The contents are
    /// a pure function of the scenario — `threads` affects only the
    /// first call's wall-clock.
    pub fn nearest_cache(&self, threads: usize) -> &NearestCache {
        self.truth
            .get_or_init(|| NearestCache::build(&self.matrix, &self.overlay, &self.targets, threads))
    }

    /// Does the overlay contain a member in the target's end-network?
    /// (When it does not, "correct closest" is a cluster-mate, and the
    /// query is easy — the paper's targets almost always have their
    /// partner in the overlay.)
    pub fn target_partner_in_overlay(&self, target: PeerId) -> bool {
        self.world
            .en_partner(target)
            .map(|p| self.overlay.binary_search(&p).is_ok())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClusterScenario {
        let spec = ClusterWorldSpec {
            clusters: 5,
            en_per_cluster: 10,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: np_util::Micros::from_us(100),
            hub_pool: 6,
        };
        ClusterScenario::build(spec, 10, 1, 1)
    }

    #[test]
    fn partition_is_clean() {
        let s = small();
        assert_eq!(s.overlay.len() + s.targets.len(), s.world.len());
        for t in &s.targets {
            assert!(
                s.overlay.binary_search(t).is_err(),
                "target {t} leaked into overlay"
            );
        }
    }

    #[test]
    fn paper_scenario_sizes() {
        let s = ClusterScenario::paper(125, 0.2, 2, 1);
        assert_eq!(s.world.len(), 2_500);
        assert_eq!(s.targets.len(), 100);
        assert_eq!(s.overlay.len(), 2_400);
    }

    #[test]
    fn true_nearest_is_partner_when_present() {
        let s = small();
        for &t in &s.targets {
            let partner = s.world.en_partner(t).expect("2 peers per EN");
            if s.target_partner_in_overlay(t) {
                assert_eq!(s.true_nearest(t), partner);
            } else {
                assert_ne!(s.true_nearest(t), partner);
            }
        }
    }

    #[test]
    fn hierarchical_scenario_matches_dense_split_and_truth() {
        let spec = ClusterWorldSpec {
            clusters: 5,
            en_per_cluster: 10,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: np_util::Micros::from_us(100),
            hub_pool: 6,
        };
        let dense = ClusterScenario::build(spec.clone(), 10, 1, 1);
        let hier = ClusterScenario::build_hierarchical(spec, 10, 1, 1, usize::MAX, 1);
        // Same seed ⇒ same overlay/target split regardless of backend.
        assert_eq!(dense.overlay, hier.overlay);
        assert_eq!(dense.targets, hier.targets);
        // On cluster worlds the one-super-shard summary is exact, so
        // ground truth agrees bit-for-bit too.
        for &t in &dense.targets {
            assert_eq!(dense.true_nearest(t), hier.true_nearest(t));
            assert_eq!(
                dense.nearest_cache(2).nearest(t),
                hier.nearest_cache(2).nearest(t)
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ClusterScenario::paper(25, 0.2, 9, 1);
        let b = ClusterScenario::paper(25, 0.2, 9, 1);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.overlay[..50], b.overlay[..50]);
    }
}
