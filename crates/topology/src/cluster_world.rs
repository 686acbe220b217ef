//! The paper-§4 cluster world.
//!
//! > "To simulate the clustering condition in the inter-peer latency
//! > matrix, we create clusters of end-networks that in turn contain
//! > peers. [...] we set the mean latency between the cluster-hub and the
//! > end-networks in the cluster to be uniformly distributed between 4 ms
//! > and 6 ms. We use a parameter δ [...] the latency of each end-network
//! > to its cluster-hub is uniformly distributed between (1 − δ) and
//! > (1 + δ) times the mean latency [...] All end-networks in our
//! > simulation contain two peers each. Peers that are both in the same
//! > end-network have a latency of 100 µs between them [...] Two peers in
//! > different end-networks have an inter-peer latency equal to the
//! > latency between the end-networks that contain them (where the path
//! > starts from one peer, goes up to its cluster-hub, across to the
//! > cluster-hub of the second peer, and down to the second peer)."
//!
//! [`ClusterWorld`] implements that construction exactly, with the
//! synthetic [`HubMatrix`] standing in for the Meridian dataset.

use crate::hub::{HubMatrix, MERIDIAN_MEDIAN_MS};
use np_metric::{HierarchicalWorld, LatencyMatrix, PeerId};
use np_util::dist;
use np_util::rng::rng_for;
use np_util::Micros;
use std::sync::Arc;

/// Parameters of the §4 world.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterWorldSpec {
    /// Number of clusters (PoPs).
    pub clusters: usize,
    /// End-networks per cluster.
    pub en_per_cluster: usize,
    /// Peers per end-network (paper: 2).
    pub peers_per_en: usize,
    /// Latency variation parameter δ ∈ [0, 1].
    pub delta: f64,
    /// Range of per-cluster mean hub latency in ms (paper: 4–6 ms).
    pub mean_hub_ms: (f64, f64),
    /// Intra-end-network latency (paper: 100 µs).
    pub intra_en: Micros,
    /// Number of hubs to synthesise the hub matrix over (>= clusters).
    pub hub_pool: usize,
}

impl ClusterWorldSpec {
    /// The paper's Figure 8/9 configuration: ~2,500 peers total, 2 peers
    /// per end-network, the given end-networks per cluster, and as many
    /// clusters as fit the budget.
    ///
    /// # Panics
    /// Panics when `en_per_cluster` is 0.
    pub fn paper(en_per_cluster: usize, delta: f64) -> ClusterWorldSpec {
        assert!(en_per_cluster > 0);
        let peers_per_en = 2;
        let total_peers = 2_500usize;
        let clusters = (total_peers / (en_per_cluster * peers_per_en)).max(1);
        ClusterWorldSpec {
            clusters,
            en_per_cluster,
            peers_per_en,
            delta,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: clusters.max(2),
        }
    }

    /// Total number of peers in the world.
    pub fn total_peers(&self) -> usize {
        self.clusters * self.en_per_cluster * self.peers_per_en
    }
}

/// The generated world: peer labels plus the latency rule.
///
/// Shared state (`hubs`, `en_hub_lat`) sits behind `Arc` so a clone is
/// O(1) — the hierarchical backend retains a clone inside its lazy
/// block generator, and at 2,500 clusters the hub matrix alone is
/// ~25 MB that must not be duplicated.
#[derive(Debug, Clone)]
pub struct ClusterWorld {
    spec: ClusterWorldSpec,
    hubs: Arc<HubMatrix>,
    /// Hub index (into `hubs`) of each cluster.
    cluster_hub: Arc<Vec<usize>>,
    /// Hub latency of each end-network, indexed `cluster * en_per_cluster + en`.
    en_hub_lat: Arc<Vec<Micros>>,
}

impl ClusterWorld {
    /// Generate deterministically from `seed`, synthesising the hub
    /// matrix on up to `threads` workers (the world is the same at any
    /// count).
    ///
    /// Sub-streams: hub matrix `0x485542`, world assignment `0x435754`.
    pub fn generate(spec: ClusterWorldSpec, seed: u64, threads: usize) -> ClusterWorld {
        assert!(
            (0.0..=1.0).contains(&spec.delta),
            "delta must be in [0,1], got {}",
            spec.delta
        );
        assert!(spec.clusters >= 1 && spec.en_per_cluster >= 1 && spec.peers_per_en >= 1);
        let hubs = HubMatrix::synthetic(spec.hub_pool.max(2), MERIDIAN_MEDIAN_MS, seed, threads);
        let mut rng = rng_for(seed, 0x43_57_54);
        let cluster_hub = hubs.pick_hubs(spec.clusters, &mut rng);
        let mut en_hub_lat = Vec::with_capacity(spec.clusters * spec.en_per_cluster);
        for _c in 0..spec.clusters {
            // Per-cluster mean hub latency: U(4 ms, 6 ms).
            let mean_ms = dist::uniform(&mut rng, spec.mean_hub_ms.0, spec.mean_hub_ms.1);
            for _e in 0..spec.en_per_cluster {
                // Per-end-network: U((1-δ)m, (1+δ)m).
                let lat_ms = dist::uniform(
                    &mut rng,
                    (1.0 - spec.delta) * mean_ms,
                    // Half-open sampling; at δ=0 lo==hi and uniform()
                    // returns the mean exactly.
                    (1.0 + spec.delta) * mean_ms,
                );
                en_hub_lat.push(Micros::from_ms(lat_ms));
            }
        }
        ClusterWorld {
            spec,
            hubs: Arc::new(hubs),
            cluster_hub: Arc::new(cluster_hub),
            en_hub_lat: Arc::new(en_hub_lat),
        }
    }

    /// The generation spec.
    pub fn spec(&self) -> &ClusterWorldSpec {
        &self.spec
    }

    /// Total peers.
    pub fn len(&self) -> usize {
        self.spec.total_peers()
    }

    /// True iff the world holds no peers (specs forbid this).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cluster index of a peer.
    #[inline]
    pub fn cluster_of(&self, p: PeerId) -> usize {
        p.idx() / (self.spec.en_per_cluster * self.spec.peers_per_en)
    }

    /// Global end-network index of a peer.
    #[inline]
    pub fn en_of(&self, p: PeerId) -> usize {
        p.idx() / self.spec.peers_per_en
    }

    /// Do two peers share an end-network (the "exact-closest" relation)?
    #[inline]
    pub fn same_en(&self, a: PeerId, b: PeerId) -> bool {
        self.en_of(a) == self.en_of(b)
    }

    /// Do two peers share a cluster?
    #[inline]
    pub fn same_cluster(&self, a: PeerId, b: PeerId) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }

    /// Latency from a peer('s end-network) to its cluster-hub.
    #[inline]
    pub fn hub_latency(&self, p: PeerId) -> Micros {
        self.en_hub_lat[self.en_of(p)]
    }

    /// Ground-truth RTT between two peers, per the paper's three-case
    /// rule.
    pub fn rtt(&self, a: PeerId, b: PeerId) -> Micros {
        if a == b {
            return Micros::ZERO;
        }
        if self.same_en(a, b) {
            return self.spec.intra_en;
        }
        let up = self.hub_latency(a);
        let down = self.hub_latency(b);
        if self.same_cluster(a, b) {
            up + down
        } else {
            let ha = self.cluster_hub[self.cluster_of(a)];
            let hb = self.cluster_hub[self.cluster_of(b)];
            up + self.hubs.rtt(ha, hb) + down
        }
    }

    /// Materialise the dense latency matrix (the object the Meridian
    /// simulator consumes) on `threads` workers.
    ///
    /// `rtt` is a pure function of the generated world, so the parallel
    /// row-blocked build is bit-identical to a serial one at any thread
    /// count.
    pub fn to_matrix(&self, threads: usize) -> LatencyMatrix {
        LatencyMatrix::build_par(self.len(), threads, |a, b| self.rtt(a, b))
    }

    /// Materialise the compressed [`HierarchicalWorld`] backend:
    /// clusters become shards, the level-1 hub summary (per-peer hub
    /// latency + hub-to-hub distance) is read straight from the
    /// generator, and per-cluster blocks are materialised lazily from a
    /// retained O(1) clone of this world, resident only up to
    /// `cache_budget_bytes`.
    ///
    /// At `super_shards == 1` the store is **exact**, not approximate:
    /// the generator's inter-cluster rule *is* `up + hub-to-hub +
    /// down`, and the store reassembles the same whole-microsecond sum,
    /// so it is bit-identical to [`ClusterWorld::to_matrix`] (the
    /// collapse law `tests/world_equivalence.rs` pins). With more than
    /// one super-shard, shards are grouped contiguously and cross-group
    /// hub distances detour through each group's medoid hub — the only
    /// approximation the second level adds on these worlds.
    pub fn to_hierarchical(
        &self,
        super_shards: usize,
        cache_budget_bytes: usize,
    ) -> HierarchicalWorld {
        let n = self.len();
        let shard_of: Vec<u32> = (0..n as u32)
            .map(|i| self.cluster_of(PeerId(i)) as u32)
            .collect();
        let offset: Vec<f32> = (0..n as u32)
            .map(|i| self.hub_latency(PeerId(i)).as_us() as f32)
            .collect();
        let gen = self.clone();
        HierarchicalWorld::build_lazy(
            &shard_of,
            super_shards,
            offset,
            |a, b| {
                if a == b {
                    0
                } else {
                    self.hubs.rtt(self.cluster_hub[a], self.cluster_hub[b]).as_us()
                }
            },
            cache_budget_bytes,
            move |a, b| gen.rtt(a, b),
        )
    }

    /// The peer in the same end-network as `p` (its exact-closest peer),
    /// when end-networks hold exactly two peers.
    pub fn en_partner(&self, p: PeerId) -> Option<PeerId> {
        if self.spec.peers_per_en != 2 {
            return None;
        }
        let base = (p.idx() / 2) * 2;
        let partner = if p.idx() == base { base + 1 } else { base };
        Some(PeerId(partner as u32))
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.len() as u32).map(PeerId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClusterWorld {
        ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 4,
                en_per_cluster: 5,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 8,
            },
            42,
            1,
        )
    }

    #[test]
    fn paper_spec_budget() {
        let s = ClusterWorldSpec::paper(125, 0.2);
        assert_eq!(s.clusters, 10);
        assert_eq!(s.total_peers(), 2_500);
        let s5 = ClusterWorldSpec::paper(5, 0.2);
        assert_eq!(s5.clusters, 250);
    }

    #[test]
    fn labels_partition_peers() {
        let w = small();
        assert_eq!(w.len(), 40);
        // Peer 0,1 share EN 0; peers 0..10 share cluster 0.
        assert!(w.same_en(PeerId(0), PeerId(1)));
        assert!(!w.same_en(PeerId(1), PeerId(2)));
        assert!(w.same_cluster(PeerId(0), PeerId(9)));
        assert!(!w.same_cluster(PeerId(9), PeerId(10)));
        assert_eq!(w.en_partner(PeerId(7)), Some(PeerId(6)));
        assert_eq!(w.en_partner(PeerId(6)), Some(PeerId(7)));
    }

    #[test]
    fn latency_rule_three_cases() {
        let w = small();
        // Same EN: exactly 100 µs.
        assert_eq!(w.rtt(PeerId(0), PeerId(1)), Micros::from_us(100));
        // Same cluster, different EN: sum of hub latencies, within
        // [2*(1-δ)*4, 2*(1+δ)*6] ms.
        let d = w.rtt(PeerId(0), PeerId(2)).as_ms();
        assert!((6.4..=14.4).contains(&d), "intra-cluster rtt {d}");
        // Different clusters: strictly larger (hub-hub >= 2 ms floor).
        let x = w.rtt(PeerId(0), PeerId(11));
        assert!(x > w.rtt(PeerId(0), PeerId(2)));
        // Symmetry + identity.
        assert_eq!(w.rtt(PeerId(3), PeerId(14)), w.rtt(PeerId(14), PeerId(3)));
        assert_eq!(w.rtt(PeerId(5), PeerId(5)), Micros::ZERO);
    }

    #[test]
    fn hub_latencies_respect_delta_band() {
        for &(delta, lo_ms, hi_ms) in &[(0.0, 4.0, 6.0), (0.5, 2.0, 9.0), (1.0, 0.0, 12.0)] {
            let w = ClusterWorld::generate(
                ClusterWorldSpec {
                    clusters: 6,
                    en_per_cluster: 20,
                    peers_per_en: 2,
                    delta,
                    mean_hub_ms: (4.0, 6.0),
                    intra_en: Micros::from_us(100),
                    hub_pool: 6,
                },
                9,
                1,
            );
            for p in w.peers() {
                let h = w.hub_latency(p).as_ms();
                assert!(
                    (lo_ms..=hi_ms).contains(&h),
                    "delta {delta}: hub latency {h} outside [{lo_ms},{hi_ms}]"
                );
            }
        }
    }

    #[test]
    fn delta_zero_means_identical_en_latencies_within_cluster() {
        let w = ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 3,
                en_per_cluster: 10,
                peers_per_en: 2,
                delta: 0.0,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 4,
            },
            5,
            1,
        );
        for c in 0..3u32 {
            let first = w.hub_latency(PeerId(c * 20));
            for p in 0..20u32 {
                assert_eq!(
                    w.hub_latency(PeerId(c * 20 + p)),
                    first,
                    "δ=0 must collapse the cluster to one latency"
                );
            }
        }
    }

    #[test]
    fn matrix_matches_world() {
        let w = small();
        let m = w.to_matrix(1);
        m.validate().expect("valid");
        for a in w.peers() {
            for b in w.peers() {
                assert_eq!(m.rtt(a, b), w.rtt(a, b));
            }
        }
    }

    #[test]
    fn one_super_shard_is_exact_on_cluster_worlds() {
        use np_metric::WorldStore;
        let w = small();
        let one = w.to_hierarchical(1, usize::MAX);
        one.validate().expect("valid");
        assert_eq!(one.n_shards(), 4);
        assert_eq!(WorldStore::len(&one), w.len());
        // The hub summary reassembles the generator's own rule: every
        // pair — intra-EN, intra-cluster, inter-cluster — is exact.
        for a in w.peers() {
            for b in w.peers() {
                assert_eq!(one.rtt(a, b), w.rtt(a, b), "rtt({a},{b})");
            }
        }
        // And it really is compressed relative to the dense bytes.
        let dense = w.to_matrix(1);
        assert!(one.approx_bytes() < WorldStore::approx_bytes(&dense));
    }

    #[test]
    fn two_super_shards_never_underestimate_under_a_starved_cache() {
        use np_metric::WorldStore;
        let w = small();
        // Two super-shards under a starved cache: still exact on this
        // generator within groups, never an underestimate across.
        let two = w.to_hierarchical(2, 1);
        for a in w.peers() {
            for b in w.peers() {
                assert!(two.rtt(a, b) >= w.rtt(a, b), "underestimate rtt({a},{b})");
            }
        }
        assert!(two.cache_stats().evictions > 0);
    }

    #[test]
    fn ground_truth_nearest_is_en_partner() {
        let w = small();
        let m = w.to_matrix(1);
        let members: Vec<PeerId> = w.peers().collect();
        for p in w.peers() {
            let nearest = m.nearest_within(p, &members).expect("others");
            assert_eq!(
                Some(nearest),
                w.en_partner(p),
                "exact-closest must be the end-network partner"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.rtt(PeerId(3), PeerId(29)), b.rtt(PeerId(3), PeerId(29)));
    }

    proptest::proptest! {
        /// The triangle inequality holds across all three latency cases
        /// (the paper's routing construction is metric by design).
        #[test]
        fn prop_triangle_inequality(seed in 0u64..50) {
            let w = ClusterWorld::generate(
                ClusterWorldSpec {
                    clusters: 3,
                    en_per_cluster: 3,
                    peers_per_en: 2,
                    delta: 0.4,
                    mean_hub_ms: (4.0, 6.0),
                    intra_en: Micros::from_us(100),
                    hub_pool: 4,
                },
                seed,
                1,
            );
            let n = w.len() as u32;
            for a in 0..n {
                for b in 0..n {
                    for c in 0..n {
                        let (a, b, c) = (PeerId(a), PeerId(b), PeerId(c));
                        // Hub-matrix triangle violations can exist (real
                        // latency spaces have them too); but the star
                        // construction within a cluster must be metric.
                        if w.same_cluster(a, b) && w.same_cluster(b, c) && w.same_cluster(a, c) {
                            proptest::prop_assert!(
                                w.rtt(a, c) <= w.rtt(a, b) + w.rtt(b, c) + Micros(1)
                            );
                        }
                    }
                }
            }
        }
    }
}
