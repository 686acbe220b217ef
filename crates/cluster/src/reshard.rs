//! Measured re-sharding: pruned Azureus clusters as the shard map of a
//! compressed latency store.
//!
//! The synthetic pipelines shard a `ClusterWorld` by its *generating*
//! cluster ids; this module closes the loop the ROADMAP's re-sharding
//! item left open — the shard assignment comes from the §3.2
//! measurement pipeline itself (traceroute hub agreement, TCP-ping
//! latencies, 1.5× pruning), never from ground truth. Every responsive
//! peer that survived into a pruned cluster is assigned that cluster's
//! shard; everyone else — unstable route, multihomed, pruned away —
//! spills through [`HierarchicalWorld::NO_SHARD`], the sentinel path
//! the compressor already resolves into appended singleton shards with
//! exact (identity-offset) distances.
//!
//! [`MeasuredShards::compress`] turns the assignment into the
//! compressed store, which groups the measured shards under super-hubs
//! and keeps resident blocks under a byte budget.

use crate::azureus::AzureusStudy;
use np_metric::{HierarchicalWorld, LatencyMatrix};
use np_topology::HostId;
use std::collections::HashMap;
use std::sync::Arc;

/// A measured shard assignment over the responsive Azureus population:
/// `peers[i]` is the host behind [`PeerId`]`(i)`, `shard_of[i]` its
/// pruned-cluster index or [`HierarchicalWorld::NO_SHARD`].
#[derive(Debug, Clone)]
pub struct MeasuredShards {
    /// The peer population, in the study's (deterministic) responsive
    /// order — the latency matrix handed to the compressors must index
    /// peers identically.
    pub peers: Vec<HostId>,
    /// Per-peer shard: the index into the study's pruned cluster list,
    /// or [`HierarchicalWorld::NO_SHARD`] for peers outside every
    /// pruned cluster.
    pub shard_of: Vec<u32>,
    /// How many peers carry a measured shard (the rest spill).
    pub clustered: usize,
    /// Number of measured shards (pruned clusters).
    pub n_shards: usize,
}

impl MeasuredShards {
    /// Derive the assignment from a finished study: pruned cluster `s`
    /// becomes shard `s`, everyone else spills.
    pub fn from_study(study: &AzureusStudy) -> MeasuredShards {
        let mut of_host: HashMap<HostId, u32> = HashMap::new();
        for (s, cluster) in study.pruned.iter().enumerate() {
            for &(host, _) in &cluster.members {
                let prev = of_host.insert(host, s as u32);
                assert!(prev.is_none(), "host {host:?} in two pruned clusters");
            }
        }
        let peers = study.responsive.clone();
        let shard_of: Vec<u32> = peers
            .iter()
            .map(|h| {
                of_host
                    .get(h)
                    .copied()
                    .unwrap_or(HierarchicalWorld::NO_SHARD)
            })
            .collect();
        let clustered = shard_of
            .iter()
            .filter(|&&s| s != HierarchicalWorld::NO_SHARD)
            .count();
        MeasuredShards {
            peers,
            shard_of,
            clustered,
            n_shards: study.pruned.len(),
        }
    }

    /// How many peers the assignment covers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True only for an empty study.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Compress `matrix` (measured latencies, indexed like `peers`)
    /// under the measured assignment: measured shards grouped under
    /// `super_shards` super-hubs, lazily materialised blocks bounded by
    /// `cache_budget_bytes`. Spilled peers resolve through the sentinel
    /// path into exact singleton shards.
    pub fn compress(
        &self,
        matrix: &Arc<LatencyMatrix>,
        super_shards: usize,
        cache_budget_bytes: usize,
    ) -> HierarchicalWorld {
        assert_eq!(
            matrix.len(),
            self.peers.len(),
            "matrix must index the responsive population"
        );
        HierarchicalWorld::compress(matrix, &self.shard_of, super_shards, cache_budget_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::{PeerId, WorldStore};
    use np_topology::{InternetModel, WorldParams};

    fn tiny_study() -> (InternetModel, AzureusStudy) {
        let mut params = WorldParams::quick_scale();
        params.n_azureus = 1_500;
        let world = InternetModel::generate(params, 77);
        let study = crate::azureus::run(&world, None, 77);
        (world, study)
    }

    #[test]
    fn assignment_covers_exactly_the_pruned_clusters() {
        let (_, study) = tiny_study();
        let shards = MeasuredShards::from_study(&study);
        assert_eq!(shards.len(), study.responsive.len());
        let pruned_total: usize = study.pruned.iter().map(|c| c.len()).sum();
        // Pruned-cluster members that were responsive carry a shard;
        // a surviving-but-unresponsive host cannot exist (survivors
        // are a subset of responsive), so the counts line up exactly.
        assert_eq!(shards.clustered, pruned_total);
        assert!(shards.clustered > 0, "quick world yields clusters");
        assert!(
            shards.clustered < shards.len(),
            "attrition must spill someone"
        );
        // Every assigned shard id is a valid pruned-cluster index.
        for &s in &shards.shard_of {
            assert!(s == HierarchicalWorld::NO_SHARD || (s as usize) < shards.n_shards);
        }
    }

    #[test]
    fn measured_compress_is_exact_within_shards_and_for_spills() {
        let (world, study) = tiny_study();
        let shards = MeasuredShards::from_study(&study);
        let matrix = Arc::new(LatencyMatrix::build(shards.len(), |a, b| {
            world.rtt(shards.peers[a.idx()], shards.peers[b.idx()])
        }));
        let store = shards.compress(&matrix, 1, 1 << 20);
        assert_eq!(store.len(), shards.len());
        // Same-shard distances come out of the dense per-shard block —
        // exact; a spilled peer's distances take a single-detour path
        // that is exact against its own appended hub row.
        let by_shard = |p: usize| shards.shard_of[p];
        let mut checked_same = 0;
        for a in 0..shards.len().min(200) {
            for b in 0..shards.len().min(200) {
                let (pa, pb) = (PeerId(a as u32), PeerId(b as u32));
                if by_shard(a) == by_shard(b) && by_shard(a) != HierarchicalWorld::NO_SHARD {
                    assert_eq!(store.rtt(pa, pb), matrix.rtt(pa, pb));
                    checked_same += 1;
                } else {
                    // Inter-shard and spill paths never underestimate.
                    assert!(store.rtt(pa, pb) >= matrix.rtt(pa, pb));
                }
            }
        }
        assert!(checked_same > 0, "some same-shard pair was checked");
    }

    #[test]
    fn grouped_compress_never_underestimates_the_measured_matrix() {
        let (world, study) = tiny_study();
        let shards = MeasuredShards::from_study(&study);
        let matrix = Arc::new(LatencyMatrix::build(shards.len(), |a, b| {
            world.rtt(shards.peers[a.idx()], shards.peers[b.idx()])
        }));
        // Several super-shards stay an overestimate-only approximation.
        let grouped = shards.compress(&matrix, 4, 1 << 20);
        assert_eq!(grouped.n_super_shards(), 4);
        for a in (0..shards.len()).step_by(13) {
            for b in (0..shards.len()).step_by(17) {
                let (pa, pb) = (PeerId(a as u32), PeerId(b as u32));
                assert!(grouped.rtt(pa, pb) >= matrix.rtt(pa, pb));
            }
        }
    }
}
