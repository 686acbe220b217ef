//! The Upstream Connectivity List (UCL) remedy.
//!
//! Paper §5: *"a mapping is created for each upstream router and peers
//! that have the router in their UCLs: the key here is the IP address of
//! the upstream router, and the value the IP addresses of the peers
//! [...] we could also embed information about the latency between the
//! routers and the end-hosts. Two peers that share upstream routers can
//! now form a rough estimate of their latency to each other as the sum
//! of their latencies to the closest common router. Thus peers can
//! discard, without further probing, other peers that are estimated to
//! be too far away."*

use np_cluster::TraceGraph;
use np_topology::{HostId, InternetModel, RouterId};
use np_util::binned::{BinScale, BinnedScatter};
use np_util::Micros;
use std::collections::HashMap;

/// Pack a `(peer, latency)` record into a map value.
fn pack(peer: HostId, lat: Micros) -> u64 {
    let lat32 = lat.as_us().min(u32::MAX as u64) as u32;
    (u64::from(peer.0) << 32) | u64::from(lat32)
}

/// Unpack a map value.
fn unpack(v: u64) -> (HostId, Micros) {
    (HostId((v >> 32) as u32), Micros(v & 0xFFFF_FFFF))
}

/// The peer-side view: which routers a peer tracks, at what latencies.
///
/// A peer learns its UCL "by running traceroutes to a few different
/// locations in the Internet": every outgoing path starts with the
/// peer's access tree, so the UCL is the first `n` *probe-responsive*
/// routers up the tree, with ping latencies.
pub fn ucl_of(world: &InternetModel, peer: HostId, n: usize) -> Vec<(RouterId, Micros)> {
    world
        .tree_path_to_core(world.attach_router(peer))
        .into_iter()
        .filter(|&r| world.router(r).responsive)
        .take(n)
        .map(|r| (r, world.rtt_host_router(peer, r)))
        .collect()
}

/// The UCL registry over the paper's perfect key-value map: a
/// multimap from router IP to packed `(peer, latency)` records, because
/// one upstream router maps to *all* the peers that track it.
pub struct UclRegistry<'w> {
    world: &'w InternetModel,
    map: HashMap<u32, Vec<u64>>,
    /// How many upstream routers each peer tracks.
    pub track: usize,
}

impl<'w> UclRegistry<'w> {
    pub fn new(world: &'w InternetModel, track: usize) -> Self {
        assert!(track >= 1);
        UclRegistry {
            world,
            map: HashMap::new(),
            track,
        }
    }

    /// Register a peer: one mapping per tracked router.
    pub fn insert(&mut self, peer: HostId) {
        for (r, lat) in ucl_of(self.world, peer, self.track) {
            let key = self.world.router(r).ip.0;
            self.map.entry(key).or_default().push(pack(peer, lat));
        }
    }

    /// Remove a peer's mappings (departure).
    pub fn remove(&mut self, peer: HostId) {
        for (r, _) in ucl_of(self.world, peer, self.track) {
            if let Some(values) = self.map.get_mut(&self.world.router(r).ip.0) {
                values.retain(|&v| unpack(v).0 != peer);
            }
        }
    }

    /// Candidate peers for `peer`: everyone sharing a tracked router,
    /// with the latency *estimate* (sum of the two router latencies),
    /// deduplicated to the best estimate and sorted ascending.
    pub fn candidates(&self, peer: HostId) -> Vec<(HostId, Micros)> {
        let mut best: HashMap<HostId, Micros> = HashMap::new();
        for (r, my_lat) in ucl_of(self.world, peer, self.track) {
            let records = self.map.get(&self.world.router(r).ip.0);
            for &v in records.into_iter().flatten() {
                let (other, their_lat) = unpack(v);
                if other == peer {
                    continue;
                }
                let est = my_lat + their_lat;
                best.entry(other)
                    .and_modify(|e| *e = (*e).min(est))
                    .or_insert(est);
            }
        }
        // np-lint: allow(D1) — sorted by (estimate, host) on the next line; order cannot reach results
        let mut out: Vec<(HostId, Micros)> = best.into_iter().collect();
        out.sort_by_key(|&(h, est)| (est, h));
        out
    }

    /// Candidates estimated closer than `cap` (the discard-without-
    /// probing rule).
    pub fn candidates_within(&self, peer: HostId, cap: Micros) -> Vec<(HostId, Micros)> {
        let mut v = self.candidates(peer);
        v.retain(|&(_, est)| est <= cap);
        v
    }
}

/// Figure 10: `(inter-peer latency ms, router hop-length)` samples for
/// every peer pair within `radius` over the traceroute graph. Each
/// unordered pair is counted once.
pub fn hop_samples(tg: &TraceGraph, peers: &[HostId], radius: Micros) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &p in peers {
        for (q, d, hops) in tg.close_peers(p, radius) {
            if q.0 > p.0 {
                out.push((d.as_ms(), f64::from(hops)));
            }
        }
    }
    out
}

/// Figure 10's binned reduction (log-latency bins, hop percentiles).
pub fn hop_study(tg: &TraceGraph, peers: &[HostId], radius: Micros, bins: usize) -> BinnedScatter {
    BinnedScatter::build(&hop_samples(tg, peers, radius), bins, BinScale::Log)
}

/// One row of the §5 discovery evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryRow {
    /// Routers tracked per peer.
    pub track: usize,
    /// Fraction of peers (with a <`target` true neighbour) whose
    /// registry candidates include such a neighbour.
    pub success: f64,
    /// Mean candidates returned per query (probing cost before the
    /// estimate filter).
    pub mean_candidates: f64,
    /// Mean candidates surviving the 2×target estimate filter.
    pub mean_filtered: f64,
}

/// Evaluate discovery rates for `track = 1..=max_track`: can a peer find
/// some other peer within `target` latency through the registry alone?
///
/// Ground truth ("peer X has a neighbour closer than target") is decided
/// with the world's RTTs over the same `peers` population.
pub fn discovery_study(
    world: &InternetModel,
    peers: &[HostId],
    target: Micros,
    max_track: usize,
) -> Vec<DiscoveryRow> {
    // Ground truth neighbour sets (true RTT within target).
    let mut has_close: Vec<(HostId, Vec<HostId>)> = Vec::new();
    for (i, &p) in peers.iter().enumerate() {
        let mut close = Vec::new();
        for (j, &q) in peers.iter().enumerate() {
            if i != j && world.rtt(p, q) <= target {
                close.push(q);
            }
        }
        if !close.is_empty() {
            has_close.push((p, close));
        }
    }
    let mut rows = Vec::new();
    for track in 1..=max_track {
        let mut reg = UclRegistry::new(world, track);
        for &p in peers {
            reg.insert(p);
        }
        let mut hits = 0usize;
        let mut total_cands = 0usize;
        let mut total_filtered = 0usize;
        for (p, close) in &has_close {
            let cands = reg.candidates(*p);
            total_cands += cands.len();
            let filtered = reg.candidates_within(*p, target.scale(2.0));
            total_filtered += filtered.len();
            if filtered.iter().any(|(h, _)| close.contains(h)) {
                hits += 1;
            }
        }
        let n = has_close.len().max(1) as f64;
        rows.push(DiscoveryRow {
            track,
            success: hits as f64 / n,
            mean_candidates: total_cands as f64 / n,
            mean_filtered: total_filtered as f64 / n,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::WorldParams;

    fn world() -> InternetModel {
        InternetModel::generate(WorldParams::quick_scale(), 47)
    }

    #[test]
    fn pack_roundtrip() {
        let (h, l) = unpack(pack(HostId(12345), Micros::from_ms(7.5)));
        assert_eq!(h, HostId(12345));
        assert_eq!(l, Micros::from_ms(7.5));
    }

    #[test]
    fn ucl_walks_up_the_tree() {
        let w = world();
        let peer = w.azureus_peers().next().expect("peers");
        let ucl = ucl_of(&w, peer, 4);
        assert!(!ucl.is_empty());
        // Latencies grow (weakly) as we go up.
        for pair in ucl.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + Micros::from_ms(2.0));
        }
        // All tracked routers are responsive (a peer cannot learn
        // invisible routers from its traceroutes).
        for &(r, _) in &ucl {
            assert!(w.router(r).responsive);
        }
    }

    #[test]
    fn same_en_peers_find_each_other() {
        let w = world();
        // Two EN peers behind the same responsive gateway.
        let mut by_en = std::collections::HashMap::new();
        for p in w.azureus_peers() {
            if let Some(e) = w.end_net_of(p) {
                if w.router(w.end_nets[e.idx()].gateway).responsive {
                    by_en.entry(e).or_insert_with(Vec::new).push(p);
                }
            }
        }
        let pair = by_en.values().find(|v| v.len() >= 2).expect("shared EN");
        let (a, b) = (pair[0], pair[1]);
        let mut reg = UclRegistry::new(&w, 3);
        reg.insert(a);
        reg.insert(b);
        let cands = reg.candidates(a);
        let hit = cands.iter().find(|(h, _)| *h == b).expect("b discovered");
        // Estimate = sum of both LAN latencies: sub-ms.
        assert!(hit.1 < Micros::from_ms(2.0), "estimate {}", hit.1);
    }

    #[test]
    fn estimates_discard_far_candidates() {
        let w = world();
        let peers: Vec<HostId> = w.azureus_peers().take(400).collect();
        let mut reg = UclRegistry::new(&w, 3);
        for &p in &peers {
            reg.insert(p);
        }
        let p = peers[0];
        for (other, est) in reg.candidates_within(p, Micros::from_ms_u64(10)) {
            // The estimate bounds the truth loosely from above for
            // same-subtree peers (triangle through the common router).
            let truth = w.rtt(p, other);
            assert!(
                truth <= est + Micros::from_ms(2.0),
                "estimate {est} far below truth {truth}"
            );
        }
    }

    #[test]
    fn removal_retracts_mappings() {
        let w = world();
        let peers: Vec<HostId> = w.azureus_peers().take(50).collect();
        let mut reg = UclRegistry::new(&w, 3);
        for &p in &peers {
            reg.insert(p);
        }
        let victim = peers[1];
        reg.remove(victim);
        for &p in &peers {
            if p != victim {
                assert!(
                    !reg.candidates(p).iter().any(|(h, _)| *h == victim),
                    "victim still discoverable"
                );
            }
        }
    }

    #[test]
    fn discovery_improves_with_track_depth() {
        let w = world();
        let peers: Vec<HostId> = w.azureus_peers().step_by(7).take(300).collect();
        let rows = discovery_study(&w, &peers, Micros::from_ms_u64(5), 4);
        assert_eq!(rows.len(), 4);
        // Success is monotone non-decreasing in tracked routers.
        for pair in rows.windows(2) {
            assert!(
                pair[1].success >= pair[0].success - 1e-9,
                "success dropped: {pair:?}"
            );
        }
    }
}
