//! The traceroute-derived adjacency graph (paper §5).
//!
//! > "We track the latencies along traceroutes from the Planetlab
//! > vantage points to the different peers to get an approximate
//! > adjacency matrix: the matrix includes the Azureus peers and the
//! > routers along the traceroutes that responded with valid latencies,
//! > and tracks the latencies between the different routers and those
//! > between the routers and the Azureus peers."
//!
//! Edges between consecutive valid hops get the RTT *difference* as
//! their weight (negative differences — jitter artifacts — are
//! discarded; tiny ones are floored, since two hops are never literally
//! co-located at the precision we keep). The final hop connects the last
//! valid router to the peer using the TCP-ping (or traceroute echo)
//! latency. Parallel observations keep the minimum weight.

use np_metric::graph::{Graph, NodeId};
use np_probe::{NoiseConfig, TcpPing, Trace, Tracer};
use np_topology::{HostId, InternetModel, RouterId};
use np_util::rng::sub_seed;
use np_util::Micros;
use std::collections::HashMap;

/// Minimum edge weight (10 µs): below measurement resolution.
const MIN_EDGE: Micros = Micros(10);

/// The graph plus the node-identity maps.
pub struct TraceGraph {
    pub graph: Graph,
    router_node: HashMap<RouterId, NodeId>,
    peer_node: HashMap<HostId, NodeId>,
    node_peer: HashMap<NodeId, HostId>,
}

impl TraceGraph {
    /// Build from traceroutes (all vantage points) and TCP-pings to the
    /// given peers.
    pub fn build(world: &InternetModel, peers: &[HostId], seed: u64) -> TraceGraph {
        let noise = NoiseConfig::default();
        let mut tracer = Tracer::new(world, noise, sub_seed(seed, 41));
        let n_vps = world.vantage_points.len();
        let mut tcp: Vec<TcpPing<'_>> = (0..n_vps)
            .map(|v| {
                TcpPing::new(
                    world,
                    world.vantage_points[v],
                    noise,
                    sub_seed(seed, 42 + v as u64),
                )
            })
            .collect();
        let mut tg = TraceGraph {
            graph: Graph::default(),
            router_node: HashMap::new(),
            peer_node: HashMap::new(),
            node_peer: HashMap::new(),
        };
        // Collect min-weight edges first, then materialise.
        let mut edges: HashMap<(NodeId, NodeId), Micros> = HashMap::new();
        for &peer in peers {
            for (v, ping) in tcp.iter_mut().enumerate() {
                let trace = tracer.trace(v, peer);
                let peer_lat = ping.measure(peer).or(trace.dest_rtt);
                tg.ingest(&trace, peer, peer_lat, &mut edges);
            }
        }
        // Materialise in sorted key order: adjacency-list contents
        // become a pure function of the trace set, not of HashMap
        // bucket order, so any future consumer that walks
        // `Graph::neighbours` inherits determinism for free.
        let mut edge_list: Vec<((NodeId, NodeId), Micros)> = edges
            .into_iter() // np-lint: allow(D1) — collected then sorted by (a, b) below; order cannot reach results
            .collect();
        edge_list.sort_unstable_by_key(|&(k, _)| k);
        for ((a, b), w) in edge_list {
            tg.graph.add_edge(a, b, w);
        }
        tg
    }

    fn router_node(&mut self, r: RouterId) -> NodeId {
        if let Some(&n) = self.router_node.get(&r) {
            return n;
        }
        let n = self.graph.add_node();
        self.router_node.insert(r, n);
        n
    }

    fn peer_node_mut(&mut self, h: HostId) -> NodeId {
        if let Some(&n) = self.peer_node.get(&h) {
            return n;
        }
        let n = self.graph.add_node();
        self.peer_node.insert(h, n);
        self.node_peer.insert(n, h);
        n
    }

    fn ingest(
        &mut self,
        trace: &Trace,
        peer: HostId,
        peer_lat: Option<Micros>,
        edges: &mut HashMap<(NodeId, NodeId), Micros>,
    ) {
        let mut add = |a: NodeId, b: NodeId, w: Micros| {
            let key = if a < b { (a, b) } else { (b, a) };
            let w = w.max(MIN_EDGE);
            edges
                .entry(key)
                .and_modify(|old| *old = (*old).min(w))
                .or_insert(w);
        };
        // Consecutive valid hops.
        let valid: Vec<(RouterId, Micros)> = trace
            .hops
            .iter()
            .filter_map(|h| h.router.map(|r| (r, h.rtt)))
            .collect();
        for w2 in valid.windows(2) {
            let (ra, ta) = w2[0];
            let (rb, tb) = w2[1];
            if let Some(d) = tb.checked_sub(ta) {
                let na = self.router_node(ra);
                let nb = self.router_node(rb);
                add(na, nb, d);
            }
        }
        // Last router -> peer.
        if let (Some(&(last, last_rtt)), Some(peer_rtt)) = (valid.last(), peer_lat) {
            if let Some(d) = peer_rtt.checked_sub(last_rtt) {
                let nr = self.router_node(last);
                let np = self.peer_node_mut(peer);
                add(nr, np, d);
            }
        }
    }

    /// The graph node of a peer, if it got connected.
    pub fn node_of_peer(&self, h: HostId) -> Option<NodeId> {
        self.peer_node.get(&h).copied()
    }

    /// The peer behind a node, if the node is a peer.
    pub fn peer_of_node(&self, n: NodeId) -> Option<HostId> {
        self.node_peer.get(&n).copied()
    }

    /// Number of peers that made it into the graph.
    pub fn connected_peers(&self) -> usize {
        self.peer_node.len()
    }

    /// All peers within `radius` of `peer` over the graph, with
    /// `(peer, distance, edge_hops)`. The paper's "router hop-length"
    /// between a peer pair equals `edge_hops` (routers between them =
    /// `edge_hops - 1`).
    pub fn close_peers(&self, peer: HostId, radius: Micros) -> Vec<(HostId, Micros, u32)> {
        let Some(src) = self.node_of_peer(peer) else {
            return Vec::new();
        };
        self.graph
            .dijkstra_local(src, radius)
            .into_iter()
            .filter_map(|(n, d, h)| self.peer_of_node(n).map(|p| (p, d, h)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::WorldParams;

    fn built() -> (InternetModel, Vec<HostId>, TraceGraph) {
        let world = InternetModel::generate(WorldParams::quick_scale(), 43);
        // Use the TCP-responsive peers (the §5 population).
        let peers: Vec<HostId> = world
            .azureus_peers()
            .filter(|&p| world.host(p).tcp_responsive)
            .collect();
        let tg = TraceGraph::build(&world, &peers, 43);
        (world, peers, tg)
    }

    #[test]
    fn most_responsive_peers_connect() {
        let (_, peers, tg) = built();
        assert!(
            tg.connected_peers() * 10 >= peers.len() * 8,
            "only {}/{} peers connected",
            tg.connected_peers(),
            peers.len()
        );
        assert!(tg.graph.edge_count() > peers.len(), "graph too sparse");
    }

    #[test]
    fn graph_distance_approximates_ground_truth() {
        let (world, _, tg) = built();
        // Same-DSLAM peers: graph distance must be close to true RTT.
        let mut by_attach: HashMap<_, Vec<HostId>> = HashMap::new();
        for &p in tg.peer_node.keys() {
            if world.host(p).route_stable {
                by_attach.entry(world.attach_router(p)).or_default().push(p);
            }
        }
        let mut checked = 0;
        for group in by_attach.values() {
            if group.len() < 2 {
                continue;
            }
            let (a, b) = (group[0], group[1]);
            let truth = world.rtt(a, b);
            let close = tg.close_peers(a, truth.scale(2.0) + Micros::from_ms(5.0));
            if let Some(&(_, d, hops)) = close.iter().find(|&&(p, _, _)| p == b) {
                // TCP accept lag and jitter inflate both sides; accept 2x.
                assert!(
                    d <= truth.scale(2.2) + Micros::from_ms(3.0),
                    "graph distance {d} vs truth {truth}"
                );
                // Ideal meeting point is the shared DSLAM (2 edges), but
                // unstable neighbours contribute parent-level edges the
                // shortest path may legitimately prefer under noise.
                assert!(
                    (2..=4).contains(&hops),
                    "same-DSLAM pair at implausible hop count {hops}"
                );
                checked += 1;
                if checked >= 5 {
                    break;
                }
            }
        }
        assert!(checked >= 1, "no same-attach pair resolvable");
    }

    #[test]
    fn close_peers_of_unknown_host_is_empty() {
        let (world, _, tg) = built();
        // A DNS server was never ingested.
        let dns = world.dns_servers().next().expect("exists");
        assert!(tg.close_peers(dns, Micros::from_ms_u64(10)).is_empty());
    }
}
