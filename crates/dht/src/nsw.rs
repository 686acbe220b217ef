//! Navigable-small-world (NSW) graph walk over latency space.
//!
//! The second structured-overlay searcher the ROADMAP asks for: where
//! [`crate::kademlia`] navigates an identifier metric that is blind to
//! latency, NSW builds its graph *in* latency space — each member links
//! to its M nearest-found neighbours at insertion time (Malkov et al.'s
//! greedy-insertion construction), and a query runs greedy descent from
//! several random entry points. This is the strongest graph-walk case
//! for the paper's question: the structure is latency-aware, yet under
//! the paper's clustering condition greedy descent still strands on
//! cluster-local minima, so accuracy should land near the coordinate
//! walk, not near brute force.
//!
//! Determinism: the insertion order is a seeded shuffle, every walk
//! breaks ties by peer id, and adjacency lists are kept sorted — so the
//! graph is a pure function of `(overlay, seed)` and identical on both
//! latency backends (their RTT reads are bit-identical by the PR 2
//! equivalence contract). Build-time RTT reads between members are
//! free (overlay-maintenance knowledge, per the module contract in
//! `np_metric::nearest`); only query-time probes of the *target* are
//! counted, via [`Target::try_probe_from`], so churn-path faults are
//! observed.

use np_metric::{NearestPeerAlgo, PeerId, QueryOutcome, Target, WorldStore};
use np_util::parallel::item_seed;
use np_util::rng::rng_from;
use np_util::Micros;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Seed tag isolating the NSW insertion-order shuffle from every other
/// stream in the workspace.
const NSW_TAG: u64 = 0x4E_5357; // "NSW"

/// Hashes the member indices that key the build's `seen` map and the
/// walk's probe memo, both hit on every neighbour evaluation. The keys
/// are internal indices, never outside input, so one multiply (as in
/// FxHash) does, and SipHash's flood resistance would buy nothing. No
/// result depends on map order: `seen` is sorted before use and the
/// memo is only looked up.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(i)).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

type IndexHash = BuildHasherDefault<IndexHasher>;

/// Graph-construction and walk parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NswConfig {
    /// Links created per inserted node (the classic NSW `M`; earlier
    /// nodes accumulate more as later insertions link back).
    pub m: usize,
    /// Independent greedy walks per query, each from a random entry
    /// point — multi-start is NSW's standard local-minimum hedge.
    pub starts: usize,
}

impl Default for NswConfig {
    fn default() -> Self {
        NswConfig { m: 5, starts: 3 }
    }
}

/// The built graph: members plus sorted adjacency, indexed densely.
/// Owns no scenario borrows, so one build is shared through the
/// [`np_core::experiment::BuildCache`] across variants and epochs.
#[derive(Debug)]
pub struct NswGraph {
    members: Vec<PeerId>,
    /// `adj[i]` = neighbour indices of `members[i]`, sorted ascending.
    adj: Vec<Vec<u32>>,
}

impl NswGraph {
    /// Greedy seeded insertion: shuffle the members by `seed`, insert
    /// one at a time, and link each to the `m` nearest nodes its entry
    /// walk evaluated.
    pub fn build(store: &dyn WorldStore, members: &[PeerId], m: usize, seed: u64) -> NswGraph {
        assert!(!members.is_empty(), "empty overlay");
        assert!(m >= 1, "degenerate NSW link count");
        let members = members.to_vec();
        let n = members.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng_from(item_seed(seed, NSW_TAG, 0)));
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut placed: Vec<u32> = Vec::with_capacity(n);
        for &u in &order {
            if let Some(&entry) = placed.first() {
                // Greedy walk towards u from the first-inserted node,
                // recording the RTT of every node evaluated.
                let mut seen: HashMap<u32, Micros, IndexHash> = HashMap::default();
                let mut cur = entry;
                let mut cur_d = store.rtt(members[u as usize], members[entry as usize]);
                seen.insert(entry, cur_d);
                loop {
                    let mut next: Option<(Micros, u32)> = None;
                    for &nb in &adj[cur as usize] {
                        let d = *seen
                            .entry(nb)
                            .or_insert_with(|| store.rtt(members[u as usize], members[nb as usize]));
                        if next.map(|(bd, bp)| (d, nb) < (bd, bp)).unwrap_or(true) {
                            next = Some((d, nb));
                        }
                    }
                    match next {
                        Some((d, nb)) if (d, nb) < (cur_d, cur) => {
                            cur = nb;
                            cur_d = d;
                        }
                        _ => break,
                    }
                }
                // Link u to the m nearest evaluated nodes (ties by
                // index — deterministic).
                // np-lint: allow(D1) — sorted by (distance, index) on the next line; order cannot reach results
                let mut cand: Vec<(Micros, u32)> = seen.into_iter().map(|(i, d)| (d, i)).collect();
                cand.sort_unstable();
                for &(_, v) in cand.iter().take(m) {
                    adj[u as usize].push(v);
                    adj[v as usize].push(u);
                }
            }
            placed.push(u);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        NswGraph { members, adj }
    }

    /// The membership the graph was built over.
    pub fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// Total directed edge count (build telemetry; ≥ 2·m·(n−1) minus
    /// dedup is the expected shape).
    pub fn edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }
}

/// The query-time walker: multi-start greedy descent on the built graph.
pub struct NswWalk {
    graph: Arc<NswGraph>,
    cfg: NswConfig,
}

impl NswWalk {
    pub fn new(graph: Arc<NswGraph>, cfg: NswConfig) -> NswWalk {
        assert!(cfg.starts >= 1, "degenerate NSW start count");
        NswWalk { graph, cfg }
    }
}

impl NearestPeerAlgo for NswWalk {
    fn name(&self) -> &str {
        "nsw"
    }

    fn members(&self) -> &[PeerId] {
        self.graph.members()
    }

    fn find_nearest(&self, target: &Target<'_>, rng: &mut StdRng) -> QueryOutcome {
        let members = self.graph.members();
        let n = members.len();
        // Per-query measurement memory: the coordinator caches each
        // member's probed RTT, so revisits across walks cost nothing
        // and dead peers are not re-tried.
        let mut probed: HashMap<u32, Option<Micros>, IndexHash> = HashMap::default();
        let mut best: Option<(Micros, PeerId)> = None;
        let mut fallback: Option<PeerId> = None;
        let mut hops = 0u32;
        let probe = |i: u32,
                     probed: &mut HashMap<u32, Option<Micros>, IndexHash>,
                     best: &mut Option<(Micros, PeerId)>,
                     fallback: &mut Option<PeerId>| {
            *probed.entry(i).or_insert_with(|| {
                let p = members[i as usize];
                fallback.get_or_insert(p);
                let d = target.try_probe_from(p)?;
                if best.map(|(bd, bp)| (d, p) < (bd, bp)).unwrap_or(true) {
                    *best = Some((d, p));
                }
                Some(d)
            })
        };
        for _ in 0..self.cfg.starts.min(n) {
            // Each walk enters at a random member ("initiates a
            // closest-peer query at a random peer").
            let start = loop {
                let i = rng.gen_range(0..n) as u32;
                if members[i as usize] != target.id() {
                    break i;
                }
            };
            let mut cur = start;
            let mut cur_d = match probe(cur, &mut probed, &mut best, &mut fallback) {
                Some(d) => d,
                None => continue, // dead entry point: next walk
            };
            loop {
                // Probe every neighbour, then descend to the best one
                // if it improves on the current node.
                let mut next: Option<(Micros, u32)> = None;
                for &nb in &self.graph.adj[cur as usize] {
                    if members[nb as usize] == target.id() {
                        continue;
                    }
                    let Some(d) = probe(nb, &mut probed, &mut best, &mut fallback) else {
                        continue; // dead neighbour
                    };
                    if next.map(|(bd, bp)| (d, nb) < (bd, bp)).unwrap_or(true) {
                        next = Some((d, nb));
                    }
                }
                match next {
                    Some((d, nb)) if d < cur_d => {
                        cur = nb;
                        cur_d = d;
                        hops += 1;
                    }
                    _ => break, // local minimum
                }
            }
        }
        let (rtt, found) = best.unwrap_or_else(|| {
            // Every probed member dead: answer the first one attempted
            // with an infinite measured RTT rather than aborting.
            (
                Micros::INFINITY,
                fallback.expect("at least one walk started"),
            )
        });
        QueryOutcome {
            found,
            rtt_to_target: rtt,
            probes: target.probes(),
            hops,
        }
    }
}

/// [`np_core::experiment::AlgoFactory`] for the NSW walk. The graph —
/// the expensive part — is keyed by `m` in the build cache, so the
/// standard entry and every `nsw-*` variant over one scenario share it
/// when their `m` matches.
pub struct NswFactory {
    name: String,
    cfg: NswConfig,
}

impl NswFactory {
    /// The standard `nsw` registry entry.
    pub fn new() -> NswFactory {
        NswFactory::with_config("nsw", NswConfig::default())
    }

    /// A named variant (`nsw-m10`, ...) with explicit parameters.
    pub fn with_config(name: impl Into<String>, cfg: NswConfig) -> NswFactory {
        assert!(cfg.m >= 1 && cfg.starts >= 1, "degenerate NSW config");
        NswFactory {
            name: name.into(),
            cfg,
        }
    }

    /// The configured parameters (exposed for spec-module descriptions).
    pub fn config(&self) -> NswConfig {
        self.cfg
    }
}

impl Default for NswFactory {
    fn default() -> Self {
        NswFactory::new()
    }
}

impl np_core::experiment::AlgoFactory for NswFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> String {
        format!(
            "navigable small-world greedy walk (M={}, {} starts)",
            self.cfg.m, self.cfg.starts
        )
    }

    fn build<'a>(
        &self,
        ctx: &np_core::experiment::AlgoContext<'a>,
    ) -> Box<dyn NearestPeerAlgo + 'a> {
        let key = format!("nsw-graph-m{}", self.cfg.m);
        let graph = ctx.shared.get_or_build(&key, || {
            NswGraph::build(ctx.store, ctx.overlay, self.cfg.m, ctx.seed)
        });
        Box::new(NswWalk::new(graph, self.cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::LatencyMatrix;

    fn line_matrix(n: usize) -> LatencyMatrix {
        LatencyMatrix::build(n, |a, b| {
            Micros::from_ms_u64((a.0 as i64 - b.0 as i64).unsigned_abs())
        })
    }

    fn build_walk(n: u32, cfg: NswConfig, seed: u64) -> (LatencyMatrix, NswWalk) {
        let m = line_matrix(n as usize);
        let members: Vec<PeerId> = (1..n).map(PeerId).collect();
        let graph = Arc::new(NswGraph::build(&m, &members, cfg.m, seed));
        (m, NswWalk::new(graph, cfg))
    }

    #[test]
    fn build_links_every_node() {
        let m = line_matrix(100);
        let members: Vec<PeerId> = (1..100).map(PeerId).collect();
        let g = NswGraph::build(&m, &members, 4, 7);
        assert_eq!(g.members().len(), 99);
        for (i, list) in g.adj.iter().enumerate() {
            assert!(!list.is_empty(), "node {i} isolated");
            assert!(list.windows(2).all(|w| w[0] < w[1]), "adjacency sorted");
            assert!(!list.contains(&(i as u32)), "no self loop at {i}");
        }
        assert!(g.edges() >= 2 * (g.members().len() - 1));
    }

    #[test]
    fn build_is_seed_deterministic_and_seed_sensitive() {
        let m = line_matrix(80);
        let members: Vec<PeerId> = (1..80).map(PeerId).collect();
        let a = NswGraph::build(&m, &members, 4, 11);
        let b = NswGraph::build(&m, &members, 4, 11);
        assert_eq!(a.adj, b.adj, "same seed, same graph");
        let c = NswGraph::build(&m, &members, 4, 12);
        assert_ne!(a.adj, c.adj, "insertion order should differ by seed");
    }

    #[test]
    fn walk_descends_on_a_line_world() {
        // On a line, greedy descent cannot strand: every step towards
        // the target improves, so the walk finds the true nearest.
        let (m, walk) = build_walk(200, NswConfig { m: 4, starts: 3 }, 5);
        let t = Target::new(PeerId(0), &m);
        let out = walk.find_nearest(&t, &mut rng_from(8));
        assert_eq!(out.found, PeerId(1), "line worlds have no local minima");
        assert!(out.probes >= 1);
        assert!(out.hops >= 1, "descent must move");
    }

    #[test]
    fn walk_is_rng_deterministic() {
        let (m, walk) = build_walk(120, NswConfig::default(), 3);
        let t1 = Target::new(PeerId(0), &m);
        let t2 = Target::new(PeerId(0), &m);
        let a = walk.find_nearest(&t1, &mut rng_from(21));
        let b = walk.find_nearest(&t2, &mut rng_from(21));
        assert_eq!(a, b);
    }

    #[test]
    fn probes_are_cached_within_a_query() {
        // Three walks over a tiny graph revisit nodes; the coordinator
        // cache means each member is probed at most once.
        let (m, walk) = build_walk(20, NswConfig { m: 3, starts: 3 }, 2);
        let t = Target::new(PeerId(0), &m);
        let out = walk.find_nearest(&t, &mut rng_from(4));
        assert!(
            out.probes <= 19,
            "no member probed twice: {} probes",
            out.probes
        );
    }

    #[test]
    fn blackout_yields_fallback_with_infinite_rtt() {
        use np_metric::FaultPlan;
        let m = line_matrix(30);
        let members: Vec<PeerId> = (1..30).map(PeerId).collect();
        let graph = Arc::new(NswGraph::build(&m, &members, 3, 9));
        let walk = NswWalk::new(graph, NswConfig { m: 3, starts: 2 });
        let t = Target::with_faults(
            PeerId(0),
            &m,
            FaultPlan {
                loss: 1.0,
                attempts: 2,
                seed: 3,
            },
        );
        let out = walk.find_nearest(&t, &mut rng_from(5));
        assert!(members.contains(&out.found));
        assert_eq!(out.rtt_to_target, Micros::INFINITY);
        assert!(out.probes >= 2, "failed attempts are still counted");
    }

    #[test]
    fn never_returns_the_target_itself() {
        let m = line_matrix(40);
        let members: Vec<PeerId> = (0..40).map(PeerId).collect(); // target included
        let graph = Arc::new(NswGraph::build(&m, &members, 3, 1));
        let walk = NswWalk::new(graph, NswConfig::default());
        for seed in 0..8 {
            let t = Target::new(PeerId(7), &m);
            let out = walk.find_nearest(&t, &mut rng_from(seed));
            assert_ne!(out.found, PeerId(7));
        }
    }
}
