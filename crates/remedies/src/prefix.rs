//! The IP-prefix remedy and its error study (paper §5, Figure 11).
//!
//! The heuristic keys peers by a fixed-length prefix of their IP
//! address. The evaluation measures, per peer and prefix length, the
//! false-positive rate (peers sharing the prefix but farther than 10 ms)
//! and false-negative rate (peers within 10 ms but with a different
//! prefix) — the paper finds no sweet spot, and multihomed
//! (provider-independent) networks keep the false-negative floor up.

use np_cluster::TraceGraph;
use np_topology::{HostId, InternetModel};
use np_util::Micros;
use std::collections::{HashMap, HashSet};

/// Per-length error rates (medians across peers).
#[derive(Debug, Clone, Copy)]
pub struct ErrorRow {
    pub prefix_len: u8,
    pub false_positive: f64,
    pub false_negative: f64,
    /// Peers contributing (those with ≥1 close neighbour).
    pub population: usize,
}

/// The Figure 11 study: close sets come from the traceroute graph
/// (≤ `radius`), prefixes from the peers' IPs.
pub fn error_study(
    world: &InternetModel,
    tg: &TraceGraph,
    peers: &[HostId],
    radius: Micros,
    lengths: impl IntoIterator<Item = u8>,
) -> Vec<ErrorRow> {
    // Close sets once.
    let close: HashMap<HostId, HashSet<HostId>> = peers
        .iter()
        .map(|&p| {
            (
                p,
                tg.close_peers(p, radius)
                    .into_iter()
                    .map(|(q, _, _)| q)
                    .collect(),
            )
        })
        .collect();
    let contributors: Vec<HostId> = peers
        .iter()
        .copied()
        .filter(|p| !close[p].is_empty())
        .collect();
    let mut rows = Vec::new();
    for len in lengths {
        // Bucket sizes by prefix.
        let mut buckets: HashMap<u32, usize> = HashMap::new();
        for &p in peers {
            *buckets.entry(world.host(p).ip.prefix_bits(len)).or_insert(0) += 1;
        }
        let mut fps = Vec::new();
        let mut fns = Vec::new();
        for &p in &contributors {
            let my_bits = world.host(p).ip.prefix_bits(len);
            let sharing_total = buckets[&my_bits] - 1;
            let close_set = &close[&p];
            let close_sharing = close_set
                .iter()
                .filter(|q| world.host(**q).ip.prefix_bits(len) == my_bits)
                .count();
            let far_total = peers.len() - 1 - close_set.len();
            let fp_num = sharing_total - close_sharing;
            if far_total > 0 {
                fps.push(fp_num as f64 / far_total as f64);
            }
            fns.push((close_set.len() - close_sharing) as f64 / close_set.len() as f64);
        }
        rows.push(ErrorRow {
            prefix_len: len,
            false_positive: np_util::stats::median(&fps).unwrap_or(0.0),
            false_negative: np_util::stats::median(&fns).unwrap_or(0.0),
            population: contributors.len(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::WorldParams;

    fn setup() -> (InternetModel, Vec<HostId>, TraceGraph) {
        let world = InternetModel::generate(WorldParams::quick_scale(), 53);
        let peers: Vec<HostId> = world
            .azureus_peers()
            .filter(|&p| world.host(p).tcp_responsive || world.host(p).icmp_responsive)
            .collect();
        let tg = TraceGraph::build(&world, &peers, 53);
        (world, peers, tg)
    }

    #[test]
    fn fp_falls_and_fn_rises_with_length() {
        let (world, peers, tg) = setup();
        let rows = error_study(
            &world,
            &tg,
            &peers,
            Micros::from_ms_u64(10),
            [8u8, 16, 24],
        );
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].false_positive > rows[2].false_positive,
            "FP must fall with longer prefixes: {rows:?}"
        );
        assert!(
            rows[0].false_negative <= rows[2].false_negative,
            "FN must rise with longer prefixes: {rows:?}"
        );
        assert!(rows[0].population > 20, "population {}", rows[0].population);
    }

    #[test]
    fn no_sweet_spot_exists() {
        // The paper's conclusion: at every length, FP > 0.1 or FN
        // substantially > 0.
        let (world, peers, tg) = setup();
        let rows = error_study(
            &world,
            &tg,
            &peers,
            Micros::from_ms_u64(10),
            (8..=24).step_by(2).map(|l| l as u8),
        );
        let sweet = rows
            .iter()
            .find(|r| r.false_positive < 0.05 && r.false_negative < 0.05);
        assert!(sweet.is_none(), "unexpected sweet spot: {sweet:?}");
    }

    #[test]
    fn rates_are_valid_probabilities() {
        let (world, peers, tg) = setup();
        for r in error_study(&world, &tg, &peers, Micros::from_ms_u64(10), [12u8, 20]) {
            assert!((0.0..=1.0).contains(&r.false_positive));
            assert!((0.0..=1.0).contains(&r.false_negative));
        }
    }
}
