//! Integration across the measurement stack: world → probes →
//! pipelines → remedies, on the quick-scale Internet model.

use nearest_peer::cluster::{azureus, dns, TraceGraph};
use nearest_peer::prelude::*;
use nearest_peer::remedies::ucl;

fn world() -> InternetModel {
    InternetModel::generate(WorldParams::quick_scale(), 20_24)
}

/// The full §3.1 chain: servers map to PoPs, predictions track King
/// within the paper's tolerance band, and same-domain latencies are far
/// below cross-domain ones.
#[test]
fn dns_pipeline_reproduces_section_3_1() {
    let w = world();
    let study = dns::run(&w, dns::DnsStudyConfig::default(), 1);
    assert!(study.pairs.len() > 300, "pairs {}", study.pairs.len());
    let frac = study.fraction_in_band();
    assert!((0.45..=0.97).contains(&frac), "band fraction {frac}");
    let d = nearest_peer::cluster::domain::run(&w, 1);
    let intra = d.intra_max10.median().expect("non-empty");
    let inter = d.inter_king_max10.median().expect("non-empty");
    assert!(inter > 4.0 * intra, "separation {inter:.2} vs {intra:.2}");
}

/// The full §3.2 chain: attrition proportions and pruned-cluster windows.
#[test]
fn azureus_pipeline_reproduces_section_3_2() {
    let w = world();
    let s = azureus::run(&w, None, 2);
    let surv = s.survivors.len() as f64 / s.total_ips as f64;
    assert!((0.015..=0.09).contains(&surv), "survivor fraction {surv}");
    for c in s.pruned.iter().take(10) {
        if c.len() >= 2 {
            let lo = c.members.first().expect("non-empty").1.as_us() as f64;
            let hi = c.members.last().expect("non-empty").1.as_us() as f64;
            assert!(hi <= lo * 1.5 + 1.0, "pruning window violated");
        }
    }
}

/// §5 over the measurement world: the trace graph finds close pairs and
/// the UCL registry answers every peer with ranked candidates.
#[test]
fn remedies_work_over_measured_world() {
    let w = world();
    let peers: Vec<HostId> = w
        .azureus_peers()
        .filter(|&p| w.host(p).tcp_responsive)
        .step_by(2)
        .collect();
    let tg = TraceGraph::build(&w, &peers, 3);
    assert!(tg.connected_peers() * 10 >= peers.len() * 7);
    // Some close pairs exist and hop counts are plausible.
    let samples = ucl::hop_samples(&tg, &peers, Micros::from_ms_u64(10));
    assert!(!samples.is_empty());
    for &(lat_ms, hops) in samples.iter().take(200) {
        assert!(lat_ms <= 10.0);
        assert!((2.0..=24.0).contains(&hops), "hops {hops}");
    }
    // The registry on a subsample: candidates exclude the querier, are
    // unique and come sorted by estimate, and someone finds a candidate.
    let sub: Vec<HostId> = peers.iter().copied().take(80).collect();
    let mut reg = UclRegistry::new(&w, 3);
    for &p in &sub {
        reg.insert(p);
    }
    let mut answered = 0;
    for &p in sub.iter().take(20) {
        let cands = reg.candidates(p);
        assert!(cands.iter().all(|&(h, _)| h != p && sub.contains(&h)));
        assert!(cands.windows(2).all(|pair| pair[0].1 <= pair[1].1));
        let mut hosts: Vec<HostId> = cands.iter().map(|&(h, _)| h).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), cands.len());
        answered += usize::from(!cands.is_empty());
    }
    assert!(answered > 0, "no peer found a registry candidate");
}

/// The prefix study's qualitative law holds on the measured world.
#[test]
fn prefix_error_tradeoff_holds() {
    let w = world();
    let peers: Vec<HostId> = w
        .azureus_peers()
        .filter(|&p| w.host(p).tcp_responsive || w.host(p).icmp_responsive)
        .collect();
    let tg = TraceGraph::build(&w, &peers, 5);
    let rows = nearest_peer::remedies::prefix::error_study(
        &w,
        &tg,
        &peers,
        Micros::from_ms_u64(10),
        [8u8, 16, 24],
    );
    assert!(rows[0].false_positive >= rows[2].false_positive);
    assert!(rows[0].false_negative <= rows[2].false_negative);
}

/// Determinism across the whole stack: same seed, same world, same
/// study outputs.
#[test]
fn whole_stack_is_deterministic() {
    let a = dns::run(&world(), dns::DnsStudyConfig::default(), 9);
    let b = dns::run(&world(), dns::DnsStudyConfig::default(), 9);
    assert_eq!(a.pairs.len(), b.pairs.len());
    let pa: Vec<_> = a.pairs.iter().map(|p| (p.s1, p.s2, p.predicted, p.measured)).collect();
    let pb: Vec<_> = b.pairs.iter().map(|p| (p.s1, p.s2, p.predicted, p.measured)).collect();
    assert_eq!(pa, pb);
}
