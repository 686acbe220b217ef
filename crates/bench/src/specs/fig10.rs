//! **Figure 10** spec: router hop-length between close peer pairs vs.
//! their latency (the UCL feasibility study). Paper series: binned
//! 5/25/50/75/95-percentiles of the hop-length over the
//! traceroute-derived graph, for pairs within 10 ms; the median at
//! ≈3.9 ms is 4 hops — so tracking 2 routers each discovers those pairs
//! — and hop-length grows with latency.

use np_cluster::TraceGraph;
use np_core::experiment::{Backend, ExperimentSpec, StudyCtx, StudyOutput};
use np_remedies::ucl;
use np_topology::{HostId, InternetModel, WorldParams};
use np_util::ascii::{Axis, Chart};
use np_util::table::{fmt_f, Table};
use np_util::Micros;
use std::fmt::Write as _;

/// The measurement stage.
pub fn study(ctx: &StudyCtx) -> StudyOutput {
    let mut out = String::new();
    let params = if ctx.quick {
        WorldParams::quick_scale()
    } else {
        WorldParams::paper_scale()
    };
    let world = InternetModel::generate(params, ctx.seed);
    // The §5 population: peers that answered TCP-pings or traceroutes.
    let peers: Vec<HostId> = world
        .azureus_peers()
        .filter(|&p| world.host(p).tcp_responsive || world.host(p).icmp_responsive)
        .collect();
    eprintln!("responsive peers: {} (paper: 22,796)", peers.len());
    let tg = TraceGraph::build(&world, &peers, ctx.seed);
    eprintln!(
        "trace graph: {} nodes, {} edges, {} peers connected",
        tg.graph.len(),
        tg.graph.edge_count(),
        tg.connected_peers()
    );
    let samples = ucl::hop_samples(&tg, &peers, Micros::from_ms_u64(10));
    let _ = writeln!(out, "close pairs (<=10 ms): {}", samples.len());
    let scatter = ucl::hop_study(&tg, &peers, Micros::from_ms_u64(10), 10);
    let mut t = Table::new(&["latency (ms)", "p5", "p25", "median", "p75", "p95", "#pairs"]);
    let mut med = Vec::new();
    for b in scatter.bins() {
        t.row(&[
            fmt_f(b.x),
            fmt_f(b.band.p5),
            fmt_f(b.band.p25),
            fmt_f(b.band.p50),
            fmt_f(b.band.p75),
            fmt_f(b.band.p95),
            b.count.to_string(),
        ]);
        med.push((b.x, b.band.p50));
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "{}",
        Chart::new("Fig 10: median router hop-length vs inter-peer latency", 64, 12)
            .axes(Axis::Log, Axis::Linear)
            .labels("latency (ms)", "hops")
            .series('h', &med)
            .render()
    );
    // The paper's reading: n tracked routers discover peers <=2n hops.
    if let Some(b) = scatter.bin_containing(3.9) {
        let _ = writeln!(
            out,
            "bin at ~3.9 ms: median hop-length {:.1} -> tracking {} routers each discovers the median pair (paper: 4 -> 2 routers)",
            b.band.p50,
            (b.band.p50 / 2.0).ceil() as u64
        );
    }
    out.truncate(out.trim_end_matches('\n').len());
    StudyOutput {
        text: out,
        tables: vec![("fig10_hops".into(), t)],
    }
}

/// The Figure 10 study spec at `seed`.
pub fn build(seed: u64) -> ExperimentSpec {
    ExperimentSpec::study(
        "fig10",
        "Figure 10 — inter-peer router hops vs latency",
        "hop-length grows with latency; median ~4 hops at ~4 ms",
        Backend::Dense,
        seed,
        false,
        Vec::new(),
        study,
    )
}
