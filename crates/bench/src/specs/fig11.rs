//! **Figure 11** spec: false-positive and false-negative rates of the
//! IP-prefix heuristic vs. prefix length. Paper series: median FP and
//! FN over peers with a ≤10 ms neighbour (≈2,400 of 22,796), for prefix
//! lengths 8–24; FP falls with longer prefixes, FN rises, and there is
//! no sweet spot.

use np_cluster::TraceGraph;
use np_core::experiment::{Backend, ExperimentSpec, StudyCtx, StudyOutput};
use np_remedies::prefix;
use np_topology::{HostId, InternetModel, WorldParams};
use np_util::ascii::{Axis, Chart};
use np_util::table::{fmt_prob, Table};
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
    let peers: Vec<HostId> = world
        .azureus_peers()
        .filter(|&p| world.host(p).tcp_responsive || world.host(p).icmp_responsive)
        .collect();
    let tg = TraceGraph::build(&world, &peers, ctx.seed);
    let rows = prefix::error_study(
        &world,
        &tg,
        &peers,
        Micros::from_ms_u64(10),
        (8..=24).map(|l| l as u8),
    );
    let _ = writeln!(
        out,
        "population with a <=10 ms neighbour: {} of {} (paper: ~2,400 of 22,796)\n",
        rows.first().map(|r| r.population).unwrap_or(0),
        peers.len()
    );
    let mut t = Table::new(&["prefix bits", "false-positive", "false-negative"]);
    let mut fp_pts = Vec::new();
    let mut fn_pts = Vec::new();
    for r in &rows {
        t.row(&[
            r.prefix_len.to_string(),
            fmt_prob(r.false_positive),
            fmt_prob(r.false_negative),
        ]);
        fp_pts.push((f64::from(r.prefix_len), r.false_positive));
        fn_pts.push((f64::from(r.prefix_len), r.false_negative));
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = write!(
        out,
        "{}",
        Chart::new("Fig 11: [P]=false-positive [N]=false-negative", 64, 14)
            .axes(Axis::Linear, Axis::Linear)
            .labels("prefix bits", "rate")
            .series('P', &fp_pts)
            .series('N', &fn_pts)
            .render()
    );
    StudyOutput {
        text: out,
        tables: vec![("fig11_error_rates".into(), t)],
    }
}

/// The Figure 11 study spec at `seed`.
pub fn build(seed: u64) -> ExperimentSpec {
    ExperimentSpec::study(
        "fig11",
        "Figure 11 — IP-prefix heuristic error rates",
        "FP falls / FN rises with prefix length; no sweet spot",
        Backend::Dense,
        seed,
        false,
        Vec::new(),
        study,
    )
}
