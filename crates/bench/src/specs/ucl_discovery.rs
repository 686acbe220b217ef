//! **§5 claim** spec: UCL discovery rates vs. tracked-router count,
//! over the live registry. Paper: "To discover peers closer than 5 ms,
//! peers need to track 3 upstream routers each for a 50% success rate
//! (the median case) and about 6 routers each for a 75% success rate."
//! Like the paper, the registry runs over a perfect key-value map.

use np_core::experiment::{StudyCtx, StudyOutput};
use np_remedies::ucl::discovery_study;
use np_topology::{HostId, InternetModel, WorldParams};
use np_util::table::{fmt_f, fmt_prob, Table};
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
    // Evaluate over a subsample of responsive peers (registry inserts are
    // O(peers x track); the paper's evaluation is also over its
    // responsive set).
    let step = if ctx.quick { 3 } else { 11 };
    let peers: Vec<HostId> = world
        .azureus_peers()
        .filter(|&p| world.host(p).tcp_responsive || world.host(p).icmp_responsive)
        .step_by(step)
        .collect();
    let _ = writeln!(out, "evaluated peers: {}", peers.len());
    let target = Micros::from_ms_u64(5);
    let mut t = Table::new(&["tracked routers", "success", "mean candidates", "after filter"]);
    for r in &discovery_study(&world, &peers, target, 8) {
        t.row(&[
            r.track.to_string(),
            fmt_prob(r.success),
            fmt_f(r.mean_candidates),
            fmt_f(r.mean_filtered),
        ]);
    }
    let _ = writeln!(out, "backend: perfect map (the paper's assumption)");
    let _ = write!(out, "{}", t.render());
    StudyOutput {
        text: out,
        tables: vec![("ucl_discovery".into(), t)],
    }
}
