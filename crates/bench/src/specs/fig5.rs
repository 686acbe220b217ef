//! **Figure 5** spec: intra-domain vs. inter-domain latency
//! distributions. Paper series: four CDFs — same-domain pairs
//! (predicted, hop caps 5 and 10) and different-domain pairs (predicted
//! and King-measured, hop cap 10); intra-domain latencies are about an
//! order of magnitude smaller, and tightening the hop cap changes
//! little. On degenerate (sub-`--quick`) worlds a distribution
//! can be empty; its rows are marked `n/a` instead of aborting — the
//! headline ratio needs both medians and is skipped likewise.

use np_cluster::domain;
use np_core::experiment::{StudyCtx, StudyOutput};
use np_topology::{InternetModel, WorldParams};
use np_util::ascii::{Axis, Chart};
use np_util::table::Table;
use std::fmt::Write as _;

/// `Some(x)` → 3-decimal fixed; `None` (empty sample) → "n/a".
fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "n/a".to_string(),
    }
}

/// The measurement stage.
pub fn study(ctx: &StudyCtx) -> StudyOutput {
    let mut out = String::new();
    let params = if ctx.quick {
        WorldParams::quick_scale()
    } else {
        WorldParams::paper_scale()
    };
    let world = InternetModel::generate(params, ctx.seed);
    let s = domain::run(&world, ctx.seed);
    let _ = writeln!(
        out,
        "pairs: intra-domain {} (paper ~500), inter-domain {} (paper ~26,000)\n",
        s.intra_pairs, s.inter_pairs
    );
    let mut t = Table::new(&["distribution", "p10 (ms)", "median (ms)", "p90 (ms)"]);
    for (name, cdf) in [
        ("same-domain, <=5 hops (predicted)", &s.intra_max5),
        ("same-domain, <=10 hops (predicted)", &s.intra_max10),
        ("diff-domain, <=10 hops (predicted)", &s.inter_predicted_max10),
        ("diff-domain, <=10 hops (King)", &s.inter_king_max10),
    ] {
        t.row(&[
            name.to_string(),
            fmt_opt(cdf.quantile(0.1)),
            fmt_opt(cdf.median()),
            fmt_opt(cdf.quantile(0.9)),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    match (s.inter_king_max10.median(), s.intra_max10.median()) {
        (Some(inter), Some(intra)) if intra > 0.0 => {
            let _ = writeln!(
                out,
                "inter/intra median ratio: {:.1}x  (paper: ~10x)\n",
                inter / intra
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "inter/intra median ratio: n/a (a distribution is empty on this world)\n"
            );
        }
    }
    let _ = write!(
        out,
        "{}",
        Chart::new("Fig 5 CDFs: [a]=intra<=5 [b]=intra<=10 [p]=inter-pred [k]=inter-king", 68, 16)
            .axes(Axis::Log, Axis::Linear)
            .labels("latency (ms)", "F")
            .cdf('a', &s.intra_max5)
            .cdf('b', &s.intra_max10)
            .cdf('p', &s.inter_predicted_max10)
            .cdf('k', &s.inter_king_max10)
            .render()
    );
    StudyOutput {
        text: out,
        tables: vec![("fig5_distributions".into(), t)],
    }
}
