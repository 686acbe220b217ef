//! **Figures 6 & 7** spec: Azureus cluster-size and intra-cluster
//! latency distributions. Paper series: 156,658 IPs → 5,904 peers with
//! TCP/traceroute responses and a consistent upstream router across all
//! 7 vantage points; Fig 6 is the cumulative count of peers vs. cluster
//! size before and after 1.5× latency pruning (≈16 % of peers sit in
//! pruned clusters of ≥25); Fig 7 is the hub-to-peer latency
//! distributions of the 5 largest pruned clusters (paper sizes
//! 235/139/113/79/73). On degenerate worlds (no responsive peers,
//! no clusters) the tables simply have fewer — or `n/a` — rows.

use np_cluster::azureus;
use np_cluster::AzureusStudy;
use np_core::experiment::{StudyCtx, StudyOutput};
use np_probe::vantage::render_table1;
use np_topology::{InternetModel, WorldParams};
use np_util::ascii::{Axis, Chart};
use np_util::table::Table;
use std::fmt::Write as _;

/// `Some(x)` → 1-decimal fixed; `None` (empty cluster) → "n/a".
fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.1}"),
        _ => "n/a".to_string(),
    }
}

/// The measurement stage.
pub fn study(ctx: &StudyCtx) -> StudyOutput {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1 vantage points:\n{}", render_table1());
    let params = if ctx.quick {
        WorldParams::quick_scale()
    } else {
        WorldParams::paper_scale()
    };
    let world = InternetModel::generate(params, ctx.seed);
    let s = azureus::run(&world, None, ctx.seed);
    let _ = writeln!(
        out,
        "attrition: {} candidate IPs -> {} responsive (paper 22,796) -> {} consistent survivors (paper 5,904)\n",
        s.total_ips,
        s.responsive.len(),
        s.survivors.len()
    );

    // Figure 6.
    let sizes = [1, 2, 5, 10, 25, 50, 100, 200, 400];
    let mut t6 = Table::new(&["cluster size <=", "peers (unpruned)", "peers (pruned)"]);
    let un = AzureusStudy::cumulative_by_size(&s.unpruned, &sizes);
    let pr = AzureusStudy::cumulative_by_size(&s.pruned, &sizes);
    let mut un_pts = Vec::new();
    let mut pr_pts = Vec::new();
    for (i, &x) in sizes.iter().enumerate() {
        t6.row(&[x.to_string(), un[i].1.to_string(), pr[i].1.to_string()]);
        un_pts.push((x as f64, un[i].1 as f64));
        pr_pts.push((x as f64, pr[i].1 as f64));
    }
    let _ = writeln!(out, "Figure 6: cumulative count of peers by cluster size");
    let _ = writeln!(out, "{}", t6.render());
    let _ = writeln!(
        out,
        "fraction of surviving peers in pruned clusters >=25: {:.3}  (paper: ~0.16)\n",
        s.fraction_in_large_pruned(25)
    );
    let _ = writeln!(
        out,
        "{}",
        Chart::new("Fig 6: cumulative peers vs cluster size [u]=unpruned [p]=pruned", 64, 12)
            .axes(Axis::Log, Axis::Linear)
            .labels("cluster size", "peers")
            .series('u', &un_pts)
            .series('p', &pr_pts)
            .render()
    );

    // Figure 7.
    let _ = writeln!(
        out,
        "Figure 7: hub-to-peer latencies of the 5 largest pruned clusters"
    );
    let mut t7 = Table::new(&["rank", "size", "min (ms)", "median (ms)", "max (ms)"]);
    let mut chart = Chart::new("Fig 7: per-cluster latency distributions", 64, 12)
        .axes(Axis::Log, Axis::Linear)
        .labels("latency (ms)", "count");
    for (rank, c) in s.pruned.iter().take(5).enumerate() {
        let lats: Vec<f64> = c.members.iter().map(|&(_, l)| l.as_ms()).collect();
        t7.row(&[
            (rank + 1).to_string(),
            c.len().to_string(),
            fmt_opt(lats.first().copied()),
            fmt_opt(np_util::stats::median(&lats)),
            fmt_opt(lats.last().copied()),
        ]);
        let pts: Vec<(f64, f64)> = lats
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, (i + 1) as f64))
            .collect();
        chart = chart.series(char::from(b'1' + rank as u8), &pts);
    }
    let _ = writeln!(out, "{}", t7.render());
    let _ = write!(out, "{}", chart.render());
    StudyOutput {
        text: out,
        tables: vec![("fig6_cumulative".into(), t6), ("fig7_clusters".into(), t7)],
    }
}
