//! **Figure 9** spec: Meridian accuracy and found-peer hub latency vs.
//! δ at 125 end-networks/cluster — one cell per δ, three-seed sweeps.
//!
//! Paper series (2 peers/EN, β = 0.5): P(correct closest peer) rises
//! from ≈0.08 at δ=0 (perfect clustering) to ≈0.4 at δ=1 (condition
//! fully dissolved); the median hub latency of the *wrongly* found peer
//! falls from ≈5 ms to ≈2 ms — Meridian preferentially returns peers
//! near the cluster-hub, the load-concentration effect the paper
//! discusses.

use crate::cli::{band, Args};
use np_core::experiment::ExperimentReport;
use np_util::ascii::{Axis, Chart};
use np_util::table::Table;

/// The Figure 9 table + two-chart renderer.
pub fn render(report: &ExperimentReport, _args: &Args) -> String {
    let mut table = Table::new(&[
        "delta",
        "P(correct closest) med [min,max]",
        "median hub-lat of wrong peer (ms)",
        "mean probes",
    ]);
    let mut acc_pts = Vec::new();
    let mut hub_pts = Vec::new();
    for cell in report.query_cells().unwrap_or_default() {
        let delta = super::label_value(&cell.label).unwrap_or(f64::NAN);
        let Some(row) = cell.rows.first() else {
            let why = cell.error.as_deref().unwrap_or("no rows");
            table.row(&[
                format!("{delta:.1}"),
                format!("FAILED: {why}"),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let bands = &row.bands;
        table.row(&[
            format!("{delta:.1}"),
            band(bands.p_correct_closest),
            format!(
                "{:.2} [{:.2}, {:.2}]",
                bands.median_hub_latency_wrong_ms.median,
                bands.median_hub_latency_wrong_ms.min,
                bands.median_hub_latency_wrong_ms.max
            ),
            format!("{:.1}", bands.mean_probes.median),
        ]);
        acc_pts.push((delta, bands.p_correct_closest.median));
        hub_pts.push((delta, bands.median_hub_latency_wrong_ms.median));
    }
    let acc_chart = Chart::new("P(correct closest) vs delta", 60, 12)
        .axes(Axis::Linear, Axis::Linear)
        .labels("delta", "prob")
        .series('a', &acc_pts);
    let hub_chart = Chart::new("median hub latency of wrongly-found peer (ms)", 60, 12)
        .axes(Axis::Linear, Axis::Linear)
        .labels("delta", "ms")
        .series('h', &hub_pts);
    format!(
        "{}\n{}\n{}",
        table.render(),
        acc_chart.render(),
        hub_chart.render()
    )
}
