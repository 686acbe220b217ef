//! **Ext A** spec: every implemented nearest-peer algorithm over the
//! Figure 8 cluster worlds — the §2.3/§6 collapse, tested empirically.
//! Brute force runs at a fifth of the budget (each of its queries
//! probes the whole overlay).

use crate::cli::Args;
use np_core::experiment::ExperimentReport;
use np_util::table::{fmt_f, fmt_prob, Table};

/// The Ext A all-algorithms table renderer.
pub fn render(report: &ExperimentReport, _args: &Args) -> String {
    let mut table = Table::new(&[
        "algorithm",
        "end-nets/cluster",
        "P(correct closest)",
        "P(correct cluster)",
        "mean probes",
    ]);
    // Single-run cells print the historical plain numbers; a
    // --seeds sweep prints median [min, max] bands.
    let prob = |b: np_util::stats::RunBand| {
        if report.runs_per_cell == 1 {
            fmt_prob(b.median)
        } else {
            crate::cli::band(b)
        }
    };
    for cell in report.query_cells().unwrap_or_default() {
        let x = super::label_value(&cell.label).unwrap_or(f64::NAN);
        if let Some(error) = &cell.error {
            table.row(&[
                format!("FAILED: {error}"),
                format!("{x:.0}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        for row in &cell.rows {
            let b = &row.bands;
            table.row(&[
                row.label.clone(),
                format!("{x:.0}"),
                prob(b.p_correct_closest),
                prob(b.p_correct_cluster),
                fmt_f(b.mean_probes.median),
            ]);
        }
    }
    table.render()
}
