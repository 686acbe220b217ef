//! **Ext D** renderer: Meridian design-choice ablations at the paper's
//! δ=0.2 / 125-end-network configuration — β, ring management and the
//! construction mode, one registry entry per variant (see
//! [`crate::registry::full_registry`]).

use crate::cli::Args;
use np_core::experiment::ExperimentReport;
use np_util::table::{fmt_f, fmt_prob, Table};

/// The Ext D variants table renderer.
pub fn render(report: &ExperimentReport, _args: &Args) -> String {
    let mut table = Table::new(&[
        "variant",
        "P(correct closest)",
        "P(correct cluster)",
        "mean probes",
        "mean hops",
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
        if let Some(error) = &cell.error {
            table.row(&[
                format!("FAILED: {error}"),
                "-".into(),
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
                prob(b.p_correct_closest),
                prob(b.p_correct_cluster),
                fmt_f(b.mean_probes.median),
                fmt_f(b.mean_hops.median),
            ]);
        }
    }
    table.render()
}
