//! **Ext C** renderer: the hybrid remedy (UCL registry + Meridian
//! fallback) across registry deployment coverages. Each coverage level
//! is one `HybridHintFactory` registration in
//! [`crate::registry::full_registry`]; all rows share one scenario and
//! one Meridian ring fill through the pipeline's caches.

use crate::cli::Args;
use np_core::experiment::ExperimentReport;
use np_util::table::{fmt_f, fmt_prob, Table};

/// The Ext C coverage table renderer.
pub fn render(report: &ExperimentReport, _args: &Args) -> String {
    let mut table = Table::new(&[
        "registry coverage",
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
        if let Some(error) = &cell.error {
            table.row(&[format!("FAILED: {error}"), "-".into(), "-".into(), "-".into()]);
            continue;
        }
        for row in &cell.rows {
            let b = &row.bands;
            table.row(&[
                row.label.clone(),
                prob(b.p_correct_closest),
                prob(b.p_correct_cluster),
                fmt_f(b.mean_probes.median),
            ]);
        }
    }
    table.render()
}
