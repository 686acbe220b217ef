//! **Ext C** spec: the hybrid remedy (UCL registry + Meridian
//! fallback) across registry deployment coverages. Each coverage level
//! is one `HybridHintFactory` registration — the factories live in
//! [`crate::registry::full_registry`], where `np-bench run` resolves
//! them by name; all rows share one scenario and one Meridian ring fill
//! through the pipeline's caches.

use crate::cli::{Args, Rendered};
use np_core::experiment::{
    AlgoSpec, Backend, CellSpec, ExperimentReport, ExperimentSpec, SeedPlan,
};
use np_meridian::MeridianFactory;
use np_remedies::HybridHintFactory;
use np_util::table::{fmt_f, fmt_prob, Table};

/// The coverage sweep of the extension.
pub const COVERAGES: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];

/// Registry name of the hybrid at `coverage` ("ucl25+meridian").
pub fn coverage_name(coverage: f64) -> String {
    format!("ucl{:.0}+meridian", coverage * 100.0)
}

/// The coverage-sweep factories (registered by
/// [`crate::registry::full_registry`]).
pub fn coverage_factories() -> Vec<HybridHintFactory<MeridianFactory>> {
    COVERAGES
        .iter()
        .map(|&c| HybridHintFactory::new(coverage_name(c), c, MeridianFactory::omniscient()))
        .collect()
}

/// The dual-budget Ext C spec at `seed`.
pub fn build(seed: u64) -> ExperimentSpec {
    let mut algos = vec![AlgoSpec::labelled("meridian", "(meridian alone)")];
    for &coverage in COVERAGES {
        algos.push(AlgoSpec::labelled(
            coverage_name(coverage),
            format!("{:.0}%", coverage * 100.0),
        ));
    }
    // x=250: the hardest Figure 8 configuration.
    let cells = vec![CellSpec::paper("x=250", 250, 0.2, seed, 2_000, algos)
        .with_quick_queries(300)];
    let mut spec = ExperimentSpec::query(
        "ext_hybrid",
        "Ext C — hybrid (UCL registry + Meridian fallback)",
        "success tracks registry coverage; probe cost collapses on hits",
        Backend::Dense,
        SeedPlan::Single,
        cells,
    );
    spec.base_seed = seed;
    spec
}

/// The Ext C coverage table renderer.
pub fn render(report: &ExperimentReport, _args: &Args) -> Rendered {
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
    Rendered {
        body: table.render(),
        csv: Some(table.to_csv()),
    }
}
