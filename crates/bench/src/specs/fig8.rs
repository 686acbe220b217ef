//! **Figure 8** spec: Meridian success rates vs. end-networks per
//! cluster — one cell per cluster size, the `meridian` registry entry,
//! three-seed sweeps.
//!
//! Paper series (≈2.4 k overlay nodes, β = 0.5, δ = 0.2, 2 peers per
//! end-network, 5,000 queries, medians of 3 runs):
//!
//! * P(correct closest peer): rises from ≈0.35 at x=5 to a peak ≈0.5 at
//!   x=25, then falls to ≈0.1–0.15 at x=250 — the phase transition the
//!   clustering condition causes;
//! * P(correct cluster): increases monotonically towards ≈1.
//!
//! `np-bench run experiments/fig8.toml` output is pinned byte-for-byte
//! by `crates/bench/tests/golden_fig8.rs`.

use crate::cli::{band, Args, Rendered};
use np_core::experiment::{
    AlgoSpec, Backend, CellSpec, ExperimentReport, ExperimentSpec, SeedPlan,
};
use np_util::ascii::{Axis, Chart};
use np_util::table::Table;

/// Cluster sizes of the paper's sweep.
pub const XS: &[usize] = &[5, 25, 50, 125, 250];

/// The dual-budget Figure 8 spec at `seed`.
pub fn build(seed: u64) -> ExperimentSpec {
    let cells = XS
        .iter()
        .map(|&x| {
            CellSpec::paper(
                format!("x={x}"),
                x,
                0.2,
                seed.wrapping_add(x as u64),
                5_000,
                vec![AlgoSpec::new("meridian")],
            )
            .with_quick_queries(400)
        })
        .collect();
    let mut spec = ExperimentSpec::query(
        "fig8",
        "Figure 8 — Meridian accuracy vs cluster size",
        "closest-peer curve peaks near x=25 then collapses; cluster curve rises to ~1",
        Backend::Dense,
        SeedPlan::THREE_RUNS,
        cells,
    );
    spec.base_seed = seed;
    spec
}

/// The Figure 8 table + chart renderer.
pub fn render(report: &ExperimentReport, _args: &Args) -> Rendered {
    let mut table = Table::new(&[
        "end-nets/cluster",
        "P(correct closest) med [min,max]",
        "P(correct cluster) med [min,max]",
        "mean probes",
        "mean hops",
    ]);
    let mut closest_pts = Vec::new();
    let mut cluster_pts = Vec::new();
    for cell in report.query_cells().unwrap_or_default() {
        let x = super::label_value(&cell.label).unwrap_or(f64::NAN);
        let Some(row) = cell.rows.first() else {
            let why = cell.error.as_deref().unwrap_or("no rows");
            table.row(&[
                format!("{x:.0}"),
                format!("FAILED: {why}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let bands = &row.bands;
        table.row(&[
            format!("{x:.0}"),
            band(bands.p_correct_closest),
            band(bands.p_correct_cluster),
            format!("{:.1}", bands.mean_probes.median),
            format!("{:.2}", bands.mean_hops.median),
        ]);
        closest_pts.push((x, bands.p_correct_closest.median));
        cluster_pts.push((x, bands.p_correct_cluster.median));
    }
    let chart = Chart::new(
        "P(correct closest) [c]  /  P(correct cluster) [K]",
        64,
        14,
    )
    .axes(Axis::Log, Axis::Linear)
    .labels("#end-networks in cluster", "prob")
    .series('c', &closest_pts)
    .series('K', &cluster_pts);
    Rendered {
        body: format!("{}\n{}", table.render(), chart.render()),
        csv: Some(table.to_csv()),
    }
}
