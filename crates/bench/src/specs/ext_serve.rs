//! **Ext G**: the query-serving daemon — sustained open-loop load
//! against the paper's x=125 / δ=0.2 world.
//!
//! Everything else in the harness answers a pre-drawn batch and exits;
//! this figure asks the operational question the paper's probe-budget
//! finding implies: when the same algorithms serve seeded Poisson
//! traffic through the `np-serve` pipeline, what throughput and
//! tail latency (p50/p99/p999) do their probe costs buy? The spec
//! itself is an ordinary query-matrix cell — `np-bench run
//! experiments/ext_serve.toml` drives it through the *batch* pipeline
//! (this module's [`render`] shows the accuracy/probe table), while
//! `np-bench serve experiments/ext_serve.toml` drives the same cell
//! through the *serving* pipeline (`crate::serve_cmd`), whose per-query
//! answers and `PaperMetrics` are contractually bit-identical to the
//! batch path under lossless admission.

use crate::cli::Args;
use np_core::experiment::ExperimentReport;
use np_util::table::{fmt_f, fmt_prob, Table};

/// The serve harness's default offered load: `(rate qps, duration s)`.
/// Paper scale offers ~2,000 queries (matching the batch budget);
/// `--quick` offers ~300 in one second — CI-sized sustained load.
pub fn default_load(quick: bool) -> (f64, f64) {
    if quick {
        (300.0, 1.0)
    } else {
        (400.0, 5.0)
    }
}

/// The batch-path renderer (`np-bench run experiments/ext_serve.toml`):
/// the accuracy/probe table of the same cell the serving pipeline
/// drives. Serve timing (throughput, latency quantiles) comes from
/// `np-bench serve`, which renders its own table.
pub fn render(report: &ExperimentReport, _args: &Args) -> String {
    let mut table = Table::new(&[
        "algorithm",
        "P(correct closest)",
        "P(correct cluster)",
        "mean probes",
        "mean hops",
    ]);
    let prob = |b: np_util::stats::RunBand| {
        if report.runs_per_cell == 1 {
            fmt_prob(b.median)
        } else {
            crate::cli::band(b)
        }
    };
    for cell in report.query_cells().unwrap_or_default() {
        if let Some(error) = &cell.error {
            let mut row = vec![format!("FAILED: {error}")];
            row.resize(5, "-".into());
            table.row(&row);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validates_and_names_the_serving_algorithms() {
        let spec = crate::specs::tests::checked_in("ext_serve");
        spec.validate().expect("valid checked-in spec");
        assert_eq!(spec.name, "ext_serve");
        let np_core::experiment::Workload::QueryMatrix(cells) = &spec.workload else {
            panic!("ext_serve is a query spec");
        };
        let names: Vec<&str> = cells[0].algos.iter().map(|a| a.name.as_str()).collect();
        for expected in ["brute-force", "meridian", "kademlia", "nsw"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert!(cells[0].quick_queries.is_some(), "dual-budget cell");
    }

    #[test]
    fn quick_load_is_ci_sized() {
        let (rate, duration) = default_load(true);
        assert!(rate * duration <= 500.0, "quick load must stay CI-sized");
        let (rate, duration) = default_load(false);
        assert!(rate * duration >= 1_000.0, "paper load is sustained");
    }
}
