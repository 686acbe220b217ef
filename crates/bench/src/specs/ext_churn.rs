//! **Extension — churn**: the paper's static worlds made dynamic.
//!
//! The paper measures nearest-peer discovery over a frozen latency
//! snapshot; real deployments churn. This extension sweeps a seeded
//! event-clocked [`np_core::ChurnConfig`] rate (joins, leaves and RTT
//! drift over 60 simulated seconds, plus probe loss with deterministic
//! immediate retries) over the paper's 500-peer cluster world and
//! reports accuracy *and* repair cost per rate: full overlay rebuilds
//! vs rings replayed by the incremental leave repair.
//!
//! The `rate=0` row still runs the fault-injected dynamic pipeline
//! (loss and retries on, zero membership events) — it is the
//! fault-tolerance baseline the churned rows are read against, and the
//! dynamic-equals-static contract pins its metrics to the frozen-world
//! figures.

use crate::cli::Args;
use np_core::experiment::{ExperimentReport, ExperimentSpec};
use np_util::table::Table;

/// The ext_churn self-check. The brute-force reference must stay exact
/// — its `NearestCache` is incrementally evicted/admitted across churn
/// epochs, and a stale truth table would silently corrupt every
/// accuracy column — and every row must report its repair accounting,
/// at least the initial epoch per run.
pub fn check(_: &ExperimentSpec, report: &ExperimentReport, _: &Args) -> Result<(), String> {
    for cell in report.query_cells().unwrap_or_default() {
        for row in &cell.rows {
            let inexact = row.runs.iter().any(|m| m.p_correct_closest != 1.0);
            let epochs = row.churn.map_or(0, |stats| stats.epochs);
            let broken = if row.algo == "brute-force" && inexact {
                "brute force must stay exact under churn"
            } else if epochs < row.runs.len() as u64 {
                "fewer churn epochs than runs"
            } else {
                continue;
            };
            return Err(format!("{}: {broken} ({})", row.algo, cell.label));
        }
    }
    Ok(())
}

/// The churn sweep renderer: accuracy per algorithm plus the dynamic
/// runner's event and repair accounting (meridian row — brute force
/// and random rebuild trivially and have no rings to repair).
pub fn render(report: &ExperimentReport, _args: &Args) -> String {
    let cells = report.query_cells().unwrap_or_default();
    let mut table = Table::new(&[
        "rate/min",
        "epochs",
        "joins",
        "leaves",
        "drifts",
        "P(bf)",
        "P(meridian)",
        "P(random)",
        "mer probes",
        "full rebuilds",
        "rings replayed",
        "ring inserts",
    ]);
    for cell in cells {
        if cell.rows.is_empty() {
            let why = cell.error.as_deref().unwrap_or("no rows");
            let mut row = vec![cell.label.clone(), format!("FAILED: {why}")];
            row.resize(12, "-".into());
            table.row(&row);
            continue;
        }
        let rate = crate::specs::label_value(&cell.label)
            .map(|v| format!("{v}"))
            .unwrap_or_else(|| cell.label.clone());
        let p_of = |algo: &str| {
            cell.rows
                .iter()
                .find(|r| r.algo == algo)
                .map(|r| format!("{:.3}", r.bands.p_correct_closest.median))
                .unwrap_or_else(|| "-".into())
        };
        let mer = cell.rows.iter().find(|r| r.algo == "meridian");
        let probes = mer
            .map(|r| format!("{:.0}", r.bands.mean_probes.median))
            .unwrap_or_else(|| "-".into());
        // Event counts are identical across rows (same schedule seed);
        // repair cost is the meridian row's — the others rebuild.
        let stats = mer.and_then(|r| r.churn);
        let count = |f: fn(&np_core::ChurnStats) -> u64| {
            stats
                .as_ref()
                .map(|s| f(s).to_string())
                .unwrap_or_else(|| "-".into())
        };
        table.row(&[
            rate,
            count(|s| s.epochs),
            count(|s| s.joins),
            count(|s| s.leaves),
            count(|s| s.drifts),
            p_of("brute-force"),
            p_of("meridian"),
            p_of("random"),
            probes,
            count(|s| s.repair.full_rebuilds),
            count(|s| s.repair.rings_replayed),
            count(|s| s.repair.ring_inserts),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::experiment::ReportBody;

    #[test]
    fn every_cell_runs_the_fault_injected_dynamic_pipeline() {
        let spec = crate::specs::tests::checked_in("ext_churn");
        let np_core::experiment::Workload::QueryMatrix(cells) = &spec.workload else {
            panic!("ext_churn is a query spec");
        };
        assert_eq!(cells.len(), 4);
        for cell in cells {
            let churn = cell.churn.expect("all churn cells are dynamic");
            // The label carries the swept rate; the first cell is the
            // membership-free rate=0 baseline.
            assert_eq!(
                crate::specs::label_value(&cell.label),
                Some(churn.events_per_min)
            );
            assert!(churn.loss > 0.0, "fault injection stays on at rate 0");
            assert!(churn.retries >= 1);
            assert!(cell.in_quick, "the whole sweep is CI-smokeable");
        }
        assert_eq!(cells[0].churn.map(|c| c.events_per_min), Some(0.0));
        spec.validate().expect("checked-in churn spec validates");
    }

    #[test]
    fn check_accepts_a_churned_run_and_rejects_doctored_reports() {
        let args = Args::default();
        let churned = || {
            let mut spec = crate::specs::tests::tiny_spec(&["brute-force", "meridian"]);
            let np_core::experiment::Workload::QueryMatrix(cells) = &mut spec.workload else {
                unreachable!("tiny_spec is a query spec");
            };
            cells[0].churn = Some(np_core::ChurnConfig {
                events_per_min: 10.0,
                duration_s: 60.0,
                drift_max_us: 2_000,
                offline_frac: 0.05,
                loss: 0.05,
                retries: 3,
            });
            spec
        };
        let mut report = crate::specs::tests::run(churned());
        check(&churned(), &report, &args).expect("a genuine churned run passes");
        let ReportBody::Query(cells) = &mut report.body else {
            unreachable!("query report");
        };
        cells[0].rows[1].churn = None;
        let err = check(&churned(), &report, &args).unwrap_err();
        assert_eq!(err, "meridian: fewer churn epochs than runs (96 peers)");
        let ReportBody::Query(cells) = &mut report.body else {
            unreachable!("query report");
        };
        cells[0].rows[0].runs[0].p_correct_closest = 0.5;
        let err = check(&churned(), &report, &args).unwrap_err();
        assert!(err.contains("brute force must stay exact"), "{err}");
    }
}
