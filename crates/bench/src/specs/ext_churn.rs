//! **Extension — churn** spec: the paper's static worlds made dynamic.
//!
//! The paper measures nearest-peer discovery over a frozen latency
//! snapshot; real deployments churn. This extension sweeps a seeded
//! event-clocked [`ChurnConfig`] rate (joins, leaves and RTT drift over
//! 60 simulated seconds, plus probe loss with deterministic
//! retry-with-backoff) over the paper's 500-peer cluster world and
//! reports accuracy *and* repair cost per rate: full overlay rebuilds
//! vs rings replayed by the incremental leave repair.
//!
//! The `rate=0` row still runs the fault-injected dynamic pipeline
//! (loss and retries on, zero membership events) — it is the
//! fault-tolerance baseline the churned rows are read against, and the
//! dynamic-equals-static contract pins its metrics to the frozen-world
//! figures.

use crate::cli::{Args, Rendered};
use np_core::experiment::{
    AlgoSpec, Backend, CellSpec, ExperimentReport, ExperimentSpec, SeedPlan,
};
use np_core::ChurnConfig;
use np_topology::ClusterWorldSpec;
use np_util::table::Table;
use np_util::Micros;

/// Membership events per simulated minute, the sweep variable.
pub const RATES: &[f64] = &[0.0, 2.0, 6.0, 12.0];
/// Simulated wall-clock per cell (one minute, so rates read as
/// events-per-run).
pub const DURATION_S: f64 = 60.0;

/// The shared fault model: every cell — including `rate=0` — runs with
/// probe loss, temporarily-offline leavers and bounded RTT drift, so
/// the sweep isolates the *membership* rate.
pub fn fault_model(events_per_min: f64) -> ChurnConfig {
    ChurnConfig {
        events_per_min,
        duration_s: DURATION_S,
        drift_max_us: 2_000,
        offline_frac: 0.05,
        loss: 0.05,
        retries: 3,
    }
}

/// The paper-scale world every cell shares (10 clusters × 25
/// end-networks × 2 peers = 500 peers).
pub fn world() -> ClusterWorldSpec {
    ClusterWorldSpec {
        clusters: 10,
        en_per_cluster: 25,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: 10,
    }
}

/// The dual-budget churn spec at `seed`: one cell per rate, three
/// seeds for bands, brute force as the truth-maintenance reference and
/// random choice as the floor.
pub fn build(seed: u64) -> ExperimentSpec {
    let cells = RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| CellSpec {
            label: format!("rate={rate}"),
            world: world(),
            n_targets: 50,
            base_seed: seed.wrapping_add(i as u64),
            queries: 400,
            quick_queries: Some(100),
            in_quick: true,
            churn: Some(fault_model(rate)),
            super_shards: None,
            block_cache_mb: None,
            algos: vec![
                AlgoSpec::new("brute-force"),
                AlgoSpec::new("meridian"),
                AlgoSpec::new("random"),
            ],
        })
        .collect();
    let mut spec = ExperimentSpec::query(
        "ext_churn",
        "Extension — accuracy and repair cost under event-clocked churn",
        "incremental ring repair keeps Meridian near its static accuracy while \
         replaying a few rings per leave instead of rebuilding the overlay",
        Backend::Dense,
        SeedPlan::THREE_RUNS,
        cells,
    );
    spec.base_seed = seed;
    spec
}

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
pub fn render(report: &ExperimentReport, _args: &Args) -> Rendered {
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
    Rendered {
        body: table.render(),
        csv: Some(table.to_csv()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::experiment::ReportBody;

    #[test]
    fn every_cell_runs_the_fault_injected_dynamic_pipeline() {
        let spec = build(11);
        let cells = match &spec.workload {
            np_core::experiment::Workload::QueryMatrix(cells) => cells,
            np_core::experiment::Workload::Study(_) => panic!("query spec"),
        };
        assert_eq!(cells.len(), RATES.len());
        for (cell, &rate) in cells.iter().zip(RATES) {
            let churn = cell.churn.expect("all churn cells are dynamic");
            assert_eq!(churn.events_per_min, rate);
            assert!(churn.loss > 0.0, "fault injection stays on at rate 0");
            assert!(churn.retries >= 1);
            assert!(cell.in_quick, "the whole sweep is CI-smokeable");
        }
        spec.validate().expect("built-in churn spec validates");
    }

    #[test]
    fn check_accepts_a_churned_run_and_rejects_doctored_reports() {
        let args = Args::default();
        let churned = || {
            let mut spec = crate::specs::tests::tiny_spec(&["brute-force", "meridian"]);
            let np_core::experiment::Workload::QueryMatrix(cells) = &mut spec.workload else {
                unreachable!("tiny_spec is a query spec");
            };
            cells[0].churn = Some(fault_model(10.0));
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
