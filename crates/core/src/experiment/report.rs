//! Typed experiment results.
//!
//! The runner produces one [`ExperimentReport`] per spec: per-cell,
//! per-algorithm [`PaperMetrics`] for every run, the aggregated
//! [`RunBandMetrics`], and the wall-clock/probe accounting the figure
//! footers and BENCH artifacts quote. Reports are plain data — sinks
//! (`sink` module) and the figures' renderers consume them.

use crate::churn::ChurnStats;
use crate::runner::{PaperMetrics, RunBandMetrics};
use crate::experiment::spec::{Backend, StudyOutput};
use std::time::Duration;

/// Results of one algorithm over one cell, across the seed plan.
pub struct AlgoReport {
    /// Registry key the row ran as.
    pub algo: String,
    /// Display label (spec override or the registry key).
    pub label: String,
    /// Queries per run this row actually used.
    pub queries: usize,
    /// Per-run metrics, in seed order.
    pub runs: Vec<PaperMetrics>,
    /// Median/min/max bands over `runs`.
    pub bands: RunBandMetrics,
    /// Total wall-clock spent in this row's query batches (summed over
    /// runs; runs may execute concurrently, so this can exceed the
    /// cell's elapsed time).
    pub wall: Duration,
    /// Total probes to targets across all runs (the paper's cost axis).
    pub total_probes: u64,
    /// Dynamic-world accounting, summed over the seed plan's runs:
    /// `Some` iff the cell ran under churn ([`crate::experiment::CellSpec::churn`]).
    pub churn: Option<ChurnStats>,
}

impl AlgoReport {
    /// The single run of a [`crate::experiment::SeedPlan::Single`] row.
    pub fn single(&self) -> &PaperMetrics {
        assert_eq!(self.runs.len(), 1, "row has {} runs", self.runs.len());
        &self.runs[0]
    }
}

/// Results of one cell: the built world plus one row per algorithm.
pub struct CellReport {
    /// The cell's label ("x=25", "delta=0.4").
    pub label: String,
    /// Peers in the generated world.
    pub peers: usize,
    /// Clusters (= shards on the hierarchical backend) in the cell's
    /// world.
    pub clusters: usize,
    /// Approximate heap bytes of the latency backend (per scenario;
    /// the hierarchical backend's raison d'être).
    pub store_bytes: usize,
    /// Wall-clock spent building this cell's scenarios (world
    /// generation + backend materialisation, summed over seeds; zero
    /// for scenarios served from the runner's cache).
    pub build_wall: Duration,
    /// One row per algorithm, in spec order.
    pub rows: Vec<AlgoReport>,
    /// A cell that panicked mid-run (a factory or query batch aborted):
    /// the panic message. Its `rows` are empty; sinks and renderers
    /// mark the cell as failed instead of dropping the whole report.
    pub error: Option<String>,
}

impl CellReport {
    /// The marker for a cell whose run panicked: no rows, the message.
    pub fn failed(label: impl Into<String>, error: impl Into<String>) -> CellReport {
        CellReport {
            label: label.into(),
            peers: 0,
            clusters: 0,
            store_bytes: 0,
            build_wall: Duration::ZERO,
            rows: Vec::new(),
            error: Some(error.into()),
        }
    }
}

/// The body of a report: the matrix results or a study's output.
pub enum ReportBody {
    Query(Vec<CellReport>),
    Study(StudyOutput),
}

impl ReportBody {
    /// Short variant name for diagnostics ("query" / "study").
    pub fn kind(&self) -> &'static str {
        match self {
            ReportBody::Query(_) => "query",
            ReportBody::Study(_) => "study",
        }
    }
}

/// Everything one spec run produced.
pub struct ExperimentReport {
    /// The spec's name.
    pub name: String,
    /// Backend the run used.
    pub backend: Backend,
    /// Worker threads the run was given (results never depend on it).
    pub threads: usize,
    /// Runs per cell.
    pub runs_per_cell: usize,
    /// The results.
    pub body: ReportBody,
    /// End-to-end wall-clock of `Experiment::run`.
    pub wall: Duration,
}

impl ExperimentReport {
    /// The query-matrix cells, or `None` on a study report. Renderers
    /// that statically know their spec's shape typically
    /// `unwrap_or_default()` (an empty table beats aborting a
    /// half-finished run); the generic sinks match on [`ReportBody`]
    /// directly.
    pub fn query_cells(&self) -> Option<&[CellReport]> {
        match &self.body {
            ReportBody::Query(cells) => Some(cells),
            ReportBody::Study(_) => None,
        }
    }

    /// The study output, or `None` on a query-matrix report.
    pub fn study_output(&self) -> Option<&StudyOutput> {
        match &self.body {
            ReportBody::Study(s) => Some(s),
            ReportBody::Query(_) => None,
        }
    }

    /// Total probes across every cell and row.
    pub fn total_probes(&self) -> u64 {
        match &self.body {
            ReportBody::Query(cells) => cells
                .iter()
                .flat_map(|c| c.rows.iter())
                .map(|r| r.total_probes)
                .sum(),
            ReportBody::Study(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(body: ReportBody) -> ExperimentReport {
        ExperimentReport {
            name: "shape-test".into(),
            backend: Backend::Dense,
            threads: 1,
            runs_per_cell: 1,
            body,
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn wrong_variant_accessors_return_none_instead_of_aborting() {
        let query = report(ReportBody::Query(Vec::new()));
        assert!(query.query_cells().is_some());
        assert!(query.study_output().is_none());
        assert_eq!(query.body.kind(), "query");
        let study = report(ReportBody::Study(StudyOutput {
            text: "t".into(),
            tables: Vec::new(),
        }));
        assert!(study.query_cells().is_none());
        assert!(study.study_output().is_some());
        assert_eq!(study.body.kind(), "study");
        // The degrade idiom renderers use: an empty slice, not a panic.
        assert!(study.query_cells().unwrap_or_default().is_empty());
    }
}
