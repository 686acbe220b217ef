//! The figure catalogue: what each figure's spec file cannot hold.
//!
//! A figure is defined by its checked-in `experiments/<spec>.toml`
//! (cells, worlds, algorithms, seeds, budgets). This table adds the
//! code the file names: `np-bench list` prints it, and `np-bench run`
//! resolves a loaded spec's renderer, study stage, clamp and
//! self-check here by the spec's name. `all_figures.toml` lists
//! exactly these entries, in this order.

use crate::cli::Args;
use crate::specs;
use np_core::experiment::{ExperimentReport, ExperimentSpec, StudyCtx, StudyOutput, StudyStage};

/// A figure's post-run self-check: the resolved spec that ran, its
/// report (no cell failed) and the run's flags. `Err` names what broke;
/// `np-bench run` then exits 1.
pub type Check = fn(&ExperimentSpec, &ExperimentReport, &Args) -> Result<(), String>;

/// How a figure runs through the experiment pipeline, with the code
/// that runs it.
#[derive(Clone, Copy)]
pub enum FigureKind {
    /// Declarative cells × algorithms × seeds over cluster worlds;
    /// honours `--world dense|hierarchical`. Holds the figure's bespoke
    /// renderer.
    QueryMatrix(fn(&ExperimentReport, &Args) -> String),
    /// Measurement-stack study over the Internet model (`--world` is
    /// accepted but inert — there is no latency store to swap). Holds
    /// the measurement stage a TOML-loaded study spec resolves by name;
    /// it renders through `cli::study_rendered`.
    Study(fn(&StudyCtx) -> StudyOutput),
}

impl FigureKind {
    pub fn name(self) -> &'static str {
        match self {
            FigureKind::QueryMatrix(_) => "query-matrix",
            FigureKind::Study(_) => "study",
        }
    }
}

/// One figure.
pub struct FigureInfo {
    /// The spec name its `ExperimentSpec` carries (and its spec file's
    /// stem under `experiments/`).
    pub spec: &'static str,
    pub kind: FigureKind,
    /// Which `--world` backends the figure actually honours.
    pub backends: &'static str,
    /// One-line description for `np-bench list`.
    pub title: &'static str,
    /// Figure-specific backend policy applied after the CLI overrides
    /// resolve (e.g. ext_scale drops cells whose dense matrix cannot
    /// fit the CI budget). Returns the labels of dropped cells; the
    /// caller reports them.
    pub clamp: Option<fn(&mut ExperimentSpec) -> Vec<String>>,
    /// The self-check `np-bench run` applies to a report with no failed
    /// cell (rows matched by algorithm name, so `--algos` still works).
    pub check: Option<Check>,
}

/// Every figure/extension, in `all_figures.toml` order.
pub const FIGURES: &[FigureInfo] = &[
    FigureInfo {
        spec: "fig3_4",
        kind: FigureKind::Study(specs::fig3_4::study),
        backends: "n/a (measurement pipeline)",
        title: "DNS-pair latency-prediction measure (Figures 3 & 4)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig5",
        kind: FigureKind::Study(specs::fig5::study),
        backends: "n/a (measurement pipeline)",
        title: "intra- vs inter-domain latency distributions (Figure 5)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig6_7",
        kind: FigureKind::Study(specs::fig6_7::study),
        backends: "n/a (measurement pipeline)",
        title: "Azureus cluster sizes and latencies (Figures 6 & 7)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig8",
        kind: FigureKind::QueryMatrix(specs::fig8::render),
        backends: "dense|hierarchical",
        title: "Meridian accuracy vs cluster size (Figure 8)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig9",
        kind: FigureKind::QueryMatrix(specs::fig9::render),
        backends: "dense|hierarchical",
        title: "Meridian accuracy and hub distance vs delta (Figure 9)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig10",
        kind: FigureKind::Study(specs::fig10::study),
        backends: "n/a (measurement pipeline)",
        title: "inter-peer router hops vs latency (Figure 10)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig11",
        kind: FigureKind::Study(specs::fig11::study),
        backends: "n/a (measurement pipeline)",
        title: "IP-prefix heuristic error rates (Figure 11)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ucl_discovery",
        kind: FigureKind::Study(specs::ucl_discovery::study),
        backends: "n/a (measurement pipeline)",
        title: "UCL discovery rates vs tracked routers (paper Section 5)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_baselines",
        kind: FigureKind::QueryMatrix(specs::ext_baselines::render),
        backends: "dense|hierarchical",
        title: "all algorithms under the clustering condition (Ext A)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_assumptions",
        kind: FigureKind::Study(specs::ext_assumptions::study),
        backends: "dense|hierarchical",
        title: "metric-space diagnostics under clustering (Ext B)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_hybrid",
        kind: FigureKind::QueryMatrix(specs::ext_hybrid::render),
        backends: "dense|hierarchical",
        title: "hybrid UCL registry + Meridian fallback (Ext C)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_ablation",
        kind: FigureKind::QueryMatrix(specs::ext_ablation::render),
        backends: "dense|hierarchical",
        title: "Meridian design-choice ablations (Ext D)",
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_scale",
        kind: FigureKind::QueryMatrix(specs::ext_scale::render),
        backends: "dense|hierarchical",
        title: "hierarchical worlds from the 2.5k-peer dense wall to a million peers",
        clamp: Some(specs::ext_scale::drop_oversized_dense_cells),
        check: Some(specs::ext_scale::check),
    },
    FigureInfo {
        spec: "ext_churn",
        kind: FigureKind::QueryMatrix(specs::ext_churn::render),
        backends: "dense|hierarchical",
        title: "accuracy and repair cost under event-clocked churn (Ext E)",
        clamp: None,
        check: Some(specs::ext_churn::check),
    },
    FigureInfo {
        spec: "ext_dht",
        kind: FigureKind::QueryMatrix(specs::ext_dht::render),
        backends: "dense|hierarchical",
        title: "structured-overlay searchers: Kademlia and NSW (Ext F)",
        clamp: None,
        check: Some(specs::ext_dht::check),
    },
    FigureInfo {
        spec: "ext_serve",
        kind: FigureKind::QueryMatrix(specs::ext_serve::render),
        backends: "dense|hierarchical",
        title: "query-serving daemon under open-loop load (Ext G)",
        clamp: None,
        check: None,
    },
];

/// The catalogue entry whose spec name is `name`.
pub fn figure(name: &str) -> Option<&'static FigureInfo> {
    FIGURES.iter().find(|f| f.spec == name)
}

/// The boxed study stage registered under `name` — the resolver
/// `ExperimentSpec::from_toml_with` wants.
pub fn study_stage(name: &str) -> Option<StudyStage> {
    match figure(name)?.kind {
        FigureKind::Study(stage) => Some(Box::new(stage)),
        FigureKind::QueryMatrix(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete_and_unique() {
        assert_eq!(
            FIGURES.len(),
            16,
            "16 figures + the all_figures manifest = 17 spec files"
        );
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.spec).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "duplicate spec names");
        for f in FIGURES {
            assert!(!f.title.is_empty());
        }
    }

    #[test]
    fn builders_study_stages_and_kinds_agree() {
        for f in FIGURES {
            let spec = crate::specs::tests::checked_in(f.spec);
            assert_eq!(spec.name, f.spec, "{}: spec name drifted", f.spec);
            match f.kind {
                FigureKind::QueryMatrix(_) => {
                    assert!(spec.cell_count() >= 1);
                    assert!(study_stage(f.spec).is_none());
                }
                FigureKind::Study(_) => assert!(study_stage(f.spec).is_some()),
            }
            // Every checked-in spec passes its own validation.
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: invalid checked-in spec: {e}", f.spec));
        }
        assert!(figure("fig8").is_some());
        assert!(figure("nope").is_none());
    }
}
