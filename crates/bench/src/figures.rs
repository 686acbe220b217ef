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

/// How a figure runs through the experiment pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Declarative cells × algorithms × seeds over cluster worlds;
    /// honours `--world dense|hierarchical`.
    QueryMatrix,
    /// Measurement-stack study over the Internet model (`--world` is
    /// accepted but inert — there is no latency store to swap).
    Study,
}

impl FigureKind {
    pub fn name(self) -> &'static str {
        match self {
            FigureKind::QueryMatrix => "query-matrix",
            FigureKind::Study => "study",
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
    /// The figure's bespoke renderer (query figures; `None` for
    /// studies, which render through `cli::study_rendered`).
    pub render: Option<fn(&ExperimentReport, &Args) -> String>,
    /// The measurement stage (study figures only) — what a TOML-loaded
    /// study spec resolves by name.
    pub study: Option<fn(&StudyCtx) -> StudyOutput>,
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
        kind: FigureKind::Study,
        backends: "n/a (measurement pipeline)",
        title: "DNS-pair latency-prediction measure (Figures 3 & 4)",
        render: None,
        clamp: None,
        check: None,
        study: Some(specs::fig3_4::study),
    },
    FigureInfo {
        spec: "fig5",
        kind: FigureKind::Study,
        backends: "n/a (measurement pipeline)",
        title: "intra- vs inter-domain latency distributions (Figure 5)",
        render: None,
        clamp: None,
        check: None,
        study: Some(specs::fig5::study),
    },
    FigureInfo {
        spec: "fig6_7",
        kind: FigureKind::Study,
        backends: "n/a (measurement pipeline)",
        title: "Azureus cluster sizes and latencies (Figures 6 & 7)",
        render: None,
        clamp: None,
        check: None,
        study: Some(specs::fig6_7::study),
    },
    FigureInfo {
        spec: "fig8",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "Meridian accuracy vs cluster size (Figure 8)",
        render: Some(specs::fig8::render),
        study: None,
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig9",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "Meridian accuracy and hub distance vs delta (Figure 9)",
        render: Some(specs::fig9::render),
        study: None,
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "fig10",
        kind: FigureKind::Study,
        backends: "n/a (measurement pipeline)",
        title: "inter-peer router hops vs latency (Figure 10)",
        render: None,
        clamp: None,
        check: None,
        study: Some(specs::fig10::study),
    },
    FigureInfo {
        spec: "fig11",
        kind: FigureKind::Study,
        backends: "n/a (measurement pipeline)",
        title: "IP-prefix heuristic error rates (Figure 11)",
        render: None,
        clamp: None,
        check: None,
        study: Some(specs::fig11::study),
    },
    FigureInfo {
        spec: "ucl_discovery",
        kind: FigureKind::Study,
        backends: "n/a (measurement pipeline)",
        title: "UCL discovery rates vs tracked routers (paper Section 5)",
        render: None,
        clamp: None,
        check: None,
        study: Some(specs::ucl_discovery::study),
    },
    FigureInfo {
        spec: "ext_baselines",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "all algorithms under the clustering condition (Ext A)",
        render: Some(specs::ext_baselines::render),
        study: None,
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_assumptions",
        kind: FigureKind::Study,
        backends: "dense|hierarchical",
        title: "metric-space diagnostics under clustering (Ext B)",
        render: None,
        clamp: None,
        check: None,
        study: Some(specs::ext_assumptions::study),
    },
    FigureInfo {
        spec: "ext_hybrid",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "hybrid UCL registry + Meridian fallback (Ext C)",
        render: Some(specs::ext_hybrid::render),
        study: None,
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_ablation",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "Meridian design-choice ablations (Ext D)",
        render: Some(specs::ext_ablation::render),
        study: None,
        clamp: None,
        check: None,
    },
    FigureInfo {
        spec: "ext_scale",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "hierarchical worlds from the 2.5k-peer dense wall to a million peers",
        render: Some(specs::ext_scale::render),
        study: None,
        clamp: Some(specs::ext_scale::drop_oversized_dense_cells),
        check: Some(specs::ext_scale::check),
    },
    FigureInfo {
        spec: "ext_churn",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "accuracy and repair cost under event-clocked churn (Ext E)",
        render: Some(specs::ext_churn::render),
        study: None,
        clamp: None,
        check: Some(specs::ext_churn::check),
    },
    FigureInfo {
        spec: "ext_dht",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "structured-overlay searchers: Kademlia and NSW (Ext F)",
        render: Some(specs::ext_dht::render),
        study: None,
        clamp: None,
        check: Some(specs::ext_dht::check),
    },
    FigureInfo {
        spec: "ext_serve",
        kind: FigureKind::QueryMatrix,
        backends: "dense|hierarchical",
        title: "query-serving daemon under open-loop load (Ext G)",
        render: Some(specs::ext_serve::render),
        study: None,
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
    figure(name)
        .and_then(|f| f.study)
        .map(|stage| Box::new(stage) as StudyStage)
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
                FigureKind::QueryMatrix => {
                    assert!(f.render.is_some(), "{}: query figures render", f.spec);
                    assert!(f.study.is_none());
                    assert!(spec.cell_count() >= 1);
                    assert!(study_stage(f.spec).is_none());
                }
                FigureKind::Study => {
                    assert!(f.render.is_none());
                    assert!(f.study.is_some(), "{}: study figures need a stage", f.spec);
                    assert!(study_stage(f.spec).is_some());
                }
            }
            // Every checked-in spec passes its own validation.
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: invalid checked-in spec: {e}", f.spec));
        }
        assert!(figure("fig8").is_some());
        assert!(figure("nope").is_none());
    }
}
