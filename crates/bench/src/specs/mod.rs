//! The figures' code, as library code.
//!
//! Each figure's data — cells, worlds, algorithms, seeds, budgets —
//! lives only in its checked-in `experiments/<fig>.toml`. `np-bench run`
//! loads that file and resolves, by the spec's name, what a file cannot
//! hold. Each figure lives here as a module with:
//!
//! * `render(report, args) -> String` for query figures, or
//!   `study(ctx) -> StudyOutput` for measurement figures;
//! * for ext_scale, ext_churn and ext_dht, a `check` the runner applies
//!   to the finished report, and for ext_scale a backend clamp.
//!
//! Renderers read everything they need from the typed report (cell
//! labels carry the sweep variable), so they serve any spec file.

pub mod ext_ablation;
pub mod ext_assumptions;
pub mod ext_baselines;
pub mod ext_churn;
pub mod ext_dht;
pub mod ext_hybrid;
pub mod ext_scale;
pub mod ext_serve;
pub mod fig10;
pub mod fig11;
pub mod fig3_4;
pub mod fig5;
pub mod fig6_7;
pub mod fig8;
pub mod fig9;
pub mod ucl_discovery;

use crate::cli::Args;
use np_core::experiment::{ExperimentSpec, Workload};

/// Apply the shared CLI overrides to a figure's dual-budget spec:
/// `--world` picks the backend, `--super-shards`/`--block-cache-mb`
/// pin the hierarchical knobs on every cell, `--seeds` the sweep
/// width, and `--quick` resolves the quick/paper budget pair.
pub fn with_args(mut spec: ExperimentSpec, args: &Args) -> ExperimentSpec {
    spec.backend = args.backend(spec.backend);
    if args.super_shards.is_some() || args.block_cache_mb.is_some() {
        if let Workload::QueryMatrix(cells) = &mut spec.workload {
            for cell in cells {
                cell.super_shards = args.super_shards.or(cell.super_shards);
                cell.block_cache_mb = args.block_cache_mb.or(cell.block_cache_mb);
            }
        }
    }
    spec.seeds = args.seed_plan(spec.seeds);
    spec.resolve_quick(args.quick)
}

/// The numeric sweep variable a cell label carries ("x=25" → 25.0,
/// "delta=0.4" → 0.4, "10000 peers" → 10000.0). Renderers chart by it.
pub fn label_value(label: &str) -> Option<f64> {
    let token = label.split(['=', ' ']).find(|t| !t.is_empty() && t.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-'))?;
    token.parse().ok()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::registry::full_registry;
    use np_core::experiment::{
        AlgoSpec, Backend, CellSpec, Experiment, ExperimentReport, SeedPlan,
    };
    use np_topology::ClusterWorldSpec;
    use np_util::Micros;

    /// A one-cell dense spec over a 96-peer cluster world: small enough
    /// to run in a unit test, so a figure check sees a genuine report
    /// before the test doctors it.
    pub(crate) fn tiny_spec(algos: &[&str]) -> ExperimentSpec {
        let cell = CellSpec {
            label: "96 peers".into(),
            world: ClusterWorldSpec {
                clusters: 4,
                en_per_cluster: 12,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 4,
            },
            n_targets: 4,
            base_seed: 7,
            queries: 20,
            quick_queries: None,
            in_quick: true,
            churn: None,
            super_shards: None,
            block_cache_mb: None,
            algos: algos.iter().copied().map(AlgoSpec::new).collect(),
        };
        ExperimentSpec::query(
            "tiny",
            "tiny",
            "n/a",
            Backend::Dense,
            SeedPlan::Single,
            vec![cell],
        )
    }

    /// The checked-in `experiments/<name>.toml`, parsed.
    pub(crate) fn checked_in(name: &str) -> ExperimentSpec {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../experiments")
            .join(crate::spec_files::spec_file_name(name));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        ExperimentSpec::from_toml_with(&text, crate::study_stage)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// Run `spec` through the full registry on two threads.
    pub(crate) fn run(spec: ExperimentSpec) -> ExperimentReport {
        Experiment::new(spec, &full_registry()).run(2)
    }

    #[test]
    fn label_values_parse() {
        assert_eq!(label_value("x=25"), Some(25.0));
        assert_eq!(label_value("delta=0.4"), Some(0.4));
        assert_eq!(label_value("10000 peers"), Some(10000.0));
        assert_eq!(label_value("delta=0"), Some(0.0));
        assert_eq!(label_value("no numbers"), None);
    }
}
