//! The declarative experiment description.
//!
//! An [`ExperimentSpec`] is the whole experiment as data: which worlds
//! to generate, on which latency backend, which registered algorithms
//! to run over them, how many queries, and across which seeds. The
//! [`crate::experiment::Experiment`] runner turns a spec into a typed
//! [`crate::experiment::ExperimentReport`]; nothing about *how* the
//! matrix of cells executes (parallelism, scenario caching, metric
//! aggregation) lives in the spec.
//!
//! Measurement-stack figures (the §3/§5 studies over the Internet
//! model, Figures 3–7, 10, 11) do not fit the world × algorithm ×
//! seed matrix; they plug in as a [`Workload::Study`] stage instead,
//! so every binary — figure or extension — still runs through the one
//! `ExperimentSpec → Experiment::run` pipeline.

use crate::churn::ChurnConfig;
use np_topology::ClusterWorldSpec;
use np_util::rng::sub_seed;

/// Which latency backend a spec's worlds are materialised on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The dense `n×n` matrix — the paper's object, exact, quadratic.
    Dense,
    /// The compressed store — per-cluster dense blocks under a
    /// hub summary grouped into super-shards, materialised lazily under
    /// a byte budget; what scales past ~2.5 k peers to 10⁶ with bounded
    /// RSS. Knobs: [`CellSpec::super_shards`] (one super-shard is the
    /// exact configuration on cluster worlds) and
    /// [`CellSpec::block_cache_mb`].
    Hierarchical,
}

impl Backend {
    /// Short name for tables and headers.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::Hierarchical => "hierarchical",
        }
    }

    /// Every backend, in catalogue order (diagnostics and the
    /// `--world` nearest-name hint enumerate this).
    pub const ALL: [Backend; 2] = [Backend::Dense, Backend::Hierarchical];

    /// One-line description for the `--world` catalogue diagnostic.
    pub fn describe(self) -> &'static str {
        match self {
            Backend::Dense => "the paper's exact n×n matrix (quadratic; ~2.5k peers)",
            Backend::Hierarchical => {
                "per-cluster blocks + two-level hub summary, lazy under a byte budget \
                 (~1M peers; exact on cluster worlds at --super-shards 1)"
            }
        }
    }

    /// Parse a `--world` / `backend =` name, with a diagnostic-quality
    /// error on a miss: the full backend catalogue plus (when a name is
    /// close) a nearest-name hint — the same shape as
    /// [`crate::experiment::UnknownAlgo`]. CLI layers print this and
    /// exit 2.
    pub fn parse(name: &str) -> Result<Backend, UnknownBackend> {
        Backend::ALL
            .iter()
            .copied()
            .find(|b| b.name() == name)
            .ok_or_else(|| UnknownBackend::new(name))
    }
}

/// A `--world` value no backend answers to: the name, the catalogue,
/// and — when plausible — the typo the caller meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    pub name: String,
    /// Closest backend name by edit distance, if close enough.
    pub hint: Option<String>,
}

impl UnknownBackend {
    fn new(name: &str) -> UnknownBackend {
        let budget = (name.chars().count() / 3).max(2);
        let hint = Backend::ALL
            .iter()
            .map(|b| (crate::experiment::registry::edit_distance(name, b.name()), b.name()))
            .filter(|&(d, _)| d <= budget)
            .min_by_key(|&(d, k)| (d, k))
            .map(|(_, k)| k.to_string());
        UnknownBackend {
            name: name.to_string(),
            hint,
        }
    }
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no world backend {:?}", self.name)?;
        if let Some(hint) = &self.hint {
            write!(f, " (did you mean {hint:?}?)")?;
        }
        write!(f, "; backends:")?;
        for b in Backend::ALL {
            write!(f, "\n  {:<13} {}", b.name(), b.describe())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownBackend {}

/// How many runs a cell aggregates, and how their seeds derive from
/// the cell's base seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPlan {
    /// One run at exactly the cell's base seed (no derivation) — the
    /// single-configuration extension experiments.
    Single,
    /// `n`-seed sweep with the workspace's historical derivation:
    /// run `i` uses `sub_seed(base + i, "RN")`. `Sweep(3)` is the
    /// paper's three-run sweep. This is the only place per-run seeds
    /// are derived.
    Sweep(usize),
}

impl SeedPlan {
    /// The paper's three-run sweep.
    pub const THREE_RUNS: SeedPlan = SeedPlan::Sweep(3);

    /// The effective per-run seeds for a cell with `base` seed.
    pub fn seeds(&self, base: u64) -> Vec<u64> {
        match *self {
            SeedPlan::Single => vec![base],
            SeedPlan::Sweep(n) => {
                assert!(n >= 1, "empty seed sweep");
                (0..n as u64)
                    .map(|i| sub_seed(base.wrapping_add(i), 0x52_4E)) // "RN"
                    .collect()
            }
        }
    }

    /// Number of runs per cell.
    pub fn runs(&self) -> usize {
        match *self {
            SeedPlan::Single => 1,
            SeedPlan::Sweep(n) => n,
        }
    }
}

/// One algorithm to run in a cell: a registry name plus presentation
/// overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoSpec {
    /// Key into the [`crate::experiment::AlgoRegistry`].
    pub name: String,
    /// Display label (defaults to the registry name).
    pub label: Option<String>,
    /// Per-algorithm query-count override (e.g. brute force at a fifth
    /// of the budget — every probe pattern is the full overlay).
    pub queries: Option<usize>,
    /// The `queries` override to use instead under `--quick`
    /// ([`ExperimentSpec::resolve_quick`] applies it). Inert at paper
    /// scale; exists so one serialised spec carries both budgets.
    pub quick_queries: Option<usize>,
}

impl AlgoSpec {
    pub fn new(name: impl Into<String>) -> AlgoSpec {
        AlgoSpec {
            name: name.into(),
            label: None,
            queries: None,
            quick_queries: None,
        }
    }

    pub fn labelled(name: impl Into<String>, label: impl Into<String>) -> AlgoSpec {
        AlgoSpec {
            name: name.into(),
            label: Some(label.into()),
            queries: None,
            quick_queries: None,
        }
    }

    pub fn with_queries(mut self, queries: usize) -> AlgoSpec {
        self.queries = Some(queries);
        self
    }

    /// Attach the `--quick` query override (paper/quick budget pair).
    pub fn with_quick_queries(mut self, queries: usize) -> AlgoSpec {
        self.quick_queries = Some(queries);
        self
    }

    /// The display label: explicit override or the registry name.
    pub fn display(&self) -> &str {
        self.label.as_deref().unwrap_or(&self.name)
    }
}

/// One cell of the experiment matrix: a world configuration, the
/// algorithms to run over it, and its query/seed budget.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Progress/report label ("x=25", "delta=0.4", "10000 peers").
    pub label: String,
    /// The §4 cluster-world generator configuration.
    pub world: ClusterWorldSpec,
    /// Held-out target count (the paper uses 100).
    pub n_targets: usize,
    /// The cell's base seed; the spec's [`SeedPlan`] derives per-run
    /// seeds from it.
    pub base_seed: u64,
    /// Queries per run (unless an [`AlgoSpec`] overrides).
    pub queries: usize,
    /// Query budget to use instead under `--quick`
    /// ([`ExperimentSpec::resolve_quick`] applies it).
    pub quick_queries: Option<usize>,
    /// Whether this cell participates in `--quick` runs (the scale and
    /// baseline sweeps drop their expensive cells there).
    pub in_quick: bool,
    /// Dynamic-world knobs: `Some` routes the cell through the
    /// event-clocked churn runner ([`crate::churn::run_dynamic`])
    /// instead of the static one; `None` (the default everywhere) keeps
    /// the cell static.
    pub churn: Option<ChurnConfig>,
    /// Super-shard count for the hierarchical backend: `None` (the
    /// default) lets the runner choose — 1 group when the shard count
    /// is small enough that the flat summary is cheap, else ~√S.
    /// Inert on the dense backend.
    pub super_shards: Option<usize>,
    /// Block-cache budget in MB for the hierarchical backend's lazily
    /// materialised per-shard blocks; `None` uses the runner default
    /// (256 MB). Inert on the dense backend.
    pub block_cache_mb: Option<usize>,
    /// Algorithms to run, in report order.
    pub algos: Vec<AlgoSpec>,
}

impl CellSpec {
    /// A cell over the paper's world shape (`ClusterWorldSpec::paper`).
    pub fn paper(
        label: impl Into<String>,
        en_per_cluster: usize,
        delta: f64,
        base_seed: u64,
        queries: usize,
        algos: Vec<AlgoSpec>,
    ) -> CellSpec {
        CellSpec {
            label: label.into(),
            world: ClusterWorldSpec::paper(en_per_cluster, delta),
            n_targets: 100,
            base_seed,
            queries,
            quick_queries: None,
            in_quick: true,
            churn: None,
            super_shards: None,
            block_cache_mb: None,
            algos,
        }
    }

    /// Attach the `--quick` query budget (paper/quick budget pair).
    pub fn with_quick_queries(mut self, queries: usize) -> CellSpec {
        self.quick_queries = Some(queries);
        self
    }

    /// Run this cell as a dynamic world under `churn`.
    pub fn with_churn(mut self, churn: ChurnConfig) -> CellSpec {
        self.churn = Some(churn);
        self
    }

    /// Pin the hierarchical backend's super-shard count.
    pub fn with_super_shards(mut self, groups: usize) -> CellSpec {
        self.super_shards = Some(groups);
        self
    }

    /// Pin the hierarchical backend's block-cache budget (MB).
    pub fn with_block_cache_mb(mut self, mb: usize) -> CellSpec {
        self.block_cache_mb = Some(mb);
        self
    }

    /// Exclude this cell from `--quick` runs.
    pub fn paper_scale_only(mut self) -> CellSpec {
        self.in_quick = false;
        self
    }
}

/// A measurement-stack stage's execution context.
pub struct StudyCtx {
    /// Base seed for the study's world generation.
    pub seed: u64,
    /// Scaled-down smoke run?
    pub quick: bool,
    /// Worker threads for any parallel regions the study enters.
    pub threads: usize,
    /// The spec's backend selection — cluster-world studies honour it,
    /// Internet-model studies note it as inert.
    pub backend: Backend,
}

/// What a measurement-stack stage returns: the rendered human output
/// plus the named tables behind it (the JSON sink re-emits those as
/// structured rows).
pub struct StudyOutput {
    /// The full human rendering (tables, charts, commentary).
    pub text: String,
    /// The tables behind the rendering, named, for `--out json`.
    pub tables: Vec<(String, np_util::table::Table)>,
}

/// A boxed measurement-stack stage — what [`Workload::Study`] holds
/// and what a study resolver hands `ExperimentSpec::from_toml_with`.
pub type StudyStage = Box<dyn Fn(&StudyCtx) -> StudyOutput + Sync>;

/// The work a spec describes.
pub enum Workload {
    /// The declarative matrix: cells × algorithms × seeds through the
    /// batch query runner.
    QueryMatrix(Vec<CellSpec>),
    /// A measurement-stack study (Figures 3–7, 10, 11, UCL discovery):
    /// an opaque stage the pipeline times, renders and sinks like any
    /// other experiment.
    Study(StudyStage),
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workload::QueryMatrix(cells) => f.debug_tuple("QueryMatrix").field(cells).finish(),
            Workload::Study(_) => f.write_str("Study(<stage>)"),
        }
    }
}

/// Spec equality is *data* equality: two study workloads compare equal
/// regardless of their stage closures (stages are resolved by spec
/// name, not serialised — see `ExperimentSpec::from_toml_with`).
impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Workload::QueryMatrix(a), Workload::QueryMatrix(b)) => a == b,
            (Workload::Study(_), Workload::Study(_)) => true,
            _ => false,
        }
    }
}

/// The complete declarative experiment.
#[derive(Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Registry/spec name ("fig8", "ext_scale", ...).
    pub name: String,
    /// Human title for headers.
    pub title: String,
    /// The paper's expected shape, quoted in headers.
    pub paper_shape: String,
    /// Latency backend for every cell.
    pub backend: Backend,
    /// Seed schedule shared by all cells.
    pub seeds: SeedPlan,
    /// Base seed handed to [`Workload::Study`] stages (query cells
    /// carry their own base seeds).
    pub base_seed: u64,
    /// Quick-mode flag handed to study stages.
    pub quick: bool,
    /// The work itself.
    pub workload: Workload,
}

impl ExperimentSpec {
    /// A query-matrix spec.
    pub fn query(
        name: impl Into<String>,
        title: impl Into<String>,
        paper_shape: impl Into<String>,
        backend: Backend,
        seeds: SeedPlan,
        cells: Vec<CellSpec>,
    ) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            title: title.into(),
            paper_shape: paper_shape.into(),
            backend,
            seeds,
            base_seed: 0,
            quick: false,
            workload: Workload::QueryMatrix(cells),
        }
    }

    /// A measurement-stack study spec.
    pub fn study(
        name: impl Into<String>,
        title: impl Into<String>,
        paper_shape: impl Into<String>,
        backend: Backend,
        base_seed: u64,
        quick: bool,
        stage: impl Fn(&StudyCtx) -> StudyOutput + Sync + 'static,
    ) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            title: title.into(),
            paper_shape: paper_shape.into(),
            backend,
            seeds: SeedPlan::Single,
            base_seed,
            quick,
            workload: Workload::Study(Box::new(stage)),
        }
    }

    /// Number of cells (1 for studies).
    pub fn cell_count(&self) -> usize {
        match &self.workload {
            Workload::QueryMatrix(cells) => cells.len(),
            Workload::Study(_) => 1,
        }
    }

    /// Resolve the spec's dual query budgets for one mode: under
    /// `quick`, cells not [`CellSpec::in_quick`] are dropped and every
    /// `quick_queries` replaces its `queries`; in both modes the quick
    /// fields are cleared, so the result is a plain single-budget spec
    /// (the pipeline never reads the quick fields). `self.quick` is set
    /// for [`Workload::Study`] stages either way.
    pub fn resolve_quick(mut self, quick: bool) -> ExperimentSpec {
        self.quick = quick;
        if let Workload::QueryMatrix(cells) = &mut self.workload {
            if quick {
                cells.retain(|c| c.in_quick);
            }
            for cell in cells.iter_mut() {
                if let Some(q) = cell.quick_queries.take() {
                    if quick {
                        cell.queries = q;
                    }
                }
                cell.in_quick = true;
                for algo in &mut cell.algos {
                    if let Some(q) = algo.quick_queries.take() {
                        if quick {
                            algo.queries = Some(q);
                        }
                    }
                }
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_util::rng::sub_seed;

    #[test]
    fn seed_plan_single_is_identity() {
        assert_eq!(SeedPlan::Single.seeds(42), vec![42]);
        assert_eq!(SeedPlan::Single.runs(), 1);
    }

    #[test]
    fn seed_plan_three_matches_historical_sweep() {
        // The historical three-run sweep applied sub_seed(s, "RN") to
        // each of base, base + 1 and base + 2 — Sweep(3) must reproduce
        // those exact seeds.
        let base = 21u64;
        let expect: Vec<u64> = [base, base + 1, base + 2]
            .iter()
            .map(|&s| sub_seed(s, 0x52_4E))
            .collect();
        assert_eq!(SeedPlan::THREE_RUNS.seeds(base), expect);
        assert_eq!(SeedPlan::Sweep(3).seeds(base), expect);
    }

    #[test]
    fn seed_plan_sweep_extends_three_runs() {
        let five = SeedPlan::Sweep(5).seeds(9);
        assert_eq!(five.len(), 5);
        assert_eq!(&five[..3], &SeedPlan::Sweep(3).seeds(9)[..]);
        // All distinct.
        let mut uniq = five.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 5);
    }

    #[test]
    fn algo_spec_display_prefers_label() {
        assert_eq!(AlgoSpec::new("meridian").display(), "meridian");
        assert_eq!(
            AlgoSpec::labelled("meridian", "beta=0.25").display(),
            "beta=0.25"
        );
        assert_eq!(
            AlgoSpec::new("brute-force").with_queries(40).queries,
            Some(40)
        );
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Dense.name(), "dense");
        assert_eq!(Backend::Hierarchical.name(), "hierarchical");
        // The catalogue covers every variant exactly once.
        let mut names: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Backend::ALL.len());
    }

    #[test]
    fn backend_parse_round_trips_and_diagnoses_typos() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Ok(b));
        }
        // A near-miss earns a nearest-name hint plus the catalogue.
        let err = Backend::parse("hierarchcal").unwrap_err();
        assert_eq!(err.hint.as_deref(), Some("hierarchical"));
        let text = err.to_string();
        assert!(text.contains("no world backend \"hierarchcal\""), "{text}");
        assert!(text.contains("(did you mean \"hierarchical\"?)"), "{text}");
        for b in Backend::ALL {
            assert!(text.contains(b.name()), "catalogue misses {}: {text}", b.name());
        }
        // A far miss keeps the catalogue but drops the hint.
        let err = Backend::parse("cubic").unwrap_err();
        assert_eq!(err.hint, None);
        assert!(!err.to_string().contains("did you mean"));
        // The retired one-level store's name is no alias.
        assert!(Backend::parse("sharded").is_err());
    }
}
