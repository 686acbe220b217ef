//! `ExperimentSpec` ⇄ TOML.
//!
//! The serialised form is the whole experiment as a config file — what
//! the `experiments/` directory checks in and `np-bench run` loads:
//!
//! ```toml
//! [experiment]
//! name = "fig8"
//! title = "Figure 8 — Meridian accuracy vs cluster size"
//! paper_shape = "closest-peer curve peaks near x=25 then collapses"
//! backend = "dense"          # or "hierarchical"
//! seeds = 3                  # "single", or an n-run sweep width
//! base_seed = 32253960       # the seed the file was generated at
//! workload = "query"         # or "study"
//!
//! [[cell]]
//! label = "x=5"
//! base_seed = 32253965
//! targets = 100
//! queries = 5000
//! quick_queries = 400        # optional --quick budget
//! # quick = false            # optional: drop the cell under --quick
//! # super_shards = 50        # optional: hierarchical group count (default: auto)
//! # block_cache_mb = 256     # optional: hierarchical block-cache budget
//!
//! [cell.world]
//! clusters = 250
//! en_per_cluster = 5
//! peers_per_en = 2
//! delta = 0.2
//! mean_hub_ms = [4.0, 6.0]
//! intra_en_us = 100
//! hub_pool = 250
//!
//! [[cell.algo]]
//! name = "meridian"
//! # label = "display override"
//! # queries = 1000 / quick_queries = 200   (per-algorithm budgets)
//!
//! # optional: run the cell as a dynamic world (ext_churn does)
//! [cell.churn]
//! events_per_min = 6.0
//! duration_s = 60.0
//! drift_max_us = 2000
//! offline_frac = 0.05
//! loss = 0.05
//! retries = 3
//! ```
//!
//! A `workload = "study"` spec has no cells; its measurement stage is
//! code, so it is resolved *by name* at load time (the figure catalogue
//! provides the resolver) — the file carries everything else.
//!
//! Loading validates: a malformed file, an unknown key, or a degenerate
//! world (zero clusters, targets ≥ peers, …) is a typed [`SpecError`]
//! naming the offending key/line — never a panic downstream.

use crate::churn::ChurnConfig;
use crate::experiment::spec::{
    AlgoSpec, Backend, CellSpec, ExperimentSpec, SeedPlan, StudyStage, Workload,
};
use np_topology::ClusterWorldSpec;
use np_util::Micros;
use std::fmt;

/// What can go wrong loading or validating a serialised spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// TOML-level syntax error (carries the 1-based line).
    Toml(toml::Error),
    /// A required key is absent. `key` is the full dotted path.
    Missing { key: String },
    /// A key holds the wrong type or an out-of-range/degenerate value.
    Invalid { key: String, expected: String, got: String },
    /// A key the spec schema does not define (catches typos early).
    Unknown { key: String, valid: Vec<&'static str> },
    /// A `workload = "study"` spec whose stage the resolver cannot
    /// supply (stages are code; only catalogued names resolve).
    UnknownStudy { name: String },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Toml(e) => write!(f, "{e}"),
            SpecError::Missing { key } => write!(f, "missing key `{key}`"),
            SpecError::Invalid { key, expected, got } => {
                write!(f, "key `{key}`: expected {expected}, got {got}")
            }
            SpecError::Unknown { key, valid } => {
                write!(f, "unknown key `{key}` (valid keys here: {})", valid.join(", "))
            }
            SpecError::UnknownStudy { name } => write!(
                f,
                "spec {name:?} is a study (its stage is code, not config) and no study \
                 named {name:?} is in the catalogue; `np-bench list` shows the known specs"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<toml::Error> for SpecError {
    fn from(e: toml::Error) -> SpecError {
        SpecError::Toml(e)
    }
}

fn invalid(key: impl Into<String>, expected: impl Into<String>, got: impl fmt::Display) -> SpecError {
    SpecError::Invalid {
        key: key.into(),
        expected: expected.into(),
        got: got.to_string(),
    }
}

// ---------------------------------------------------------------- reading

/// Typed accessors over a [`toml::Table`] that name the full dotted
/// path of whatever is missing or mistyped.
struct Reader<'a> {
    table: &'a toml::Table,
    path: String,
}

impl<'a> Reader<'a> {
    fn new(table: &'a toml::Table, path: impl Into<String>) -> Reader<'a> {
        Reader {
            table,
            path: path.into(),
        }
    }

    fn key(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Reject keys outside the schema (typo guard).
    fn check_keys(&self, allowed: &[&'static str]) -> Result<(), SpecError> {
        for k in self.table.keys() {
            if !allowed.contains(&k) {
                return Err(SpecError::Unknown {
                    key: self.key(k),
                    valid: allowed.to_vec(),
                });
            }
        }
        Ok(())
    }

    fn req(&self, key: &str) -> Result<&'a toml::Value, SpecError> {
        self.table.get(key).ok_or(SpecError::Missing { key: self.key(key) })
    }

    fn str(&self, key: &str) -> Result<&'a str, SpecError> {
        let v = self.req(key)?;
        v.as_str()
            .ok_or_else(|| invalid(self.key(key), "a string", v.type_name()))
    }

    fn opt_str(&self, key: &str) -> Result<Option<&'a str>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| invalid(self.key(key), "a string", v.type_name())),
        }
    }

    fn usize(&self, key: &str) -> Result<usize, SpecError> {
        let v = self.req(key)?;
        v.as_int()
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| invalid(self.key(key), "a non-negative integer", v.type_name()))
    }

    fn opt_usize(&self, key: &str) -> Result<Option<usize>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_int()
                .and_then(|i| usize::try_from(i).ok())
                .map(Some)
                .ok_or_else(|| invalid(self.key(key), "a non-negative integer", v.type_name())),
        }
    }

    /// u64 seeds: an integer, or (for values past `i64::MAX`) a string
    /// of decimal digits.
    fn seed(&self, key: &str) -> Result<u64, SpecError> {
        let v = self.req(key)?;
        let parsed = match v {
            toml::Value::Int(i) => u64::try_from(*i).ok(),
            toml::Value::Str(s) => s.parse::<u64>().ok(),
            _ => None,
        };
        parsed.ok_or_else(|| invalid(self.key(key), "a u64 seed", v.type_name()))
    }

    fn f64(&self, key: &str) -> Result<f64, SpecError> {
        let v = self.req(key)?;
        v.as_float()
            .ok_or_else(|| invalid(self.key(key), "a number", v.type_name()))
    }

    fn opt_bool(&self, key: &str, default: bool) -> Result<bool, SpecError> {
        match self.table.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid(self.key(key), "a boolean", v.type_name())),
        }
    }

    /// An array of sub-tables (`[[key]]`), or empty when absent.
    fn tables(&self, key: &str) -> Result<Vec<&'a toml::Table>, SpecError> {
        match self.table.get(key) {
            None => Ok(Vec::new()),
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or_else(|| invalid(self.key(key), "an array of tables", v.type_name()))?;
                arr.iter()
                    .map(|e| {
                        e.as_table()
                            .ok_or_else(|| invalid(self.key(key), "an array of tables", e.type_name()))
                    })
                    .collect()
            }
        }
    }
}

// ---------------------------------------------------------------- emitting

fn seed_value(seed: u64) -> toml::Value {
    match i64::try_from(seed) {
        Ok(i) => toml::Value::Int(i),
        Err(_) => toml::Value::Str(seed.to_string()),
    }
}

fn world_table(w: &ClusterWorldSpec) -> toml::Table {
    let mut t = toml::Table::new();
    t.insert("clusters", toml::Value::Int(w.clusters as i64));
    t.insert("en_per_cluster", toml::Value::Int(w.en_per_cluster as i64));
    t.insert("peers_per_en", toml::Value::Int(w.peers_per_en as i64));
    t.insert("delta", toml::Value::Float(w.delta));
    t.insert(
        "mean_hub_ms",
        toml::Value::Array(vec![
            toml::Value::Float(w.mean_hub_ms.0),
            toml::Value::Float(w.mean_hub_ms.1),
        ]),
    );
    t.insert("intra_en_us", toml::Value::Int(w.intra_en.as_us() as i64));
    t.insert("hub_pool", toml::Value::Int(w.hub_pool as i64));
    t
}

fn algo_table(a: &AlgoSpec) -> toml::Table {
    let mut t = toml::Table::new();
    t.insert("name", toml::Value::Str(a.name.clone()));
    if let Some(label) = &a.label {
        t.insert("label", toml::Value::Str(label.clone()));
    }
    if let Some(q) = a.queries {
        t.insert("queries", toml::Value::Int(q as i64));
    }
    if let Some(q) = a.quick_queries {
        t.insert("quick_queries", toml::Value::Int(q as i64));
    }
    t
}

fn churn_table(c: &ChurnConfig) -> toml::Table {
    let mut t = toml::Table::new();
    t.insert("events_per_min", toml::Value::Float(c.events_per_min));
    t.insert("duration_s", toml::Value::Float(c.duration_s));
    t.insert("drift_max_us", toml::Value::Int(c.drift_max_us as i64));
    t.insert("offline_frac", toml::Value::Float(c.offline_frac));
    t.insert("loss", toml::Value::Float(c.loss));
    t.insert("retries", toml::Value::Int(i64::from(c.retries)));
    t
}

fn cell_table(c: &CellSpec) -> toml::Table {
    let mut t = toml::Table::new();
    t.insert("label", toml::Value::Str(c.label.clone()));
    t.insert("base_seed", seed_value(c.base_seed));
    t.insert("targets", toml::Value::Int(c.n_targets as i64));
    t.insert("queries", toml::Value::Int(c.queries as i64));
    if let Some(q) = c.quick_queries {
        t.insert("quick_queries", toml::Value::Int(q as i64));
    }
    if !c.in_quick {
        t.insert("quick", toml::Value::Bool(false));
    }
    if let Some(g) = c.super_shards {
        t.insert("super_shards", toml::Value::Int(g as i64));
    }
    if let Some(mb) = c.block_cache_mb {
        t.insert("block_cache_mb", toml::Value::Int(mb as i64));
    }
    if let Some(churn) = &c.churn {
        t.insert("churn", toml::Value::Table(churn_table(churn)));
    }
    t.insert("world", toml::Value::Table(world_table(&c.world)));
    t.insert(
        "algo",
        toml::Value::Array(c.algos.iter().map(|a| toml::Value::Table(algo_table(a))).collect()),
    );
    t
}

// ------------------------------------------------------------ spec ⇄ toml

const EXPERIMENT_KEYS: &[&str] = &[
    "name", "title", "paper_shape", "backend", "seeds", "base_seed", "workload",
];
const CELL_KEYS: &[&str] = &[
    "label",
    "base_seed",
    "targets",
    "queries",
    "quick_queries",
    "quick",
    "super_shards",
    "block_cache_mb",
    "churn",
    "world",
    "algo",
];
const CHURN_KEYS: &[&str] = &[
    "events_per_min", "duration_s", "drift_max_us", "offline_frac", "loss", "retries",
];
const WORLD_KEYS: &[&str] = &[
    "clusters", "en_per_cluster", "peers_per_en", "delta", "mean_hub_ms", "intra_en_us", "hub_pool",
];
const ALGO_KEYS: &[&str] = &["name", "label", "queries", "quick_queries"];
const ROOT_KEYS: &[&str] = &["experiment", "cell"];

impl ExperimentSpec {
    /// Serialise to the TOML schema above. Stages of
    /// [`Workload::Study`] specs are not serialised (they are code,
    /// resolved back by name); everything else round-trips exactly:
    /// `from_toml_with(to_toml(spec), …) == spec`.
    pub fn to_toml(&self) -> String {
        let mut exp = toml::Table::new();
        exp.insert("name", toml::Value::Str(self.name.clone()));
        exp.insert("title", toml::Value::Str(self.title.clone()));
        exp.insert("paper_shape", toml::Value::Str(self.paper_shape.clone()));
        exp.insert("backend", toml::Value::Str(self.backend.name().to_string()));
        exp.insert(
            "seeds",
            match self.seeds {
                SeedPlan::Single => toml::Value::Str("single".into()),
                SeedPlan::Sweep(n) => toml::Value::Int(n as i64),
            },
        );
        exp.insert("base_seed", seed_value(self.base_seed));
        let mut root = toml::Table::new();
        match &self.workload {
            Workload::QueryMatrix(cells) => {
                exp.insert("workload", toml::Value::Str("query".into()));
                root.insert("experiment", toml::Value::Table(exp));
                root.insert(
                    "cell",
                    toml::Value::Array(
                        cells.iter().map(|c| toml::Value::Table(cell_table(c))).collect(),
                    ),
                );
            }
            Workload::Study(_) => {
                exp.insert("workload", toml::Value::Str("study".into()));
                root.insert("experiment", toml::Value::Table(exp));
            }
        }
        toml::emit(&root)
    }

    /// Load a spec whose workload is a query matrix. A `workload =
    /// "study"` file fails with [`SpecError::UnknownStudy`] — use
    /// [`ExperimentSpec::from_toml_with`] and supply the resolver.
    pub fn from_toml(text: &str) -> Result<ExperimentSpec, SpecError> {
        Self::from_toml_with(text, |_| None)
    }

    /// Load a spec, resolving a study workload's stage by spec name
    /// (the `np-bench` figure catalogue is the usual resolver). The
    /// loaded spec is validated — malformed files, unknown keys and
    /// degenerate worlds come back as [`SpecError`]s naming the
    /// offending key or line, never as a panic later in the pipeline.
    pub fn from_toml_with(
        text: &str,
        resolve_study: impl FnOnce(&str) -> Option<StudyStage>,
    ) -> Result<ExperimentSpec, SpecError> {
        let root_table = toml::parse(text)?;
        let root = Reader::new(&root_table, "");
        root.check_keys(ROOT_KEYS)?;
        let exp_table = root
            .req("experiment")?
            .as_table()
            .ok_or_else(|| invalid("experiment", "a table", "something else"))?;
        let exp = Reader::new(exp_table, "experiment");
        exp.check_keys(EXPERIMENT_KEYS)?;
        let name = exp.str("name")?.to_string();
        let title = exp.str("title")?.to_string();
        let paper_shape = exp.str("paper_shape")?.to_string();
        let backend = Backend::parse(exp.str("backend")?)
            .map_err(|e| invalid("experiment.backend", "a world backend", e))?;
        let seeds = match exp.req("seeds")? {
            toml::Value::Str(s) if s == "single" => SeedPlan::Single,
            // `seeds = 1` means exactly what `--seeds 1` means: one
            // run at the cell's base seed (SeedPlan::Single), not a
            // width-1 sweep with a derived seed — the two would give
            // different numbers for the same written "1".
            toml::Value::Int(1) => SeedPlan::Single,
            toml::Value::Int(n) if *n >= 1 => SeedPlan::Sweep(*n as usize),
            other => {
                return Err(invalid(
                    "experiment.seeds",
                    "\"single\" or a sweep width >= 1",
                    match other {
                        toml::Value::Int(n) => n.to_string(),
                        v => v.type_name().to_string(),
                    },
                ))
            }
        };
        let base_seed = exp.seed("base_seed")?;
        let workload = match exp.str("workload")? {
            "query" => {
                let mut cells = Vec::new();
                for (i, cell_table) in root.tables("cell")?.iter().enumerate() {
                    cells.push(parse_cell(cell_table, i)?);
                }
                Workload::QueryMatrix(cells)
            }
            "study" => {
                if root_table.contains_key("cell") {
                    return Err(invalid("cell", "no cells on a study spec", "cell tables"));
                }
                let stage =
                    resolve_study(&name).ok_or_else(|| SpecError::UnknownStudy { name: name.clone() })?;
                Workload::Study(stage)
            }
            other => {
                return Err(invalid(
                    "experiment.workload",
                    "\"query\" or \"study\"",
                    format!("{other:?}"),
                ))
            }
        };
        let spec = ExperimentSpec {
            name,
            title,
            paper_shape,
            backend,
            seeds,
            base_seed,
            quick: false,
            workload,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the spec for degenerate configurations the pipeline would
    /// otherwise panic on (zero-sized worlds, targets swallowing every
    /// peer, empty sweeps …). Called by the TOML loader; harnesses with
    /// user-supplied specs should call it before running.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(invalid("experiment.name", "a non-empty name", "\"\""));
        }
        if let SeedPlan::Sweep(n) = self.seeds {
            if n < 1 {
                return Err(invalid("experiment.seeds", "a sweep width >= 1", n));
            }
        }
        let Workload::QueryMatrix(cells) = &self.workload else {
            return Ok(());
        };
        if cells.is_empty() {
            return Err(SpecError::Missing { key: "cell".into() });
        }
        for (i, c) in cells.iter().enumerate() {
            let key = |k: &str| format!("cell[{i}].{k}");
            let w = &c.world;
            if w.clusters < 1 {
                return Err(invalid(key("world.clusters"), "at least 1 cluster", w.clusters));
            }
            if w.en_per_cluster < 1 {
                return Err(invalid(key("world.en_per_cluster"), "at least 1 end-network", w.en_per_cluster));
            }
            if w.peers_per_en < 1 {
                return Err(invalid(key("world.peers_per_en"), "at least 1 peer", w.peers_per_en));
            }
            if !(0.0..=1.0).contains(&w.delta) {
                return Err(invalid(key("world.delta"), "delta in [0, 1]", w.delta));
            }
            if !(w.mean_hub_ms.0 > 0.0 && w.mean_hub_ms.1 >= w.mean_hub_ms.0) {
                return Err(invalid(
                    key("world.mean_hub_ms"),
                    "0 < lo <= hi",
                    format!("[{:?}, {:?}]", w.mean_hub_ms.0, w.mean_hub_ms.1),
                ));
            }
            if w.hub_pool < w.clusters {
                return Err(invalid(
                    key("world.hub_pool"),
                    format!("a hub pool >= the {} clusters", w.clusters),
                    w.hub_pool,
                ));
            }
            if c.n_targets < 1 {
                return Err(invalid(key("targets"), "at least 1 held-out target", c.n_targets));
            }
            let peers = w.total_peers();
            if peers <= c.n_targets {
                return Err(invalid(
                    key("targets"),
                    format!("fewer targets than the world's {peers} peers (the overlay must be non-empty)"),
                    c.n_targets,
                ));
            }
            if c.queries < 1 {
                return Err(invalid(key("queries"), "at least 1 query", c.queries));
            }
            if c.quick_queries == Some(0) {
                return Err(invalid(key("quick_queries"), "at least 1 query", 0));
            }
            if c.super_shards == Some(0) {
                return Err(invalid(key("super_shards"), "at least 1 super-shard", 0));
            }
            if c.block_cache_mb == Some(0) {
                return Err(invalid(key("block_cache_mb"), "a block-cache budget >= 1 MB", 0));
            }
            if let Some(churn) = &c.churn {
                if !(churn.events_per_min >= 0.0 && churn.events_per_min.is_finite()) {
                    return Err(invalid(
                        key("churn.events_per_min"),
                        "a finite rate >= 0",
                        churn.events_per_min,
                    ));
                }
                if !(churn.duration_s > 0.0 && churn.duration_s.is_finite()) {
                    return Err(invalid(
                        key("churn.duration_s"),
                        "a finite duration > 0",
                        churn.duration_s,
                    ));
                }
                if !(0.0..1.0).contains(&churn.offline_frac) {
                    return Err(invalid(
                        key("churn.offline_frac"),
                        "a fraction in [0, 1)",
                        churn.offline_frac,
                    ));
                }
                if !(0.0..1.0).contains(&churn.loss) {
                    return Err(invalid(key("churn.loss"), "a probability in [0, 1)", churn.loss));
                }
                if churn.retries < 1 {
                    return Err(invalid(key("churn.retries"), "at least 1 attempt", 0));
                }
            }
            if c.algos.is_empty() {
                return Err(SpecError::Missing { key: key("algo") });
            }
            for (j, a) in c.algos.iter().enumerate() {
                let akey = |k: &str| format!("cell[{i}].algo[{j}].{k}");
                if a.name.is_empty() {
                    return Err(invalid(akey("name"), "a registry algorithm name", "\"\""));
                }
                if a.queries == Some(0) {
                    return Err(invalid(akey("queries"), "at least 1 query", 0));
                }
                if a.quick_queries == Some(0) {
                    return Err(invalid(akey("quick_queries"), "at least 1 query", 0));
                }
            }
        }
        Ok(())
    }
}

fn parse_cell(t: &toml::Table, idx: usize) -> Result<CellSpec, SpecError> {
    let path = format!("cell[{idx}]");
    let cell = Reader::new(t, path.clone());
    cell.check_keys(CELL_KEYS)?;
    let world_value = cell.req("world")?;
    let world_table = world_value
        .as_table()
        .ok_or_else(|| invalid(format!("{path}.world"), "a table", world_value.type_name()))?;
    let world = Reader::new(world_table, format!("{path}.world"));
    world.check_keys(WORLD_KEYS)?;
    let mean = {
        let v = world.req("mean_hub_ms")?;
        let arr = v
            .as_array()
            .ok_or_else(|| invalid(format!("{path}.world.mean_hub_ms"), "[lo_ms, hi_ms]", v.type_name()))?;
        match arr {
            [lo, hi] => match (lo.as_float(), hi.as_float()) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => {
                    return Err(invalid(
                        format!("{path}.world.mean_hub_ms"),
                        "[lo_ms, hi_ms]",
                        "non-numeric entries",
                    ))
                }
            },
            _ => {
                return Err(invalid(
                    format!("{path}.world.mean_hub_ms"),
                    "[lo_ms, hi_ms]",
                    format!("{} entries", arr.len()),
                ))
            }
        }
    };
    let world_spec = ClusterWorldSpec {
        clusters: world.usize("clusters")?,
        en_per_cluster: world.usize("en_per_cluster")?,
        peers_per_en: world.usize("peers_per_en")?,
        delta: world.f64("delta")?,
        mean_hub_ms: mean,
        intra_en: Micros::from_us(world.usize("intra_en_us")? as u64),
        hub_pool: world.usize("hub_pool")?,
    };
    let churn = match t.get("churn") {
        None => None,
        Some(v) => {
            let churn_tbl = v
                .as_table()
                .ok_or_else(|| invalid(format!("{path}.churn"), "a table", v.type_name()))?;
            let ch = Reader::new(churn_tbl, format!("{path}.churn"));
            ch.check_keys(CHURN_KEYS)?;
            let retries = ch.usize("retries")?;
            Some(ChurnConfig {
                events_per_min: ch.f64("events_per_min")?,
                duration_s: ch.f64("duration_s")?,
                drift_max_us: ch.usize("drift_max_us")? as u64,
                offline_frac: ch.f64("offline_frac")?,
                loss: ch.f64("loss")?,
                retries: u32::try_from(retries)
                    .map_err(|_| invalid(format!("{path}.churn.retries"), "a u32", retries))?,
            })
        }
    };
    let algo_tables = cell.tables("algo")?;
    let mut algos = Vec::new();
    for (j, at) in algo_tables.iter().enumerate() {
        let a = Reader::new(at, format!("{path}.algo[{j}]"));
        a.check_keys(ALGO_KEYS)?;
        algos.push(AlgoSpec {
            name: a.str("name")?.to_string(),
            label: a.opt_str("label")?.map(str::to_string),
            queries: a.opt_usize("queries")?,
            quick_queries: a.opt_usize("quick_queries")?,
        });
    }
    Ok(CellSpec {
        label: cell.str("label")?.to_string(),
        world: world_spec,
        n_targets: cell.usize("targets")?,
        base_seed: cell.seed("base_seed")?,
        queries: cell.usize("queries")?,
        quick_queries: cell.opt_usize("quick_queries")?,
        in_quick: cell.opt_bool("quick", true)?,
        churn,
        super_shards: cell.opt_usize("super_shards")?,
        block_cache_mb: cell.opt_usize("block_cache_mb")?,
        algos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::spec::StudyOutput;
    use np_util::rng::rng_from;
    use rand::{Rng, RngCore};

    fn sample_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::query(
            "demo",
            "a title with \"quotes\" and — dashes",
            "shape",
            Backend::Hierarchical,
            SeedPlan::Sweep(3),
            vec![
                CellSpec::paper("x=5", 5, 0.2, 101, 5_000, vec![AlgoSpec::new("meridian")])
                    .with_quick_queries(400)
                    .with_churn(ChurnConfig {
                        events_per_min: 6.0,
                        duration_s: 60.0,
                        drift_max_us: 2_000,
                        offline_frac: 0.05,
                        loss: 0.05,
                        retries: 3,
                    }),
                CellSpec::paper(
                    "x=25",
                    25,
                    0.4,
                    126,
                    1_000,
                    vec![
                        AlgoSpec::labelled("random", "lower bound"),
                        AlgoSpec::new("brute-force").with_queries(200).with_quick_queries(30),
                    ],
                )
                .paper_scale_only()
                .with_super_shards(16)
                .with_block_cache_mb(64),
            ],
        );
        spec.base_seed = 100;
        spec
    }

    #[test]
    fn query_spec_round_trips_exactly() {
        let spec = sample_spec();
        let text = spec.to_toml();
        let back = ExperimentSpec::from_toml(&text).expect("parses");
        assert_eq!(back, spec);
        // And the serialised form itself is a fixed point.
        assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn study_spec_round_trips_via_resolver() {
        let stage = |_: &crate::experiment::StudyCtx| StudyOutput {
            text: String::new(),
            tables: Vec::new(),
        };
        let spec = ExperimentSpec::study(
            "fig5",
            "Figure 5",
            "intra ~10x smaller",
            Backend::Dense,
            77,
            false,
            stage,
        );
        let text = spec.to_toml();
        assert!(text.contains("workload = \"study\""));
        // Without a resolver the stage cannot exist.
        let err = ExperimentSpec::from_toml(&text).unwrap_err();
        assert!(matches!(err, SpecError::UnknownStudy { ref name } if name == "fig5"), "{err}");
        // With one, everything but the closure round-trips (and spec
        // equality is data equality).
        let back = ExperimentSpec::from_toml_with(&text, |name| {
            assert_eq!(name, "fig5");
            Some(Box::new(stage) as StudyStage)
        })
        .expect("resolves");
        assert_eq!(back, spec);
    }

    #[test]
    fn resolve_quick_applies_budgets_and_drops_cells() {
        let quick = sample_spec().resolve_quick(true);
        let Workload::QueryMatrix(cells) = &quick.workload else {
            panic!("query spec")
        };
        // x=25 is paper-only; x=5 swaps in its quick budget.
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "x=5");
        assert_eq!(cells[0].queries, 400);
        assert_eq!(cells[0].quick_queries, None);
        let paper = sample_spec().resolve_quick(false);
        let Workload::QueryMatrix(cells) = &paper.workload else {
            panic!("query spec")
        };
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].queries, 5_000);
        assert_eq!(cells[1].algos[1].queries, Some(200));
        assert_eq!(cells[1].algos[1].quick_queries, None);
    }

    #[test]
    fn errors_name_the_offending_key() {
        let text = sample_spec().to_toml();
        // Unknown key inside a cell.
        let bad = text.replace("targets = 100", "targest = 100");
        let err = ExperimentSpec::from_toml(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("targest"), "{msg}");
        // Missing required key.
        let bad = text.replace("title = ", "# title = ");
        let err = ExperimentSpec::from_toml(&bad).unwrap_err();
        assert_eq!(err, SpecError::Missing { key: "experiment.title".into() });
        // Type error deep in a world table.
        let bad = text.replace("delta = 0.2", "delta = \"high\"");
        let err = ExperimentSpec::from_toml(&bad).unwrap_err();
        assert!(err.to_string().contains("cell[0].world.delta"), "{err}");
        // Syntax errors carry the line.
        let err = ExperimentSpec::from_toml("[experiment\nname = \"x\"").unwrap_err();
        assert!(matches!(err, SpecError::Toml(ref e) if e.line == 1), "{err}");
    }

    #[test]
    fn validation_rejects_degenerate_worlds() {
        let text = sample_spec().to_toml();
        let case = |from: &str, to: &str, want: &str| {
            let err = ExperimentSpec::from_toml(&text.replace(from, to)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(want), "replacing {from:?}: {msg}");
        };
        case("clusters = 250", "clusters = 0", "world.clusters");
        case("delta = 0.2", "delta = 1.5", "world.delta");
        case("targets = 100", "targets = 0", "at least 1 held-out target");
        // Targets must leave an overlay: x=5's world has 2,500 peers.
        case("targets = 100\nqueries = 5000", "targets = 99999\nqueries = 5000", "overlay must be non-empty");
        case("queries = 5000", "queries = 0", "at least 1 query");
        case("hub_pool = 250", "hub_pool = 1", "hub pool");
        case("seeds = 3", "seeds = 0", "experiment.seeds");
        case(
            "backend = \"hierarchical\"",
            "backend = \"cubic\"",
            "experiment.backend",
        );
        // The retired one-level store's name gets the catalogue of the
        // live backends, not an alias.
        case(
            "backend = \"hierarchical\"",
            "backend = \"sharded\"",
            "backends:\n  dense",
        );
        // Hierarchical knobs: zero is degenerate for both.
        case("super_shards = 16", "super_shards = 0", "at least 1 super-shard");
        case("block_cache_mb = 64", "block_cache_mb = 0", "block-cache budget");
        // Churn knobs validate too.
        case("duration_s = 60.0", "duration_s = 0.0", "churn.duration_s");
        case("events_per_min = 6.0", "events_per_min = -1.0", "churn.events_per_min");
        case("offline_frac = 0.05", "offline_frac = 1.0", "churn.offline_frac");
        case("loss = 0.05", "loss = 1.5", "churn.loss");
        case("retries = 3", "retries = 0", "churn.retries");
    }

    #[test]
    fn empty_algo_and_cell_lists_are_named() {
        let spec = sample_spec();
        let text = spec.to_toml();
        // Strip every [[cell]] block: workload=query with no cells.
        let head: String = text.lines().take_while(|l| !l.starts_with("[[cell]]")).collect::<Vec<_>>().join("\n");
        let err = ExperimentSpec::from_toml(&head).unwrap_err();
        assert_eq!(err, SpecError::Missing { key: "cell".into() });
    }

    #[test]
    fn prop_random_specs_round_trip() {
        // A light property sweep with the vendored RNG: random shapes,
        // labels with TOML-hostile characters, optional fields on and
        // off. from_toml(to_toml(spec)) == spec must hold for all.
        let mut rng = rng_from(0xA11CE);
        let charset: Vec<char> = "ab\"\\\n#=[]{}'x — \t0.5".chars().collect();
        fn rand_label(rng: &mut impl rand::RngCore, charset: &[char]) -> String {
            let len = (rng.next_u32() % 12) as usize;
            (0..len)
                .map(|_| charset[(rng.next_u32() as usize) % charset.len()])
                .collect()
        }
        for round in 0..50u64 {
            let n_cells = 1 + (rng.gen_range(0..3usize));
            let cells: Vec<CellSpec> = (0..n_cells)
                .map(|i| {
                    let n_algos = 1 + rng.gen_range(0..3usize);
                    CellSpec {
                        label: format!("c{i}-{}", rand_label(&mut rng, &charset)),
                        world: ClusterWorldSpec {
                            clusters: 1 + rng.gen_range(0..5usize),
                            // ≥2 peers total: validation (correctly)
                            // rejects a world the lone target empties.
                            en_per_cluster: 2 + rng.gen_range(0..8usize),
                            peers_per_en: 1 + rng.gen_range(0..3usize),
                            delta: (rng.gen_range(0..100u32) as f64) / 100.0,
                            mean_hub_ms: (4.0 + 0.125, 6.0),
                            intra_en: Micros::from_us(rng.gen_range(1..500u64)),
                            hub_pool: 8,
                        },
                        n_targets: 1,
                        base_seed: rng.next_u64(),
                        queries: 1 + rng.gen_range(0..1000usize),
                        quick_queries: if rng.gen_range(0..2u32) == 0 {
                            Some(1 + rng.gen_range(0..50usize))
                        } else {
                            None
                        },
                        in_quick: rng.gen_range(0..2u32) == 0,
                        churn: if rng.gen_range(0..2u32) == 0 {
                            Some(ChurnConfig {
                                events_per_min: (rng.gen_range(0..600u32) as f64) / 10.0,
                                duration_s: (1 + rng.gen_range(0..300u32)) as f64,
                                drift_max_us: rng.gen_range(0..10_000u64),
                                offline_frac: (rng.gen_range(0..100u32) as f64) / 101.0,
                                loss: (rng.gen_range(0..100u32) as f64) / 101.0,
                                retries: 1 + rng.gen_range(0..5u32),
                            })
                        } else {
                            None
                        },
                        super_shards: if rng.gen_range(0..2u32) == 0 {
                            Some(1 + rng.gen_range(0..100usize))
                        } else {
                            None
                        },
                        block_cache_mb: if rng.gen_range(0..2u32) == 0 {
                            Some(1 + rng.gen_range(0..512usize))
                        } else {
                            None
                        },
                        algos: (0..n_algos)
                            .map(|j| AlgoSpec {
                                name: format!("algo-{j}"),
                                label: if rng.gen_range(0..2u32) == 0 {
                                    Some(rand_label(&mut rng, &charset))
                                } else {
                                    None
                                },
                                queries: None,
                                quick_queries: None,
                            })
                            .collect(),
                    }
                })
                .collect();
            let mut spec = ExperimentSpec::query(
                format!("prop-{round}"),
                rand_label(&mut rng, &charset),
                rand_label(&mut rng, &charset),
                if rng.gen_range(0..2u32) == 0 {
                    Backend::Dense
                } else {
                    Backend::Hierarchical
                },
                if rng.gen_range(0..2u32) == 0 {
                    SeedPlan::Single
                } else {
                    // Sweep(1) intentionally normalises to Single on
                    // load (`seeds = 1` ≡ `--seeds 1`), so the
                    // round-trip property holds for widths >= 2.
                    SeedPlan::Sweep(2 + rng.gen_range(0..4usize))
                },
                cells,
            );
            spec.base_seed = rng.next_u64();
            let text = spec.to_toml();
            let back = ExperimentSpec::from_toml(&text)
                .unwrap_or_else(|e| panic!("round {round}: {e}\n---\n{text}"));
            assert_eq!(back, spec, "round {round} diverged\n---\n{text}");
        }
    }

    #[test]
    fn seeds_one_means_single_like_the_cli_flag() {
        let text = sample_spec().to_toml().replace("seeds = 3", "seeds = 1");
        let spec = ExperimentSpec::from_toml(&text).expect("parses");
        assert_eq!(spec.seeds, SeedPlan::Single, "seeds = 1 ≡ --seeds 1");
        // And a serialised Sweep(1) normalises to Single on reload.
        let mut weird = sample_spec();
        weird.seeds = SeedPlan::Sweep(1);
        let back = ExperimentSpec::from_toml(&weird.to_toml()).expect("parses");
        assert_eq!(back.seeds, SeedPlan::Single);
    }

    #[test]
    fn huge_seeds_survive_via_string_encoding() {
        let mut spec = sample_spec();
        spec.base_seed = u64::MAX - 3;
        let Workload::QueryMatrix(cells) = &mut spec.workload else { unreachable!() };
        cells[0].base_seed = u64::MAX;
        let text = spec.to_toml();
        assert!(text.contains(&format!("\"{}\"", u64::MAX)), "{text}");
        let back = ExperimentSpec::from_toml(&text).expect("parses");
        assert_eq!(back, spec);
    }
}
