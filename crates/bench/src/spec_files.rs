//! `np-bench run`: load a figure's checked-in spec file and run it.
//!
//! Each `experiments/<fig>.toml` is its figure's only definition — a
//! hand-edited, serialised `ExperimentSpec` that `cargo test` holds to
//! canonical form. [`cmd_run`] loads a spec file ([`load_spec`], shared
//! with `np-bench serve`), resolves its study stage, renderer and
//! self-check through the figure catalogue and its algorithm names
//! through [`crate::full_registry`], applies the usual
//! `--quick/--seed/--threads/--seeds/--out/--world` overrides (plus
//! `--algos` to swap the algorithm list), and drives the standard
//! `Experiment` pipeline. Every malformed input — unknown flag,
//! unreadable file, TOML syntax, unknown key, unknown algorithm,
//! degenerate world — exits 2 with a named diagnostic, never a panic.
//!
//! A catalogue manifest (`[catalogue]` with a `specs` list, such as
//! `experiments/all_figures.toml`) runs every listed file in order, in
//! one process.

use crate::cli::{self, Args};
use crate::figures::{figure, study_stage, FigureKind};
use crate::registry::full_registry;
use np_core::experiment::{AlgoSpec, Experiment, ExperimentSpec, Workload};
use std::path::{Path, PathBuf};

/// The file name of a figure's spec.
pub fn spec_file_name(spec: &str) -> String {
    format!("{spec}.toml")
}

/// Shift a loaded spec's committed seeds onto a new base: every cell
/// keeps its offset from the file's `base_seed` (the `seed + x`
/// pattern all figures use), so `--seed N` moves the whole figure to
/// seed N, and rebasing back to the file's `base_seed` gives the file's
/// spec.
pub fn rebase_seeds(spec: &mut ExperimentSpec, new_seed: u64) {
    let old = spec.base_seed;
    if let Workload::QueryMatrix(cells) = &mut spec.workload {
        for cell in cells {
            cell.base_seed = new_seed.wrapping_add(cell.base_seed.wrapping_sub(old));
        }
    }
    spec.base_seed = new_seed;
}

/// Load a spec file the way `run` and `serve` both do: parse it,
/// rebase its seeds on an explicit `--seed` (or adopt the file's own
/// seed, which the header then quotes), and apply the shared overrides
/// ([`crate::specs::with_args`]).
pub fn load_spec(text: &str, path: &Path, args: &mut Args) -> Result<ExperimentSpec, String> {
    let mut spec = ExperimentSpec::from_toml_with(text, study_stage)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if args.seed_explicit {
        rebase_seeds(&mut spec, args.seed);
    } else {
        args.seed = spec.base_seed;
    }
    Ok(crate::specs::with_args(spec, args))
}

const RUN_USAGE: &str = "usage: np-bench run <spec.toml> [--quick] [--seed N] [--threads N] \
[--world dense|hierarchical] [--super-shards N] [--block-cache-mb N] [--seeds N] \
[--out table|json] [--algos a,b,c] [--max-rss-mb N]";

/// The run subcommand's parsed inputs: shared flags, the spec path and
/// the optional `--algos` override.
#[derive(Debug)]
pub struct RunInputs {
    pub args: Args,
    pub path: PathBuf,
    pub algos: Option<Vec<String>>,
}

/// Parse `np-bench run`'s argv (pure; errors are returned, not
/// printed). A flag outside the shared set and `--algos` is an error,
/// so a typo never runs a figure with the flag silently dropped.
pub fn parse_run_args(argv: &[String]) -> Result<RunInputs, String> {
    let mut args = Args::try_from_iter(argv.iter().cloned())?;
    let rest = std::mem::take(&mut args.rest);
    let mut path: Option<PathBuf> = None;
    let mut algos: Option<Vec<String>> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        if a == "--algos" {
            let v = it.next().ok_or("--algos requires a comma-separated list")?;
            let names: Vec<String> = v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if names.is_empty() {
                return Err("--algos requires at least one name".into());
            }
            algos = Some(names);
        } else if !a.starts_with("--") {
            // Exactly one spec file; a second positional is a mistake
            // (silently treating it as a flag would skip a spec the
            // user believes ran).
            if path.is_some() {
                return Err(format!(
                    "unexpected extra argument {a:?} — run takes one spec file \
                     (use a [catalogue] manifest to run several)"
                ));
            }
            path = Some(PathBuf::from(a));
        } else {
            return Err(format!("unknown flag {a:?}"));
        }
    }
    let path = path.ok_or("run requires a spec file path")?;
    Ok(RunInputs { args, path, algos })
}

/// `np-bench run <spec.toml> [flags]`.
pub fn cmd_run(argv: &[String]) -> ! {
    let inputs = match parse_run_args(argv) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{RUN_USAGE}");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&inputs.path) {
        Ok(t) => t,
        Err(e) => cli::exit_error(&format!("cannot read {}: {e}", inputs.path.display())),
    };
    // A catalogue manifest runs every listed spec in order.
    if let Ok(doc) = toml::parse(&text) {
        if doc.contains_key("catalogue") {
            run_catalogue(&doc, &inputs);
        }
    }
    match run_one(&text, &inputs.path, &inputs) {
        Ok(cell_failed) => std::process::exit(i32::from(cell_failed)),
        Err(e) => cli::exit_error(&e),
    }
}

/// Execute a catalogue manifest and exit.
fn run_catalogue(doc: &toml::Table, inputs: &RunInputs) -> ! {
    let specs: Vec<String> = doc
        .get("catalogue")
        .and_then(|c| c.as_table())
        .and_then(|c| c.get("specs"))
        .and_then(|s| s.as_array())
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if specs.is_empty() {
        cli::exit_error(&format!(
            "{}: `[catalogue]` needs a non-empty `specs` list",
            inputs.path.display()
        ));
    }
    let dir = inputs.path.parent().unwrap_or(Path::new("."));
    let mut failures: Vec<String> = Vec::new();
    for name in specs {
        // Member banners are chrome (off stdout under --out json).
        cli::chrome(
            &inputs.args,
            &format!("\n================ {name} ================\n"),
        );
        let path = dir.join(&name);
        // A broken member spec fails *that entry* (named correctly)
        // and the remaining specs still run — like all_figures.
        let outcome = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| run_one(&text, &path, inputs));
        match outcome {
            Ok(false) => {}
            Ok(true) => failures.push(name),
            Err(e) => {
                eprintln!("error: {e}");
                failures.push(name);
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("FAILED: {failures:?}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Load + run one spec file. A load/validation problem is `Err` (the
/// caller names the exit); a runtime cell failure or a failed figure
/// self-check returns `Ok(true)` (catalogue runs keep going).
fn run_one(text: &str, path: &Path, inputs: &RunInputs) -> Result<bool, String> {
    let mut args = inputs.args.clone();
    let mut spec = load_spec(text, path, &mut args)?;
    if let Some(names) = &inputs.algos {
        if let Workload::QueryMatrix(cells) = &mut spec.workload {
            for cell in cells {
                cell.algos = names.iter().map(AlgoSpec::new).collect();
            }
        }
    }
    // Figure-specific policy (e.g. ext_scale's CI-budget drop of dense
    // cells past the quadratic wall, and its self-check), resolved from
    // the catalogue; generic user-authored specs run whatever they
    // declare.
    let figure = figure(&spec.name);
    if let Some(clamp) = figure.and_then(|f| f.clamp) {
        let dropped = clamp(&mut spec);
        if !dropped.is_empty() {
            eprintln!(
                "skipping {dropped:?}: these cells do not fit the {} backend \
                 ({} figure policy); use --world hierarchical",
                spec.backend.name(),
                spec.name
            );
        }
    }
    if spec.cell_count() == 0 {
        return Err(
            "no cells left to run (every cell is paper-scale-only or was dropped); \
             try without --quick or with --world hierarchical"
                .into(),
        );
    }
    spec.validate().map_err(|e| format!("{}: {e}", path.display()))?;
    let registry = full_registry();
    // Resolve every algorithm name before any world is built: in a
    // catalogue run an unknown name must fail this entry and let the
    // remaining specs run.
    if let Workload::QueryMatrix(cells) = &spec.workload {
        for cell in cells {
            for algo in &cell.algos {
                registry.lookup(&algo.name).map_err(|e| {
                    format!("{}: cell {:?}: {e}", path.display(), cell.label)
                })?;
            }
        }
    }
    let render = match figure.map(|f| f.kind) {
        Some(FigureKind::QueryMatrix(render)) => render,
        _ => cli::study_rendered,
    };
    let experiment = Experiment::new(spec, &registry);
    let report = cli::run_experiment(&args, &experiment, render);
    if report
        .query_cells()
        .unwrap_or_default()
        .iter()
        .any(|c| c.error.is_some())
    {
        return Ok(true);
    }
    if let Some(check) = figure.and_then(|f| f.check) {
        if let Err(e) = check(experiment.spec(), &report, &args) {
            eprintln!("error: {} self-check failed: {e}", report.name);
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FIGURES;

    #[test]
    fn rebase_preserves_per_cell_offsets() {
        // `--seed N` shifts every cell by the same amount; rebasing
        // back to the file's own seed gives the file's spec.
        let offsets = |spec: &ExperimentSpec| match &spec.workload {
            Workload::QueryMatrix(cells) => cells
                .iter()
                .map(|c| c.base_seed.wrapping_sub(spec.base_seed))
                .collect(),
            Workload::Study(_) => Vec::new(),
        };
        for f in FIGURES {
            let file = crate::specs::tests::checked_in(f.spec);
            for seed in [1, 0xDEAD_BEEF] {
                let mut spec = crate::specs::tests::checked_in(f.spec);
                rebase_seeds(&mut spec, seed);
                assert_eq!(spec.base_seed, seed, "{}", f.spec);
                assert_eq!(
                    offsets(&spec),
                    offsets(&file),
                    "{} rebased to {seed:#x}",
                    f.spec
                );
                rebase_seeds(&mut spec, file.base_seed);
                assert_eq!(spec, file, "{} rebased to {seed:#x} and back", f.spec);
            }
        }
    }

    #[test]
    fn run_args_parse_path_and_algos_and_reject_any_other_flag() {
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let inputs = parse_run_args(&argv(&[
            "experiments/fig8.toml",
            "--quick",
            "--algos",
            "meridian, random",
        ]))
        .expect("parses");
        assert_eq!(inputs.path, PathBuf::from("experiments/fig8.toml"));
        assert!(inputs.args.quick);
        assert_eq!(
            inputs.algos.as_deref(),
            Some(&["meridian".to_string(), "random".to_string()][..])
        );
        assert!(inputs.args.rest.is_empty());
        // Errors: no path, dangling --algos, a second spec path, and
        // any other flag — a typo, the retired --shards, or the retired
        // study flags --show-tree and --chord.
        assert!(parse_run_args(&argv(&["--quick"])).is_err());
        assert!(parse_run_args(&argv(&["x.toml", "--algos"])).is_err());
        let err = parse_run_args(&argv(&["a.toml", "b.toml"])).unwrap_err();
        assert!(err.contains("one spec file"), "{err}");
        for flag in ["--qiuck", "--shards", "--show-tree", "--chord"] {
            let err = parse_run_args(&argv(&["a.toml", flag])).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag:?}"));
        }
    }
}
