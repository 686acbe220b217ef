//! The `experiments/` spec-file catalogue and the `np-bench run` /
//! `np-bench specs` subcommands.
//!
//! * [`cmd_specs`] — (re)generate one `experiments/<name>.toml` per
//!   [`crate::FIGURES`] entry (serialising the figure's dual-budget
//!   `ExperimentSpec` at the default seed) plus the
//!   `all_figures.toml` catalogue manifest; `--check` diffs instead of
//!   writing, which is CI's anti-drift gate — a spec file cannot
//!   silently disagree with the builder that defines the figure.
//! * [`cmd_run`] — load a spec file ([`load_spec`], shared with
//!   `np-bench serve`), resolve its study stage, renderer and
//!   self-check through the figure catalogue and its algorithm names
//!   through [`crate::full_registry`], apply the usual
//!   `--quick/--seed/--threads/--seeds/--out/--world` overrides (plus
//!   `--algos` to swap the algorithm list), and drive the standard
//!   `Experiment` pipeline. Every malformed input — unknown flag,
//!   unreadable file, TOML syntax, unknown key, unknown algorithm,
//!   degenerate world — exits 2 with a named diagnostic, never a panic.
//!
//! A catalogue manifest (`[catalogue]` with a `specs` list, such as
//! `experiments/all_figures.toml`) runs every listed file in order, in
//! one process.

use crate::cli::{self, Args, Rendered};
use crate::figures::{figure, study_stage, FIGURES};
use crate::registry::full_registry;
use np_core::experiment::{AlgoSpec, Experiment, ExperimentSpec, Workload};
use np_util::rng::DEFAULT_SEED;
use std::path::{Path, PathBuf};

/// Header prepended to every generated spec file.
pub const SPEC_HEADER: &str = "\
# Generated by `np-bench specs` from the figure catalogue (np_bench::FIGURES).\n\
# Do not edit by hand: CI regenerates and fails on any diff.\n\
#   regenerate: cargo run --release -p np-bench --bin np-bench -- specs\n\
#   run:        cargo run --release -p np-bench --bin np-bench -- run experiments/<name>.toml [flags]\n";

/// The file name of a figure's spec.
pub fn spec_file_name(spec: &str) -> String {
    format!("{spec}.toml")
}

/// The serialised content of one figure's spec file.
pub fn spec_file_content(f: &crate::FigureInfo) -> String {
    format!("{SPEC_HEADER}\n{}", (f.build)(DEFAULT_SEED).to_toml())
}

/// The `all_figures.toml` catalogue manifest: every spec in
/// regeneration order.
pub fn catalogue_content() -> String {
    let mut t = toml::Table::new();
    let mut cat = toml::Table::new();
    cat.insert("name", toml::Value::Str("all_figures".into()));
    cat.insert(
        "title",
        toml::Value::Str("every figure/extension spec, in regeneration order".into()),
    );
    cat.insert(
        "specs",
        toml::Value::Array(
            FIGURES
                .iter()
                .map(|f| toml::Value::Str(spec_file_name(f.spec)))
                .collect(),
        ),
    );
    t.insert("catalogue", toml::Value::Table(cat));
    format!("{SPEC_HEADER}\n{}", toml::emit(&t))
}

/// Every `(file name, content)` pair the catalogue generates.
pub fn all_spec_files() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = FIGURES
        .iter()
        .map(|f| (spec_file_name(f.spec), spec_file_content(f)))
        .collect();
    files.push(("all_figures.toml".into(), catalogue_content()));
    files
}

/// Shift a loaded spec's committed seeds onto a new base: every cell
/// keeps its offset from the file's `base_seed` (the `seed + x`
/// pattern all figures use), so `--seed N` on a spec file yields the
/// spec the figure's builder makes at seed N.
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
[--out table|json] [--csv] [--algos a,b,c] [--max-rss-mb N] [--show-tree] [--chord]";

/// The run subcommand's parsed inputs: shared flags (with the study
/// flags left in [`Args::rest`]), the spec path and the optional
/// `--algos` override.
#[derive(Debug)]
pub struct RunInputs {
    pub args: Args,
    pub path: PathBuf,
    pub algos: Option<Vec<String>>,
}

/// Parse `np-bench run`'s argv (pure; errors are returned, not
/// printed). A flag no catalogue entry reads is an error, so a typo
/// never runs a figure with the flag silently dropped.
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
        } else if FIGURES.iter().any(|f| f.flags.contains(&a.as_str())) {
            args.rest.push(a);
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
    let renderer = figure.and_then(|f| f.render);
    let experiment = Experiment::new(spec, &registry);
    let report = cli::run_experiment(&args, &experiment, move |report, args| match renderer {
        Some(render) => render(report, args),
        None => match report.study_output() {
            Some(_) => cli::study_rendered(report, args),
            None => Rendered::plain(np_core::experiment::sink::render_table(report)),
        },
    });
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

/// `np-bench specs [--check] [--dir DIR]`.
pub fn cmd_specs(argv: &[String]) -> ! {
    let mut check = false;
    let mut dir = PathBuf::from("experiments");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--dir" => match it.next() {
                Some(d) => dir = PathBuf::from(d),
                None => cli::exit_error("--dir requires a path"),
            },
            other => cli::exit_error(&format!(
                "unknown specs flag {other:?}; usage: np-bench specs [--check] [--dir DIR]"
            )),
        }
    }
    let files = all_spec_files();
    if check {
        let mut drifted = Vec::new();
        for (name, want) in &files {
            let path = dir.join(name);
            match std::fs::read_to_string(&path) {
                Ok(have) if have == *want => {}
                Ok(_) => drifted.push(format!("{name} (content differs)")),
                Err(e) => drifted.push(format!("{name} ({e})")),
            }
        }
        // Also re-parse what is actually on disk: a file that matches
        // byte-for-byte necessarily parses, but this keeps the gate
        // meaningful if the comparison set ever narrows.
        for f in FIGURES {
            let path = dir.join(spec_file_name(f.spec));
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Err(e) = ExperimentSpec::from_toml_with(&text, study_stage) {
                    drifted.push(format!("{} (does not load: {e})", spec_file_name(f.spec)));
                }
            }
        }
        if drifted.is_empty() {
            println!(
                "{} spec files in {} match the figure catalogue",
                files.len(),
                dir.display()
            );
            std::process::exit(0);
        }
        eprintln!(
            "error: {} spec file(s) drifted from np_bench::FIGURES — regenerate with `np-bench specs`:",
            drifted.len()
        );
        for d in drifted {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        cli::exit_error(&format!("cannot create {}: {e}", dir.display()));
    }
    for (name, content) in &files {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            cli::exit_error(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_files_cover_the_catalogue_plus_manifest() {
        let files = all_spec_files();
        assert_eq!(files.len(), FIGURES.len() + 1, "16 figures + all_figures manifest = 17");
        for (name, content) in &files {
            assert!(name.ends_with(".toml"));
            assert!(content.starts_with(SPEC_HEADER), "{name} missing the header");
        }
        let (_, manifest) = files.last().expect("manifest last");
        let doc = toml::parse(manifest).expect("manifest parses");
        let listed = doc
            .get("catalogue")
            .and_then(|c| c.as_table())
            .and_then(|c| c.get("specs"))
            .and_then(|s| s.as_array())
            .expect("specs list");
        assert_eq!(listed.len(), FIGURES.len());
    }

    #[test]
    fn every_generated_spec_loads_and_validates() {
        for f in FIGURES {
            let content = spec_file_content(f);
            let spec = ExperimentSpec::from_toml_with(&content, study_stage)
                .unwrap_or_else(|e| panic!("{}: {e}", f.spec));
            assert_eq!(spec.name, f.spec);
            assert_eq!(spec.base_seed, DEFAULT_SEED);
        }
    }

    #[test]
    fn rebase_preserves_per_cell_offsets() {
        // Loading a checked-in file and rebasing it must equal the
        // figure's builder at the new seed — what `--seed N` means.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
        for f in FIGURES {
            let text = std::fs::read_to_string(dir.join(spec_file_name(f.spec)))
                .unwrap_or_else(|e| panic!("{}: {e}", f.spec));
            for seed in [1, 0xDEAD_BEEF] {
                let mut spec = ExperimentSpec::from_toml_with(&text, study_stage)
                    .unwrap_or_else(|e| panic!("{}: {e}", f.spec));
                rebase_seeds(&mut spec, seed);
                assert_eq!(spec, (f.build)(seed), "{} rebased to {seed:#x}", f.spec);
            }
        }
        // Identity rebase is a no-op.
        let fig8 = figure("fig8").expect("fig8 exists");
        let mut spec = (fig8.build)(DEFAULT_SEED);
        rebase_seeds(&mut spec, DEFAULT_SEED);
        assert_eq!(spec, (fig8.build)(DEFAULT_SEED));
    }

    #[test]
    fn run_args_parse_path_algos_and_passthrough() {
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let inputs = parse_run_args(&argv(&[
            "experiments/fig8.toml",
            "--quick",
            "--algos",
            "meridian, random",
            "--show-tree",
        ]))
        .expect("parses");
        assert_eq!(inputs.path, PathBuf::from("experiments/fig8.toml"));
        assert!(inputs.args.quick);
        assert_eq!(
            inputs.algos.as_deref(),
            Some(&["meridian".to_string(), "random".to_string()][..])
        );
        assert_eq!(inputs.args.rest, vec!["--show-tree".to_string()]);
        // Errors: no path, dangling --algos, a second spec path, and
        // any flag no figure reads — a typo or the retired --shards.
        assert!(parse_run_args(&argv(&["--quick"])).is_err());
        assert!(parse_run_args(&argv(&["x.toml", "--algos"])).is_err());
        let err = parse_run_args(&argv(&["a.toml", "b.toml"])).unwrap_err();
        assert!(err.contains("one spec file"), "{err}");
        let err = parse_run_args(&argv(&["a.toml", "--qiuck"])).unwrap_err();
        assert_eq!(err, "unknown flag \"--qiuck\"");
        let err = parse_run_args(&argv(&["a.toml", "--shards", "8"])).unwrap_err();
        assert_eq!(err, "unknown flag \"--shards\"");
    }
}
