//! `np-bench` — the harness utility binary.
//!
//! * `np-bench list` — print the figure catalogue and the full
//!   algorithm registry (names + descriptions): what experiments exist
//!   and which algorithm names an `ExperimentSpec` may reference.
//! * `np-bench run <spec.toml> [flags]` — load a serialised
//!   `ExperimentSpec` (see `experiments/`) and drive it through the
//!   standard pipeline with the usual
//!   `--quick/--seed/--threads/--seeds/--out/--world` overrides plus
//!   `--algos a,b,c`, then apply the figure's self-check; a
//!   `[catalogue]` manifest (`experiments/all_figures.toml`) runs every
//!   listed spec in order. This is how every figure runs. New scenario
//!   = a config file, not a recompile.
//! * `np-bench serve <spec.toml> [flags]` — stand a query-matrix spec
//!   up as the `np-serve` actor pipeline and offer seeded Poisson load
//!   (`--rate`/`--duration`), reporting throughput and
//!   queued/service/total latency quantiles; under the default
//!   lossless admission every row is cross-checked bit-identical
//!   against the batch runner.
//! * `np-bench specs [--check] [--dir DIR]` — regenerate the
//!   `experiments/` spec files from the figure catalogue; `--check`
//!   diffs instead (CI's anti-drift gate).
//! * `np-bench lint [tags] [--check]` — the workspace determinism &
//!   concurrency static-analysis pass (same engine as the standalone
//!   `np-lint` binary): map-iteration on result paths, ambient clocks,
//!   RNG stream-tag collisions, undocumented `unsafe`, and BlockCache
//!   lock order. `--check` exits nonzero on any unsuppressed finding;
//!   `tags` dumps the stream-tag registry.
//! * `np-bench speedup [--min X] [--json PATH]` — read
//!   `BENCH_parallel.json`, report every `_serial`/`_par` engine pair's
//!   measured speedup (plus notable single benches like
//!   `meridian_shard_fill`), and — with `--min` — fail unless the best
//!   pair reaches the threshold. CI runs `speedup --min 2.0` after the
//!   microbenches, turning the ROADMAP's "verify ≥2x on 4 cores" item
//!   into an enforced gate.
//!
//! CI runs `list` as a registry smoke test: it instantiates every
//! factory table and fails on any name collision or missing entry.

use np_bench::bench_report::{engine_speedups, parse_bench_json};
use np_bench::{cli, full_registry, serve_cmd, spec_files, FIGURES};
use np_util::table::Table;

fn list() {
    println!("figures (np-bench run <spec file>):\n");
    let mut figs = Table::new(&["spec file", "kind", "backends", "title"]);
    for f in FIGURES {
        figs.row(&[
            format!("experiments/{}", spec_files::spec_file_name(f.spec)),
            f.kind.name().to_string(),
            f.backends.to_string(),
            f.title.to_string(),
        ]);
    }
    println!("{}", figs.render());
    let registry = full_registry();
    println!(
        "registered algorithms ({} — ExperimentSpec cells and spec files reference these names):\n",
        registry.len()
    );
    let mut algos = Table::new(&["name", "description"]);
    for (name, desc) in registry.catalogue() {
        algos.row(&[name.to_string(), desc]);
    }
    println!("{}", algos.render());
    println!("common flags: {}", cli::USAGE.trim_start_matches("usage: "));
    println!(
        "spec files: np-bench run experiments/<name>.toml, or experiments/all_figures.toml for \
         every figure  (np-bench specs regenerates them)"
    );
    println!(
        "lint: np-bench lint [tags] [--check]  (determinism & concurrency static analysis — \
         see README \"Determinism contract\")"
    );
}

fn speedup(args: &[String]) {
    let mut min: Option<f64> = None;
    let mut path = "BENCH_parallel.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--min" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => min = Some(v),
                None => {
                    eprintln!("error: --min requires a number");
                    eprintln!("usage: np-bench speedup [--min X] [--json PATH]");
                    std::process::exit(2);
                }
            },
            "--json" => match it.next() {
                Some(v) => path = v.clone(),
                None => {
                    eprintln!("error: --json requires a path");
                    eprintln!("usage: np-bench speedup [--min X] [--json PATH]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown speedup flag {other:?}");
                eprintln!("usage: np-bench speedup [--min X] [--json PATH]");
                std::process::exit(2);
            }
        }
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e} (run `cargo bench -p np-bench` first)");
            std::process::exit(1);
        }
    };
    let entries = match parse_bench_json(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
    };
    let pairs = engine_speedups(&entries);
    if pairs.is_empty() {
        eprintln!("error: no _serial/_par benchmark pairs in {path}");
        std::process::exit(1);
    }
    let mut table = Table::new(&["engine pair", "serial median", "parallel median", "speedup"]);
    let ms = |ns: f64| format!("{:.2} ms", ns / 1e6);
    for p in &pairs {
        table.row(&[
            p.name.clone(),
            ms(p.serial_median_ns),
            ms(p.par_median_ns),
            format!("{:.2}x", p.speedup()),
        ]);
    }
    println!("{}", table.render());
    if let Some(fill) = entries.iter().find(|e| e.name == "meridian_shard_fill") {
        println!(
            "meridian_shard_fill (10k-peer shard-local overlay fill): median {:.1} ms",
            fill.median_ns / 1e6
        );
    }
    let best = pairs
        .iter()
        .map(|p| p.speedup())
        .fold(f64::NEG_INFINITY, f64::max);
    println!("best engine speedup: {best:.2}x over {} pair(s)", pairs.len());
    if let Some(min) = min {
        if best < min {
            eprintln!(
                "error: best engine speedup {best:.2}x is below the required {min:.2}x \
                 (is this a single-core runner?)"
            );
            std::process::exit(1);
        }
        println!("speedup gate passed: {best:.2}x >= {min:.2}x");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") | None => list(),
        Some("speedup") => speedup(&args[1..]),
        Some("run") => spec_files::cmd_run(&args[1..]),
        Some("serve") => serve_cmd::cmd_serve(&args[1..]),
        Some("specs") => spec_files::cmd_specs(&args[1..]),
        Some("lint") => std::process::exit(np_lint::run_cli(&args[1..])),
        Some(other) => {
            eprintln!(
                "unknown subcommand {other:?}; try: np-bench list | np-bench run <spec.toml> | \
                 np-bench serve <spec.toml> | np-bench specs | np-bench speedup | np-bench lint"
            );
            std::process::exit(2);
        }
    }
}
