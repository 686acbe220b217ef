//! Run every figure binary in sequence (quick or paper scale) — the
//! one-command regeneration entry point quoted in README's `EXPERIMENTS`
//! section.
//!
//! Usage: `cargo run --release -p np-bench --bin all_figures [-- --quick] [-- --threads N]`.
//!
//! The binary list is the shared figure catalogue
//! (`np_bench::FIGURES`), so a new spec binary registers once and is
//! regenerated (and smoked in CI) automatically. All flags (including
//! `--threads`/`--seed`/`--world`) are forwarded verbatim to every
//! figure binary, so one `--threads 8` parallelises the whole
//! regeneration and one `--world hierarchical --super-shards 1` runs
//! every cluster-world query figure on the exact compressed backend;
//! per-figure footers report each figure's wall-clock and measured
//! effective speedup.

use np_bench::{cli, Args, FIGURES};
use std::process::Command;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Validate the shared flags once up front: a malformed value exits
    // 2 with usage here instead of failing 13 child binaries in turn
    // (unknown extras stay allowed — they are forwarded verbatim).
    if let Err(e) = Args::try_from_iter(args.clone()) {
        cli::exit_usage(&e);
    }
    let wall = Instant::now(); // np-lint: allow(D2) — suite wall-clock telemetry only; never feeds PaperMetrics
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for figure in FIGURES {
        println!("\n================ {} ================\n", figure.bin);
        let status = match Command::new(dir.join(figure.bin)).args(&args).status() {
            Ok(status) => status,
            Err(e) => {
                // A missing/unspawnable sibling binary is an
                // environment error, not a figure failure: report it
                // plainly and exit 2, no backtrace.
                eprintln!(
                    "error: failed to spawn {}: {e} (expected next to {})",
                    figure.bin,
                    exe.display()
                );
                std::process::exit(2);
            }
        };
        if !status.success() {
            failures.push(figure.bin);
        }
    }
    if !failures.is_empty() {
        eprintln!("FAILED: {failures:?}");
        std::process::exit(1);
    }
    println!(
        "\nall figures regenerated in {:.1}s wall-clock",
        wall.elapsed().as_secs_f64()
    );
}
