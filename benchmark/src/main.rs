//! `np-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about the given time, checks its outputs,
//! writes a result file, and prints the result as one JSON object on
//! the last line of standard output. `--workload all` runs every
//! workload one after another, each in a child process of its own (so
//! each `peak_rss_mib` is that workload's alone). Exit codes: 0 when
//! every output was correct, 1 when the correctness gate failed, 2 on
//! bad flags.

use np_benchmark::workloads::{Size, Workload, THREADS};
use np_benchmark::{report, run, Opts};
use std::process::Command;

const USAGE: &str = "usage: np-benchmark --workload <paper_batch|scale_hier|serve_open_loop|all> \
--seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed must be a non-negative integer, got {value:?}")
                    })?)
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds must be a non-negative number, got {value:?}")
                    })?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size: Size::Full,
    })
}

/// `--workload all`: rerun this executable once per workload, waiting
/// for each, and exit with the worst code.
fn run_all(args: &[String], name_at: usize) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate the benchmark executable: {e}");
        std::process::exit(1)
    });
    let mut worst = 0;
    for w in Workload::ALL {
        let mut child = args.to_vec();
        child[name_at] = w.name().to_string();
        let code = match Command::new(&exe).args(&child).status() {
            Ok(status) => status.code().unwrap_or(1),
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", w.name());
                1
            }
        };
        worst = worst.max(code);
    }
    std::process::exit(worst)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--workload") {
        if args.get(i + 1).map(String::as_str) == Some("all") {
            run_all(&args, i + 1);
        }
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The dense store sizes its fill from the ambient thread count; pin
    // it to the benchmark's own so every layer runs on the same count.
    std::env::set_var(np_util::parallel::THREADS_ENV, THREADS.to_string());
    let registry = np_bench::full_registry();
    let outcome = run(&opts, &registry);
    let meta = report::Meta::collect();

    print!("{}", report::summary(&opts, &outcome, &meta));
    for f in &outcome.failures {
        eprintln!("correctness gate: {f}");
    }
    match report::write_result_file(&opts, &outcome, &meta) {
        Ok(path) => eprintln!("result file: {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write the result file: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", report::result_line(&outcome));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
