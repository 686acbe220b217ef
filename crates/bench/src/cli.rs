//! Shared CLI parsing and the figure driver.
//!
//! `np-bench run` and `np-bench serve` share one flag set, parsed here
//! once:
//!
//! * `--quick` — scaled-down smoke run (CI-sized);
//! * `--seed N` — base seed (default [`DEFAULT_SEED`]);
//! * `--threads N` — worker threads; precedence `--threads` >
//!   `$NP_THREADS` > all cores (results identical at any value);
//! * `--world dense|hierarchical` — latency backend for cluster-world
//!   experiments (measurement-pipeline figures accept and note it); an
//!   unknown name prints the backend catalogue plus a nearest-name hint
//!   and exits 2;
//! * `--super-shards N` — super-shard (shard-group) count for
//!   hierarchical worlds (default: 1 for small worlds, √S above);
//! * `--block-cache-mb N` — resident block-cache budget for
//!   hierarchical worlds (default 256 MiB);
//! * `--seeds N` — sweep width override (N runs per cell instead of
//!   the figure's default seed plan);
//! * `--out table|json` — human tables (default) or JSON lines;
//! * `--csv` — additionally emit the table as CSV (table mode);
//! * `--max-rss-mb N` — fail if peak RSS exceeds the budget.
//!
//! [`run_experiment`] is the one batch driver: it prints the header,
//! executes an [`Experiment`], renders via the figure's renderer (or
//! the JSON sink), and prints the wall-clock / effective-parallelism
//! footer.

use np_core::experiment::{sink, Backend, Experiment, ExperimentReport, SeedPlan};
use np_util::parallel::{busy_time, resolve_threads};
use np_util::rng::DEFAULT_SEED;
use std::time::{Duration, Instant};

/// Output format selection (`--out`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutFormat {
    /// Aligned human tables and ASCII charts.
    #[default]
    Table,
    /// One JSON object per (cell, algorithm) row.
    Json,
}

/// Parsed common CLI arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub quick: bool,
    pub seed: u64,
    /// Was `--seed` given explicitly? (`np-bench run` and `serve` only
    /// rebase a spec file's committed seeds on an explicit override.)
    pub seed_explicit: bool,
    pub csv: bool,
    /// Explicit `--threads N`, if given. Use [`Args::threads`] for the
    /// resolved count.
    pub threads: Option<usize>,
    /// `--world dense|hierarchical` — latency backend, if given (the
    /// spec's own backend otherwise).
    pub world: Option<Backend>,
    /// `--super-shards N` — super-shard count for hierarchical worlds
    /// (`None` = runner default: 1 up to 128 shards, √S above).
    pub super_shards: Option<usize>,
    /// `--block-cache-mb N` — hierarchical block-cache budget in MiB
    /// (`None` = runner default,
    /// [`np_core::experiment::DEFAULT_BLOCK_CACHE_MB`]).
    pub block_cache_mb: Option<usize>,
    /// `--seeds N` — runs per cell, overriding the figure's default
    /// seed plan.
    pub seeds: Option<usize>,
    /// `--out table|json`.
    pub out: OutFormat,
    /// `--max-rss-mb N` — fail the run if peak RSS exceeds this (CI
    /// memory regression guard; needs `/proc`, i.e. Linux).
    pub max_rss_mb: Option<u64>,
    /// Leftover positional/unknown flags for the subcommand to handle.
    pub rest: Vec<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            quick: false,
            seed: DEFAULT_SEED,
            seed_explicit: false,
            csv: false,
            threads: None,
            world: None,
            super_shards: None,
            block_cache_mb: None,
            seeds: None,
            out: OutFormat::Table,
            max_rss_mb: None,
            rest: Vec::new(),
        }
    }
}

/// The shared flag synopsis (`np-bench list` prints it).
pub const USAGE: &str = "usage: [--quick] [--seed N] [--threads N] \
[--world dense|hierarchical] [--super-shards N] [--block-cache-mb N] \
[--seeds N] [--out table|json] [--csv] [--max-rss-mb N]";

impl Args {
    /// Parse from an explicit iterator; malformed values become `Err`
    /// with a human-readable message naming the flag (the subcommands
    /// print it with their usage line and exit 2 — asserted end to end
    /// by `crates/bench/tests/cli_errors.rs`).
    pub fn try_from_iter(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        fn value(
            it: &mut impl Iterator<Item = String>,
            flag: &str,
        ) -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        }
        fn positive(v: &str, flag: &str) -> Result<usize, String> {
            let n: usize = v
                .parse()
                .map_err(|_| format!("{flag} must be a positive integer"))?;
            if n < 1 {
                return Err(format!("{flag} must be at least 1"));
            }
            Ok(n)
        }
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--csv" => out.csv = true,
                "--seed" => {
                    let v = value(&mut it, "--seed")?;
                    out.seed = v.parse().map_err(|_| "--seed must be a u64".to_string())?;
                    out.seed_explicit = true;
                }
                "--threads" => {
                    let v = value(&mut it, "--threads")?;
                    out.threads = Some(positive(&v, "--threads")?);
                }
                "--seeds" => {
                    let v = value(&mut it, "--seeds")?;
                    out.seeds = Some(positive(&v, "--seeds")?);
                }
                "--world" => {
                    let v = value(&mut it, "--world")?;
                    // On a miss, Backend::parse renders the full
                    // catalogue plus a nearest-name hint (the same
                    // diagnostic shape as an unknown algorithm).
                    out.world =
                        Some(Backend::parse(&v).map_err(|e| format!("--world: {e}"))?);
                }
                "--out" => {
                    let v = value(&mut it, "--out")?;
                    out.out = match v.as_str() {
                        "table" => OutFormat::Table,
                        "json" => OutFormat::Json,
                        other => {
                            return Err(format!("--out must be 'table' or 'json', got {other:?}"))
                        }
                    };
                }
                "--super-shards" => {
                    let v = value(&mut it, "--super-shards")?;
                    out.super_shards = Some(positive(&v, "--super-shards")?);
                }
                "--block-cache-mb" => {
                    let v = value(&mut it, "--block-cache-mb")?;
                    out.block_cache_mb = Some(positive(&v, "--block-cache-mb")?);
                }
                "--max-rss-mb" => {
                    let v = value(&mut it, "--max-rss-mb")?;
                    out.max_rss_mb =
                        Some(v.parse().map_err(|_| "--max-rss-mb must be a u64".to_string())?);
                }
                _ => out.rest.push(a),
            }
        }
        Ok(out)
    }

    /// The worker-thread count: `--threads` > `$NP_THREADS` > all cores.
    pub fn threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// The backend: `--world` wins over the figure's default.
    pub fn backend(&self, default: Backend) -> Backend {
        self.world.unwrap_or(default)
    }

    /// The seed plan: `--seeds N` wins over the figure's default plan.
    /// `--seeds 1` means "exactly one run at the cell's base seed"
    /// ([`SeedPlan::Single`] — the same numbers a single-run figure
    /// produces by default); `N ≥ 2` is an N-run sweep whose first
    /// three seeds coincide with the paper's historical three-run
    /// sweep.
    pub fn seed_plan(&self, default: SeedPlan) -> SeedPlan {
        match self.seeds {
            Some(1) => SeedPlan::Single,
            Some(n) => SeedPlan::Sweep(n),
            None => default,
        }
    }
}

/// Print a non-flag input error (bad spec file, unknown algorithm) to
/// stderr and exit 2 — a diagnostic, never a panic backtrace. The flag
/// synopsis is omitted: the problem is the input, not the flags.
pub fn exit_error(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(2);
}

/// Print a human-facing chrome line: stdout normally, stderr under
/// `--out json` (whose stdout must stay pure JSON lines). The one
/// routing rule for headers, footers, banners and check marks.
pub fn chrome(args: &Args, s: &str) {
    if args.out == OutFormat::Json {
        eprintln!("{s}");
    } else {
        println!("{s}");
    }
}

/// Print the backend chrome line for `backend` (see [`chrome`]); the
/// dense backend, every figure's historical default, prints none. The
/// one backend note behind the figure driver and both serve front
/// ends.
pub fn backend_note(args: &Args, backend: Backend) {
    if backend == Backend::Hierarchical {
        chrome(
            args,
            "backend: hierarchical (two-level hub summary, budget-bounded block cache)\n",
        );
    }
}

/// Peak resident-set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`. `None` where `/proc` is unavailable (non-Linux)
/// — callers treat that as "cannot check", not as a failure.
pub fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// Enforce `--max-rss-mb`: print the measured peak and exit non-zero
/// when the budget is exceeded. No-op when the flag wasn't given; a
/// warning when the platform cannot report RSS. The informational
/// peak line goes to stderr under `--out json` so stdout stays pure
/// JSON lines.
pub fn enforce_rss_budget(args: &Args) {
    let Some(budget) = args.max_rss_mb else { return };
    match peak_rss_mb() {
        Some(peak) => {
            let line = format!("peak RSS {peak} MiB (budget {budget} MiB)");
            if args.out == OutFormat::Json {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
            if peak > budget {
                eprintln!("error: peak RSS {peak} MiB exceeds --max-rss-mb {budget}");
                std::process::exit(1);
            }
        }
        None => eprintln!("warning: --max-rss-mb given but /proc/self/status is unavailable"),
    }
}

/// The standard experiment header block (trailing blank line included).
pub fn header_block(figure: &str, paper_shape: &str, args: &Args) -> String {
    format!(
        "=== {figure} ===\npaper shape: {paper_shape}\nmode: {}, base seed: {:#x}, threads: {}\n",
        if args.quick { "quick" } else { "paper-scale" },
        args.seed,
        args.threads(),
    )
}

/// Format a `RunBand` as `median [min, max]`.
pub fn band(b: np_util::stats::RunBand) -> String {
    format!("{:.3} [{:.3}, {:.3}]", b.median, b.min, b.max)
}

/// Wall-clock + effective-parallelism accounting for a figure run.
///
/// Start one right after the header; [`Report::footer_line`] reports
/// elapsed wall-clock and the measured *effective parallelism* — the
/// ratio of busy time accumulated inside the parallel engine to
/// wall-clock time. Busy time is workers' in-loop wall time, so when threads do
/// not exceed free cores the ratio is the speedup over a 1-thread
/// run; on an oversubscribed machine it reads as the concurrency
/// level instead (descheduled workers still accumulate busy time).
pub struct Report {
    wall_start: Instant,
    busy_start: Duration,
    threads: usize,
}

impl Report {
    /// Begin timing a figure run.
    pub fn start(args: &Args) -> Report {
        Report {
            wall_start: Instant::now(), // np-lint: allow(D2) — figure-run wall-clock telemetry only; never feeds PaperMetrics
            busy_start: busy_time(),
            threads: args.threads(),
        }
    }

    /// Elapsed wall-clock since [`Report::start`].
    pub fn elapsed(&self) -> Duration {
        self.wall_start.elapsed()
    }

    /// The footer line: `wall-clock 12.3s · parallel busy 44.1s ·
    /// effective parallelism 3.6x on 4 threads`.
    pub fn footer_line(&self) -> String {
        let wall = self.elapsed();
        let busy = busy_time().saturating_sub(self.busy_start);
        let threads = match self.threads {
            1 => "1 thread".to_string(),
            n => format!("{n} threads"),
        };
        if busy.is_zero() {
            // Measurement-pipeline figures with no parallel regions.
            return format!(
                "wall-clock {:.2}s on {threads} (serial pipeline)",
                wall.as_secs_f64()
            );
        }
        let speedup = if wall.as_secs_f64() > 0.0 {
            busy.as_secs_f64() / wall.as_secs_f64()
        } else {
            1.0
        };
        format!(
            "wall-clock {:.2}s · parallel busy {:.2}s · effective parallelism {:.2}x on {threads}",
            wall.as_secs_f64(),
            busy.as_secs_f64(),
            speedup,
        )
    }
}

/// What a figure's renderer returns: the human body (tables + charts)
/// and, optionally, a CSV payload for `--csv`.
pub struct Rendered {
    pub body: String,
    pub csv: Option<String>,
}

impl Rendered {
    /// A body with no CSV attachment.
    pub fn plain(body: impl Into<String>) -> Rendered {
        Rendered {
            body: body.into(),
            csv: None,
        }
    }
}

/// The standard study renderer: the stage's human text as the body,
/// every study table's CSV as the `--csv` payload. Handed a
/// query-matrix report by mistake, it degrades to the generic table
/// sink instead of aborting the run.
pub fn study_rendered(report: &ExperimentReport, _args: &Args) -> Rendered {
    let Some(study) = report.study_output() else {
        return Rendered::plain(sink::render_table(report));
    };
    let csv = if study.tables.is_empty() {
        None
    } else {
        Some(
            study
                .tables
                .iter()
                .map(|(_, t)| t.to_csv())
                .collect::<Vec<_>>()
                .join("\n"),
        )
    };
    Rendered {
        body: study.text.clone(),
        csv,
    }
}

/// The batch driver behind `np-bench run`: header → pipeline →
/// rendered output (table mode uses `render`; `--out json` uses the
/// generic JSON sink) → footer → RSS budget. The caller resolves
/// every algorithm name first, and gets the report back for the
/// figure's self-check.
pub fn run_experiment(
    args: &Args,
    experiment: &Experiment,
    render: impl FnOnce(&ExperimentReport, &Args) -> Rendered,
) -> ExperimentReport {
    // Under --out json the human chrome (header, backend note, timing
    // footer) moves to stderr, keeping stdout pure machine-diffable
    // JSON lines — see [`chrome`].
    let spec = experiment.spec();
    chrome(args, &header_block(&spec.title, &spec.paper_shape, args));
    backend_note(args, spec.backend);
    let timer = Report::start(args);
    let report = experiment.run_threads(args.threads());
    match args.out {
        OutFormat::Table => {
            let rendered = render(&report, args);
            println!("{}", rendered.body);
            if args.csv {
                if let Some(csv) = rendered.csv {
                    println!("{csv}");
                }
            }
        }
        OutFormat::Json => {
            print!("{}", sink::render_json_lines(&report));
        }
    }
    chrome(args, "");
    chrome(args, &timer.footer_line());
    enforce_rss_budget(args);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_util::parallel::resolve_threads_from;

    fn parse(args: &[&str]) -> Args {
        Args::try_from_iter(args.iter().map(|s| s.to_string())).expect("well-formed flags")
    }

    #[test]
    fn parse_flags() {
        let a = parse(&["--quick", "--seed", "42", "--csv", "--threads", "3", "extra"]);
        assert!(a.quick && a.csv);
        assert_eq!(a.seed, 42);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.threads(), 3);
        assert_eq!(a.rest, vec!["extra".to_string()]);
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(!a.quick && !a.csv);
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(a.threads, None);
        assert!(a.threads() >= 1);
        assert_eq!(a.seeds, None);
        assert_eq!(a.out, OutFormat::Table);
        assert!(a.rest.is_empty());
    }

    #[test]
    fn world_and_shards_flags() {
        let a = parse(&["--world", "dense", "--max-rss-mb", "1024"]);
        assert_eq!(a.world, Some(Backend::Dense));
        assert_eq!(a.max_rss_mb, Some(1024));
        let h = parse(&[
            "--world", "hierarchical", "--super-shards", "50", "--block-cache-mb", "512",
        ]);
        assert_eq!(h.world, Some(Backend::Hierarchical));
        assert_eq!(h.super_shards, Some(50));
        assert_eq!(h.block_cache_mb, Some(512));
        let d = parse(&[]);
        assert_eq!(d.world, None);
        assert_eq!(d.super_shards, None);
        assert_eq!(d.block_cache_mb, None);
        assert_eq!(d.max_rss_mb, None);
    }

    #[test]
    fn seeds_and_out_flags() {
        let a = parse(&["--seeds", "5", "--out", "json"]);
        assert_eq!(a.seeds, Some(5));
        assert_eq!(a.out, OutFormat::Json);
        assert_eq!(a.seed_plan(SeedPlan::THREE_RUNS), SeedPlan::Sweep(5));
        let d = parse(&["--out", "table"]);
        assert_eq!(d.out, OutFormat::Table);
        assert_eq!(d.seed_plan(SeedPlan::Single), SeedPlan::Single);
    }

    #[test]
    fn backend_override() {
        assert_eq!(parse(&[]).backend(Backend::Dense), Backend::Dense);
        assert_eq!(
            parse(&["--world", "hierarchical"]).backend(Backend::Dense),
            Backend::Hierarchical
        );
        assert_eq!(
            parse(&["--world", "dense"]).backend(Backend::Hierarchical),
            Backend::Dense
        );
    }

    #[test]
    fn threads_flag_beats_env_beats_ambient() {
        // The precedence rule itself (pure; no env mutation): the
        // explicit --threads value must win over $NP_THREADS, which
        // wins over the ambient core count.
        let a = parse(&["--threads", "3"]);
        assert_eq!(resolve_threads_from(a.threads, Some("7"), 16), (3, None));
        let no_flag = parse(&[]);
        assert_eq!(
            resolve_threads_from(no_flag.threads, Some("7"), 16),
            (7, None)
        );
        assert_eq!(resolve_threads_from(no_flag.threads, None, 16), (16, None));
    }

    #[test]
    fn error_messages_name_the_flag() {
        let err = |args: &[&str]| {
            Args::try_from_iter(args.iter().map(|s| s.to_string())).unwrap_err()
        };
        assert_eq!(err(&["--seed"]), "--seed requires a value");
        assert_eq!(err(&["--seed", "banana"]), "--seed must be a u64");
        assert_eq!(err(&["--threads"]), "--threads requires a value");
        assert_eq!(
            err(&["--threads", "2.5"]),
            "--threads must be a positive integer"
        );
        assert_eq!(err(&["--threads", "0"]), "--threads must be at least 1");
        assert_eq!(err(&["--seeds", "0"]), "--seeds must be at least 1");
        assert_eq!(
            err(&["--super-shards", "0"]),
            "--super-shards must be at least 1"
        );
        assert_eq!(
            err(&["--block-cache-mb", "x"]),
            "--block-cache-mb must be a positive integer"
        );
        assert_eq!(
            err(&["--out", "xml"]),
            "--out must be 'table' or 'json', got \"xml\""
        );
        assert_eq!(err(&["--max-rss-mb", "-1"]), "--max-rss-mb must be a u64");
    }

    #[test]
    fn unknown_world_prints_the_catalogue_and_a_hint() {
        let err = |args: &[&str]| {
            Args::try_from_iter(args.iter().map(|s| s.to_string())).unwrap_err()
        };
        // A far miss: catalogue only.
        let msg = err(&["--world", "cubic"]);
        assert!(msg.starts_with("--world: no world backend \"cubic\""), "{msg}");
        for b in Backend::ALL {
            assert!(msg.contains(b.name()), "catalogue misses {}: {msg}", b.name());
        }
        // A near miss earns a nearest-name hint.
        let msg = err(&["--world", "heirarchical"]);
        assert!(msg.contains("did you mean \"hierarchical\"?"), "{msg}");
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        // On Linux this must parse; elsewhere None is acceptable.
        if std::path::Path::new("/proc/self/status").exists() {
            let mb = peak_rss_mb().expect("VmHWM parses");
            assert!(mb >= 1, "peak RSS of a running process is non-zero");
        }
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        // The Result API is the only parse path; there is no panicking
        // variant to reach a backtrace through.
        let err = |args: &[&str]| {
            Args::try_from_iter(args.iter().map(|s| s.to_string())).unwrap_err()
        };
        assert_eq!(err(&["--seed"]), "--seed requires a value");
        assert_eq!(err(&["--threads", "0"]), "--threads must be at least 1");
        assert!(err(&["--world", "cubic"]).starts_with("--world: no world backend"));
    }

    #[test]
    fn usage_names_every_flag() {
        for flag in [
            "--quick",
            "--seed",
            "--threads",
            "--world",
            "--super-shards",
            "--block-cache-mb",
            "--seeds",
            "--out",
            "--csv",
            "--max-rss-mb",
        ] {
            assert!(USAGE.contains(flag), "{flag} missing from USAGE");
        }
    }

    #[test]
    fn report_footer_mentions_threads() {
        let a = parse(&["--threads", "2"]);
        let r = Report::start(&a);
        let line = r.footer_line();
        assert!(line.contains("on 2 threads"), "{line}");
        assert!(line.contains("wall-clock"), "{line}");
    }
}
