//! `np-bench serve <spec.toml>` — the open-loop load harness over the
//! `np-serve` daemon.
//!
//! Where `np-bench run` answers a spec's query matrix as a batch and
//! reports accuracy, `serve` stands the same cells up as a long-lived
//! actor pipeline and offers seeded Poisson traffic at `--rate` for
//! `--duration`, reporting what the batch path cannot: throughput and
//! queued/service/total latency quantiles (p50/p99/p999/max) from the
//! pipeline's mergeable log-bucketed histograms.
//!
//! The serving path is contractually the batch path per query, so under
//! lossless admission (`--admission block`, the default) this module
//! cross-checks every row: it reruns the served schedule through
//! `run_queries` and demands bit-identical [`PaperMetrics`]. Every row
//! must also account for each submission (admitted or shed, every
//! admitted query answered, the whole schedule under lossless
//! admission) and keep brute force exact. A violation is a harness bug
//! and exits non-zero — the contracts are enforced on the main path,
//! not only in tests.
//!
//! `--record PATH` appends the machine-readable rows to a BENCH-style
//! JSON map (`BENCH_serve.json` in CI), keyed `spec/cell/algo`.

use crate::cli::{self, Args, OutFormat};
use crate::spec_files::load_spec;
use crate::specs;
use np_core::experiment::{
    sink::{json_escape, json_f64},
    AlgoContext, AlgoRegistry, BuildCache, ExperimentSpec, ScenarioHandle, Workload,
};
use np_serve::{run_schedule, Admission, ArrivalSchedule, Pacing, ServeConfig, ServeCtx, ServeReport};
use np_util::table::{fmt_prob, Table};
use np_util::LatencyHist;
use std::path::PathBuf;

/// The serve-specific flag synopsis (shared flags are in [`cli::USAGE`]).
pub const SERVE_USAGE: &str = "usage: np-bench serve <spec.toml> [--rate QPS] [--duration S] \
[--workers N] [--queue-cap N] [--batch N] [--admission block|shed] [--pacing realtime|replay] \
[--record PATH] [common flags]";

/// Parsed serve-specific options (everything [`cli::Args`] does not
/// already own).
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Offered load, queries/second. Defaults to the figure's paper or
    /// quick load ([`specs::ext_serve::default_load`]).
    pub rate_qps: f64,
    /// Offered-load horizon, seconds.
    pub duration_s: f64,
    /// Router workers (`--workers`; defaults to the resolved thread
    /// count — answers are identical at any value).
    pub workers: Option<usize>,
    pub queue_cap: usize,
    pub batch: usize,
    pub admission: Admission,
    pub pacing: Pacing,
    /// `--record PATH` — write/merge the BENCH-style JSON map.
    pub record: Option<PathBuf>,
}

impl ServeOpts {
    fn defaults(quick: bool) -> ServeOpts {
        let (rate_qps, duration_s) = specs::ext_serve::default_load(quick);
        let d = ServeConfig::default();
        ServeOpts {
            rate_qps,
            duration_s,
            workers: None,
            queue_cap: d.queue_cap,
            batch: d.batch,
            admission: d.admission,
            pacing: Pacing::RealTime,
            record: None,
        }
    }
}

/// Parse the serve-specific flags out of [`Args::rest`]. Returns the
/// positional spec path (if any) and the options; malformed values are
/// `Err` with a message naming the flag.
pub fn parse_serve_rest(
    rest: &[String],
    quick: bool,
) -> Result<(Option<PathBuf>, ServeOpts), String> {
    let mut opts = ServeOpts::defaults(quick);
    let mut path: Option<PathBuf> = None;
    let mut it = rest.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    let positive_f64 = |v: &str, flag: &str| -> Result<f64, String> {
        let x: f64 = v
            .parse()
            .map_err(|_| format!("{flag} must be a positive number"))?;
        if !(x > 0.0 && x.is_finite()) {
            return Err(format!("{flag} must be a positive number"));
        }
        Ok(x)
    };
    let positive = |v: &str, flag: &str| -> Result<usize, String> {
        let n: usize = v
            .parse()
            .map_err(|_| format!("{flag} must be a positive integer"))?;
        if n < 1 {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rate" => opts.rate_qps = positive_f64(&value(&mut it, "--rate")?, "--rate")?,
            "--duration" => {
                opts.duration_s = positive_f64(&value(&mut it, "--duration")?, "--duration")?
            }
            "--workers" => {
                opts.workers = Some(positive(&value(&mut it, "--workers")?, "--workers")?)
            }
            "--queue-cap" => {
                opts.queue_cap = positive(&value(&mut it, "--queue-cap")?, "--queue-cap")?
            }
            "--batch" => opts.batch = positive(&value(&mut it, "--batch")?, "--batch")?,
            "--admission" => {
                opts.admission = match value(&mut it, "--admission")?.as_str() {
                    "block" => Admission::Block,
                    "shed" => Admission::Shed,
                    other => {
                        return Err(format!(
                            "--admission must be 'block' or 'shed', got {other:?}"
                        ))
                    }
                }
            }
            "--pacing" => {
                opts.pacing = match value(&mut it, "--pacing")?.as_str() {
                    "realtime" => Pacing::RealTime,
                    "replay" => Pacing::Replay,
                    other => {
                        return Err(format!(
                            "--pacing must be 'realtime' or 'replay', got {other:?}"
                        ))
                    }
                }
            }
            "--record" => opts.record = Some(PathBuf::from(value(&mut it, "--record")?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown serve flag {other:?}"))
            }
            _ => {
                if path.replace(PathBuf::from(a)).is_some() {
                    return Err("serve takes exactly one spec file".to_string());
                }
            }
        }
    }
    Ok((path, opts))
}

/// One served (cell, algorithm) row.
pub struct ServeRow {
    pub spec: String,
    pub cell: String,
    pub algo: String,
    pub workers: usize,
    pub offered: usize,
    pub rate_qps: f64,
    pub duration_s: f64,
    pub report: ServeReport,
    /// Whether the batch cross-check ran (lossless admission only) —
    /// when it ran, it passed, or the harness already exited.
    pub verified: bool,
}

impl ServeRow {
    /// Completed queries per wall-clock second.
    pub fn throughput_qps(&self) -> f64 {
        let wall = self.report.wall.as_secs_f64();
        if wall > 0.0 {
            self.report.stats.completed as f64 / wall
        } else {
            0.0
        }
    }

    /// The accounting every served row must satisfy: each submission is
    /// admitted or shed, a drained pipeline answers every admitted
    /// query, lossless admission completes the whole schedule, and brute
    /// force stays exact.
    pub fn check(&self) -> Result<(), &'static str> {
        let s = &self.report.stats;
        let exact = self.report.metrics.p_correct_closest == 1.0;
        if s.submitted != s.admitted + s.shed {
            Err("every submission must be admitted or shed")
        } else if s.completed != s.admitted {
            Err("a drained pipeline answers every admitted query")
        } else if self.verified && s.completed as usize != self.offered {
            Err("lossless admission completes the whole schedule")
        } else if self.algo == "brute-force" && s.completed > 0 && !exact {
            Err("brute force must stay exact under service")
        } else {
            Ok(())
        }
    }
}

/// Serve every (cell, algorithm) of a query-matrix spec and return the
/// rows. Under lossless admission each row is cross-checked against the
/// batch runner (service≡batch), and every row is checked
/// ([`ServeRow::check`]); a violation prints what broke and exits 1.
pub fn serve_spec(
    spec: &ExperimentSpec,
    registry: &AlgoRegistry,
    opts: &ServeOpts,
    threads: usize,
) -> Vec<ServeRow> {
    let Workload::QueryMatrix(cells) = &spec.workload else {
        cli::exit_error(&format!(
            "spec {:?} is a measurement study; serve needs a query-matrix spec",
            spec.name
        ));
    };
    // Resolve every name before building any world (same pre-flight as
    // the batch driver).
    for cell in cells {
        for algo in &cell.algos {
            if let Err(e) = registry.lookup(&algo.name) {
                cli::exit_error(&format!("cell {:?}: {e}", cell.label));
            }
        }
    }
    let workers = opts.workers.unwrap_or(threads).max(1);
    let cfg = ServeConfig {
        workers,
        queue_cap: opts.queue_cap,
        batch: opts.batch,
        admission: opts.admission,
        start_paused: false,
    };
    let mut rows = Vec::new();
    for cell in cells {
        let scenario = ScenarioHandle::build(cell, spec.backend, cell.base_seed, threads);
        let truth = scenario.nearest_cache(threads);
        let schedule = ArrivalSchedule::poisson(
            scenario.targets(),
            opts.rate_qps,
            opts.duration_s,
            cell.base_seed,
        );
        let shared = BuildCache::new();
        let build_ctx = AlgoContext {
            store: scenario.store(),
            world: scenario.world(),
            overlay: scenario.overlay(),
            seed: cell.base_seed,
            threads,
            shared: &shared,
        };
        let serve_ctx = ServeCtx {
            store: scenario.store(),
            world: scenario.world(),
            truth,
            seed: cell.base_seed,
        };
        for algo_spec in &cell.algos {
            let factory = registry.expect(&algo_spec.name); // pre-flighted above
            let algo = factory.build(&build_ctx);
            let report = run_schedule(&serve_ctx, algo.as_ref(), &cfg, &schedule, opts.pacing);
            let verified = opts.admission == Admission::Block;
            if verified {
                // The service≡batch contract, enforced on the main
                // path: same schedule through the batch runner must
                // yield bit-identical PaperMetrics.
                let batch =
                    scenario.run_queries(algo.as_ref(), schedule.len(), cell.base_seed, threads);
                if report.metrics != batch {
                    eprintln!(
                        "error: service/batch equivalence violated for {:?} in cell {:?} \
                         ({} workers): served {:?} != batch {:?}",
                        algo_spec.name, cell.label, workers, report.metrics, batch
                    );
                    std::process::exit(1);
                }
            }
            let row = ServeRow {
                spec: spec.name.clone(),
                cell: cell.label.clone(),
                algo: algo_spec.name.clone(),
                workers,
                offered: schedule.len(),
                rate_qps: opts.rate_qps,
                duration_s: opts.duration_s,
                report,
                verified,
            };
            if let Err(e) = row.check() {
                eprintln!("error: {}: {e} (cell {:?})", row.algo, row.cell);
                std::process::exit(1);
            }
            rows.push(row);
        }
    }
    rows
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn quantile_us(h: &LatencyHist, q: f64) -> String {
    h.quantile(q).map(us).unwrap_or_else(|| "-".into())
}

/// The human table: one row per (cell, algorithm), latencies in µs.
pub fn render_serve_table(rows: &[ServeRow]) -> String {
    let mut table = Table::new(&[
        "cell",
        "algorithm",
        "offered",
        "done",
        "shed",
        "thru q/s",
        "p50 us",
        "p99 us",
        "p999 us",
        "max us",
        "queue p99 us",
        "svc p99 us",
        "P(correct)",
    ]);
    for row in rows {
        let r = &row.report;
        table.row(&[
            row.cell.clone(),
            row.algo.clone(),
            row.offered.to_string(),
            r.stats.completed.to_string(),
            r.stats.shed.to_string(),
            format!("{:.1}", row.throughput_qps()),
            quantile_us(&r.total, 0.50),
            quantile_us(&r.total, 0.99),
            quantile_us(&r.total, 0.999),
            r.total.max().map(us).unwrap_or_else(|| "-".into()),
            quantile_us(&r.queued, 0.99),
            quantile_us(&r.service, 0.99),
            fmt_prob(r.metrics.p_correct_closest),
        ]);
    }
    table.render()
}

/// One machine-readable JSON object for a served row (the `--out json`
/// line and the `--record` map value share this body).
pub fn row_json_body(row: &ServeRow) -> String {
    let r = &row.report;
    let q = |h: &LatencyHist, q: f64| h.quantile(q).unwrap_or(0).to_string();
    format!(
        "\"workers\":{},\"policy\":\"{}\",\"rate_qps\":{},\"duration_s\":{},\
         \"offered\":{},\"submitted\":{},\"admitted\":{},\"completed\":{},\"shed\":{},\
         \"batches\":{},\"wall_s\":{},\"throughput_qps\":{},\
         \"total_p50_ns\":{},\"total_p99_ns\":{},\"total_p999_ns\":{},\"total_max_ns\":{},\
         \"queued_p50_ns\":{},\"queued_p99_ns\":{},\
         \"service_p50_ns\":{},\"service_p99_ns\":{},\"service_p999_ns\":{},\
         \"p_correct_closest\":{},\"mean_probes\":{},\"verified\":{}",
        row.workers,
        r.stats.policy,
        json_f64(row.rate_qps),
        json_f64(row.duration_s),
        row.offered,
        r.stats.submitted,
        r.stats.admitted,
        r.stats.completed,
        r.stats.shed,
        r.stats.batches,
        json_f64(r.wall.as_secs_f64()),
        json_f64(row.throughput_qps()),
        q(&r.total, 0.50),
        q(&r.total, 0.99),
        q(&r.total, 0.999),
        r.total.max().unwrap_or(0),
        q(&r.queued, 0.50),
        q(&r.queued, 0.99),
        q(&r.service, 0.50),
        q(&r.service, 0.99),
        q(&r.service, 0.999),
        json_f64(r.metrics.p_correct_closest),
        json_f64(r.metrics.mean_probes),
        row.verified,
    )
}

/// The `--out json` payload: one JSON object per row, one per line.
pub fn render_serve_json(rows: &[ServeRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!(
            "{{\"spec\":\"{}\",\"cell\":\"{}\",\"algo\":\"{}\",{}}}\n",
            json_escape(&row.spec),
            json_escape(&row.cell),
            json_escape(&row.algo),
            row_json_body(row),
        ));
    }
    out
}

/// The `--record` artifact: a BENCH-style JSON map keyed
/// `spec/cell/algo` (the same flat-map shape as `BENCH_parallel.json`).
pub fn render_record(rows: &[ServeRow]) -> String {
    let mut out = String::from("{\n");
    for (i, row) in rows.iter().enumerate() {
        let key = json_escape(&format!("{}/{}/{}", row.spec, row.cell, row.algo));
        out.push_str(&format!("  \"{key}\": {{{}}}", row_json_body(row)));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// `np-bench serve <spec.toml> [flags]`.
pub fn cmd_serve(argv: &[String]) -> ! {
    let mut args = match Args::try_from_iter(argv.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{SERVE_USAGE}");
            std::process::exit(2);
        }
    };
    let (path, opts) = match parse_serve_rest(&std::mem::take(&mut args.rest), args.quick) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{SERVE_USAGE}");
            std::process::exit(2);
        }
    };
    let Some(path) = path else {
        eprintln!("error: serve needs a spec file");
        eprintln!("{SERVE_USAGE}");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => cli::exit_error(&format!("cannot read {}: {e}", path.display())),
    };
    let spec = match load_spec(&text, &path, &mut args) {
        Ok(s) => s,
        Err(e) => cli::exit_error(&e),
    };
    let registry = crate::registry::full_registry();
    let threads = args.threads();

    cli::chrome(
        &args,
        &cli::header_block(
            &format!("{} (service mode)", spec.title),
            &spec.paper_shape,
            &args,
        ),
    );
    cli::backend_note(&args, spec.backend);
    cli::chrome(
        &args,
        &format!(
            "offered load: {} q/s for {}s ({} pacing, {} admission, {} workers)\n",
            opts.rate_qps,
            opts.duration_s,
            match opts.pacing {
                Pacing::RealTime => "realtime",
                Pacing::Replay => "replay",
            },
            opts.admission.name(),
            opts.workers.unwrap_or(threads).max(1),
        ),
    );
    let timer = cli::Report::start(&args);
    let rows = serve_spec(&spec, &registry, &opts, threads);
    match args.out {
        OutFormat::Table => println!("{}", render_serve_table(&rows)),
        OutFormat::Json => print!("{}", render_serve_json(&rows)),
    }
    if let Some(record) = &opts.record {
        if let Err(e) = std::fs::write(record, render_record(&rows)) {
            cli::exit_error(&format!("cannot write {}: {e}", record.display()));
        }
        cli::chrome(&args, &format!("recorded {} rows to {}", rows.len(), record.display()));
    }
    cli::chrome(&args, "");
    cli::chrome(&args, &timer.footer_line());
    cli::enforce_rss_budget(&args);
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rest(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults_follow_budget_mode() {
        let (path, opts) = parse_serve_rest(&rest(&["spec.toml"]), false).expect("parses");
        assert_eq!(path.as_deref(), Some(std::path::Path::new("spec.toml")));
        let (paper_rate, paper_dur) = specs::ext_serve::default_load(false);
        assert_eq!(opts.rate_qps, paper_rate);
        assert_eq!(opts.duration_s, paper_dur);
        assert_eq!(opts.admission, Admission::Block);
        assert_eq!(opts.pacing, Pacing::RealTime);
        let (_, quick) = parse_serve_rest(&rest(&[]), true).expect("parses");
        let (quick_rate, quick_dur) = specs::ext_serve::default_load(true);
        assert_eq!(quick.rate_qps, quick_rate);
        assert_eq!(quick.duration_s, quick_dur);
    }

    #[test]
    fn parse_all_serve_flags() {
        let (path, opts) = parse_serve_rest(
            &rest(&[
                "s.toml", "--rate", "250", "--duration", "0.5", "--workers", "4", "--queue-cap",
                "64", "--batch", "16", "--admission", "shed", "--pacing", "replay", "--record",
                "out.json",
            ]),
            false,
        )
        .expect("parses");
        assert!(path.is_some());
        assert_eq!(opts.rate_qps, 250.0);
        assert_eq!(opts.duration_s, 0.5);
        assert_eq!(opts.workers, Some(4));
        assert_eq!(opts.queue_cap, 64);
        assert_eq!(opts.batch, 16);
        assert_eq!(opts.admission, Admission::Shed);
        assert_eq!(opts.pacing, Pacing::Replay);
        assert_eq!(opts.record.as_deref(), Some(std::path::Path::new("out.json")));
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let err = |flags: &[&str]| parse_serve_rest(&rest(flags), false).unwrap_err();
        assert_eq!(err(&["--rate"]), "--rate requires a value");
        assert_eq!(err(&["--rate", "0"]), "--rate must be a positive number");
        assert_eq!(err(&["--rate", "nan"]), "--rate must be a positive number");
        assert_eq!(err(&["--workers", "0"]), "--workers must be at least 1");
        assert!(err(&["--admission", "drop"]).starts_with("--admission must be"));
        assert!(err(&["--pacing", "warp"]).starts_with("--pacing must be"));
        assert_eq!(err(&["--frobnicate"]), "unknown serve flag \"--frobnicate\"");
        assert_eq!(err(&["a.toml", "b.toml"]), "serve takes exactly one spec file");
    }

    #[test]
    fn usage_names_every_serve_flag() {
        for flag in [
            "--rate", "--duration", "--workers", "--queue-cap", "--batch", "--admission",
            "--pacing", "--record",
        ] {
            assert!(SERVE_USAGE.contains(flag), "{flag} missing from SERVE_USAGE");
        }
    }

    #[test]
    fn row_check_rejects_doctored_accounting() {
        let row = |algo: &str, submitted, completed| ServeRow {
            spec: "s".into(),
            cell: "c".into(),
            algo: algo.into(),
            workers: 1,
            offered: 10,
            rate_qps: 1.0,
            duration_s: 1.0,
            report: ServeReport {
                metrics: np_core::runner::reduce_records(&[], 0),
                answers: Vec::new(),
                stats: np_serve::ServeStats {
                    submitted,
                    admitted: 10,
                    completed,
                    shed: 0,
                    batches: 1,
                    policy: "block",
                },
                queued: LatencyHist::new(),
                service: LatencyHist::new(),
                total: LatencyHist::new(),
                wall: std::time::Duration::ZERO,
            },
            verified: true,
        };
        assert_eq!(row("random", 10, 10).check(), Ok(()));
        let lost = "a drained pipeline answers every admitted query";
        assert_eq!(row("random", 10, 9).check(), Err(lost));
        let leaked = "every submission must be admitted or shed";
        assert_eq!(row("random", 11, 10).check(), Err(leaked));
        let inexact = "brute force must stay exact under service";
        assert_eq!(row("brute-force", 10, 10).check(), Err(inexact));
    }

    #[test]
    fn record_map_is_flat_bench_style_json() {
        // Shape-only check on an empty row set: the record must still
        // be a valid (empty) JSON object.
        assert_eq!(render_record(&[]), "{\n}\n");
    }
}
