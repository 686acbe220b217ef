//! **Ext G** (beyond the paper): the query-serving daemon — the
//! `ext_serve` cell stood up as the `np-serve` actor pipeline under
//! seeded open-loop Poisson load, reporting throughput and
//! queued/service/total latency quantiles per algorithm.
//!
//! Spec lives in `np_bench::specs::ext_serve` (shared with `np-bench
//! run experiments/ext_serve.toml`, which drives the same cell through
//! the *batch* pipeline); the serving driver and its renderers live in
//! `np_bench::serve_cmd` (shared with `np-bench serve`). Under the
//! default lossless admission, `serve_spec` cross-checks every row's
//! `PaperMetrics` bit-identical against the batch runner — the
//! service≡batch contract enforced on the main path.
//!
//! Beyond the shared flag set, the serve flags apply:
//! `--rate QPS --duration S --workers N --queue-cap N --batch N
//! --admission block|shed --pacing realtime|replay --record PATH`.

use np_bench::cli::{self, OutFormat};
use np_bench::serve_cmd::{self, SERVE_USAGE};
use np_bench::specs;
use np_bench::{full_registry, Args};
use np_serve::{Admission, Pacing};

fn main() {
    let args = Args::parse();
    let (path, opts) = match serve_cmd::parse_serve_rest(&args.rest, args.quick) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{SERVE_USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(path) = path {
        cli::exit_error(&format!(
            "ext_serve builds its own spec; unexpected argument {:?} (use `np-bench serve` \
             to serve a spec file)",
            path.display()
        ));
    }
    let figure = np_bench::figure("ext_serve").expect("ext_serve is catalogued");
    let spec = specs::spec_for_args(figure, &args);
    let registry = full_registry();
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
    let rows = serve_cmd::serve_spec(&spec, &registry, &opts, threads);
    match args.out {
        OutFormat::Table => println!("{}", serve_cmd::render_serve_table(&rows)),
        OutFormat::Json => print!("{}", serve_cmd::render_serve_json(&rows)),
    }
    if let Some(record) = &opts.record {
        if let Err(e) = std::fs::write(record, serve_cmd::render_record(&rows)) {
            cli::exit_error(&format!("cannot write {}: {e}", record.display()));
        }
        cli::chrome(
            &args,
            &format!("recorded {} rows to {}", rows.len(), record.display()),
        );
    }
    cli::chrome(&args, "");
    cli::chrome(&args, &timer.footer_line());
    cli::enforce_rss_budget(&args);

    // Self-checks on the main path (they also guard --out json runs).
    for row in &rows {
        let stats = &row.report.stats;
        assert_eq!(
            stats.submitted,
            stats.admitted + stats.shed,
            "{}: every submission is admitted or shed",
            row.algo
        );
        assert_eq!(
            stats.completed, stats.admitted,
            "{}: a drained pipeline answers every admitted query",
            row.algo
        );
        if opts.admission == Admission::Block {
            assert!(row.verified, "{}: lossless rows must be cross-checked", row.algo);
            assert_eq!(
                stats.completed as usize, row.offered,
                "{}: lossless admission completes the whole schedule",
                row.algo
            );
        }
        if row.algo == "brute-force" && row.report.stats.completed > 0 {
            assert_eq!(
                row.report.metrics.p_correct_closest, 1.0,
                "brute force must stay exact under service"
            );
        }
    }
}
