//! What a run prints and records.
//!
//! The result line — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (each a value and a unit) — is the last line
//! of standard output. The result file adds what a reader needs to
//! trust a number: host and build metadata, the gate's failures, every
//! repetition's timings and digest and, for a traced run, every span.

use crate::workloads::{SERVE_WORKERS, THREADS};
use crate::{Opts, Outcome};
use np_core::experiment::sink::{json_escape, json_f64};
use np_util::parallel::available_threads;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Host and build facts every result file records.
pub struct Meta {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    /// Whether the checkout has uncommitted changes; `None` outside git.
    pub dirty: Option<bool>,
}

/// Run `program` to completion; its trimmed standard output if it
/// succeeded.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Meta {
    pub fn collect() -> Meta {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = output_of("git", &["rev-parse", "HEAD"]);
        let dirty = match commit {
            Some(_) => output_of("git", &["status", "--porcelain"]).map(|s| !s.is_empty()),
            None => None,
        };
        Meta {
            cores: available_threads(),
            cpu_model,
            rustc: output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: commit.unwrap_or_else(|| "unknown".into()),
            dirty,
        }
    }
}

fn metrics_json(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_escape(name),
                json_f64(*v)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line a driver parses.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics_json(o)
    )
}

/// The human-readable summary printed above the result line.
pub fn summary(opts: &Opts, o: &Outcome, meta: &Meta) -> String {
    let traced = o.reps.iter().filter(|r| r.traced).count();
    let mut s = format!(
        "{} · seed {} · {} repetitions ({traced} traced) · {THREADS} threads, \
         {SERVE_WORKERS} serve worker, {} cores\n",
        opts.workload.name(),
        opts.seed,
        o.reps.len(),
        meta.cores
    );
    for (name, v, unit) in &o.metrics {
        let _ = writeln!(s, "  {name:<34} {v:>18.6} {unit}");
    }
    let _ = writeln!(
        s,
        "  {:<34} {:>18.6} ratio ({} failed of {} operations)",
        "failed_frac",
        o.failed_frac(),
        o.failed,
        o.attempted
    );
    s
}

fn result_file(opts: &Opts, o: &Outcome, meta: &Meta) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", opts.workload.name());
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"seconds\": {},", json_f64(opts.seconds));
    let _ = writeln!(s, "  \"trace\": {},", opts.trace);
    let dirty = meta.dirty.map_or("null".to_string(), |d| d.to_string());
    let _ = writeln!(
        s,
        "  \"host\": {{\"cores\": {}, \"threads\": {THREADS}, \"serve_workers\": {SERVE_WORKERS}, \
         \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"dirty\": {dirty}}},",
        meta.cores,
        json_escape(&meta.cpu_model),
        json_escape(&meta.rustc),
        json_escape(&meta.commit)
    );
    let _ = writeln!(
        s,
        "  \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {},",
        o.correct(),
        o.attempted,
        o.failed,
        json_f64(o.failed_frac())
    );
    let failures: Vec<String> = o
        .failures
        .iter()
        .map(|f| format!("\"{}\"", json_escape(f)))
        .collect();
    let _ = writeln!(s, "  \"failures\": [{}],", failures.join(", "));
    let _ = writeln!(s, "  \"metrics\": {},", metrics_json(o));
    let reps: Vec<String> = o
        .reps
        .iter()
        .map(|r| {
            format!(
                "{{\"traced\": {}, \"wall_s\": {}, \"setup_s\": {}, \"qps\": {}, \
                 \"cpu_s\": {}, \"slowdown\": {}, \"digest\": \"{:016x}\", \"stages\": [{}]}}",
                r.traced,
                json_f64(r.wall_s),
                json_f64(r.setup_s),
                json_f64(r.qps()),
                json_f64(r.layer.get("process.cpu_s").copied().unwrap_or(0.0)),
                json_f64(r.slowdown()),
                r.digest,
                r.stages
                    .iter()
                    .map(|st| format!("[\"{}\", {}]", json_escape(&st.key), json_f64(st.secs)))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "  \"repetitions\": [\n    {}\n  ],",
        reps.join(",\n    ")
    );
    let spans: Vec<String> = o
        .spans
        .iter()
        .map(|sp| {
            format!(
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"group\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                json_escape(&sp.name),
                sp.id,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                json_escape(&sp.group),
                sp.start_ns,
                sp.end_ns
            )
        })
        .collect();
    let _ = writeln!(s, "  \"spans\": [\n    {}\n  ]", spans.join(",\n    "));
    s.push_str("}\n");
    s
}

/// Write the result file under the build directory, so a run never
/// changes a checkout's tracked files.
pub fn write_result_file(opts: &Opts, o: &Outcome, meta: &Meta) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
        .join("benchmark-results");
    std::fs::create_dir_all(&dir)?;
    let kind = if opts.trace { "traced" } else { "untraced" };
    let path = dir.join(format!(
        "{}-seed{}-{kind}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, result_file(opts, o, meta))?;
    Ok(path)
}
