//! # np-benchmark
//!
//! The repository benchmark as a library: three named workloads
//! ([`workloads::Workload`]), each run as repetitions for a fixed time,
//! a correctness gate on every output, the end-to-end metrics of
//! untraced runs and the per-layer metrics of traced runs. The
//! `np-benchmark` binary is the command-line front; the tests drive
//! the same [`run`] at tiny sizes.

pub mod calib;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod workloads;

use metrics::{median, peak_rss_mib, per_layer, END_TO_END};
use np_core::experiment::AlgoRegistry;
use trace::{now, secs_since, Span, Tracer};
use workloads::{at_nominal, run_rep, Plan, Rep, Size, Workload};

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Measure for about this long, in whole repetitions.
    pub seconds: f64,
    /// Report per-layer metrics from traced repetitions instead of
    /// end-to-end metrics from untraced ones.
    pub trace: bool,
    pub size: Size,
}

/// Repetitions a run makes at least, so every call's median has a
/// middle (a traced run: some of them traced).
pub const MIN_REPS: usize = 3;

/// What a run measured and whether its outputs were correct.
pub struct Outcome {
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Queries issued plus correctness checks made.
    pub attempted: u64,
    /// Gate misses, failed repetitions and shed queries.
    pub failed: u64,
    pub failures: Vec<String>,
    pub reps: Vec<Rep>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `opts.workload` for about `opts.seconds` and grade it. Stops
/// before a repetition that would overrun the time, after at least
/// [`MIN_REPS`]. A traced run alternates untraced and traced
/// repetitions (at least one of each), so it reports its own tracing
/// overhead.
pub fn run(opts: &Opts, registry: &AlgoRegistry) -> Outcome {
    let plan = Plan::new(opts.workload, opts.size, opts.seed);
    let mut tracer = Tracer::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    let start = now();
    let mut longest: f64 = 0.0;
    loop {
        let idx = reps.len();
        tracer.set_enabled(opts.trace && idx % 2 == 1);
        let t = now();
        let rep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_rep(&plan, registry, &mut tracer, idx)
        }));
        longest = longest.max(secs_since(t));
        match rep {
            Ok(rep) => reps.push(rep),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                failures.push(format!("repetition {idx} failed: {msg}"));
                break;
            }
        }
        if reps.len() >= MIN_REPS && secs_since(start) + longest > opts.seconds {
            break;
        }
    }

    // Same seed, same inputs: every repetition must reproduce the first
    // one's PaperMetrics digest.
    let mut attempted = 0;
    let mut shed = 0;
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.attempted;
        shed += rep.shed;
        failures.extend(rep.failures.iter().map(|f| format!("repetition {i}: {f}")));
        if i > 0 {
            attempted += 1;
            if rep.digest != reps[0].digest {
                failures.push(format!(
                    "repetition {i}: PaperMetrics digest {:016x} differs from the first \
                     repetition's {:016x}",
                    rep.digest, reps[0].digest
                ));
            }
        }
    }

    let pick = |traced: bool, f: &dyn Fn(&Rep) -> f64| -> f64 {
        median(
            &reps
                .iter()
                .filter(|r| r.traced == traced)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let metrics = if opts.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = if name == "trace.overhead_s" {
                    pick(true, &|r: &Rep| r.wall_s) - pick(false, &|r: &Rep| r.wall_s)
                } else {
                    pick(true, &|r: &Rep| r.layer.get(&name).copied().unwrap_or(0.0))
                };
                (name, v, unit)
            })
            .collect()
    } else {
        let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
        let best = at_nominal(&untraced);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => best.setup_s,
                    "wall_s" => best.wall_s,
                    "peak_rss_mib" => peak_rss_mib().unwrap_or(0.0),
                    other => unreachable!("no measurement for {other}"),
                };
                (name.to_string(), v, unit)
            })
            .collect()
    };
    Outcome {
        metrics,
        attempted: attempted.max(1),
        failed: failures.len() as u64 + shed,
        failures,
        reps,
        spans: tracer.spans().to_vec(),
    }
}
