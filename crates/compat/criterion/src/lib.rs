//! Vendored mini `criterion`: wall-clock micro-benchmarking without the
//! statistics stack.
//!
//! Each benchmark warms up for `warm_up_time`, then collects
//! `sample_size` samples; a sample times a batch of iterations sized so
//! one batch lasts roughly `measurement_time / sample_size`. Reported
//! per-iteration numbers are the mean / median / min over samples.
//!
//! Results print to stdout and are appended to a JSON report (path from
//! `$CRITERION_JSON`, default `BENCH_parallel.json`) so CI and the repo
//! can record speedups. A CLI filter argument (as in
//! `cargo bench -- matrix`) restricts which benchmarks run, matching by
//! substring exactly like the real criterion.
//!
//! Before statistics, samples pass through **MAD-based outlier
//! rejection** ([`reject_outliers_mad`]): CI runners get descheduled,
//! and a single 10x sample would otherwise poison the committed mean in
//! `BENCH_parallel.json`. Rejected counts are reported alongside the
//! retained-sample statistics.

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value laundering.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Batch sizing hint for [`Bencher::iter_batched`]. The mini harness
/// times setup outside the measured region for every variant, so the
/// hint only exists for API compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// One benchmark's collected timing, per iteration, in nanoseconds.
/// Statistics are over the samples retained by MAD rejection;
/// `rejected` counts the discards.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub mean_ns: f64,
    pub median_ns: f64,
    pub min_ns: f64,
    pub samples: usize,
    pub rejected: usize,
    pub iters_per_sample: u64,
}

/// Robust scale-factor turning a MAD into a normal-consistent sigma.
const MAD_SIGMA: f64 = 1.4826;
/// Rejection threshold in robust sigmas (the conventional 3σ fence,
/// applied to the slow side only).
const MAD_FENCE: f64 = 3.0;

/// Split `samples` into (retained, rejected-count) by an **upper-only**
/// median + 3·1.4826·MAD fence. Timing noise on shared runners is
/// one-sided — preemption only ever makes a sample *slower* — so an
/// unusually fast sample is real performance, not noise, and must
/// survive (it is exactly what `min_ns`, the speedup-claim statistic,
/// exists to capture). Only the slow tail is rejected.
///
/// When the MAD is zero (heavily quantized timings where most samples
/// are identical) every sample is retained: a zero-width fence would
/// reject legitimate jitter, which is worse than keeping an outlier.
pub fn reject_outliers_mad(samples: &[f64]) -> (Vec<f64>, usize) {
    if samples.len() < 3 {
        return (samples.to_vec(), 0);
    }
    let median_of = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        median(v)
    };
    let median = median_of(&mut samples.to_vec());
    let mad = median_of(&mut samples.iter().map(|x| (x - median).abs()).collect());
    if mad == 0.0 {
        return (samples.to_vec(), 0);
    }
    let fence = MAD_FENCE * MAD_SIGMA * mad;
    let kept: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|x| x - median <= fence)
        .collect();
    let rejected = samples.len() - kept.len();
    (kept, rejected)
}

/// The median of ascending, non-empty `sorted`: the middle sample, or
/// the mean of the two middle samples for an even count.
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The benchmark driver. Construct with [`Criterion::default`], adjust
/// with the builder methods, then register benchmarks.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // Respect `cargo bench -- <filter>`; ignore harness flags the
        // real criterion defines (--bench is passed by cargo itself).
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with("--") && !a.is_empty());
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
            filter,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Criterion {
        self.measurement_time = t;
        self
    }

    pub fn warm_up_time(mut self, t: Duration) -> Criterion {
        self.warm_up_time = t;
        self
    }

    /// Run one benchmark closure (skipped unless it matches the CLI
    /// filter, when one was given).
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Criterion {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            sample_ns: Vec::new(),
            iters_per_sample: 0,
        };
        f(&mut bencher);
        assert!(!bencher.sample_ns.is_empty(), "benchmark {name} produced no samples");
        let (mut sorted, rejected) = reject_outliers_mad(&bencher.sample_ns);
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let result = BenchResult {
            name: name.to_string(),
            mean_ns: mean,
            median_ns: median(&sorted),
            min_ns: sorted[0],
            samples: sorted.len(),
            rejected,
            iters_per_sample: bencher.iters_per_sample,
        };
        println!(
            "{name:<44} mean {:>12}  median {:>12}  min {:>12}  ({} samples x {} iters{})",
            fmt_ns(result.mean_ns),
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            result.samples,
            result.iters_per_sample,
            if result.rejected > 0 {
                format!(", {} outliers rejected", result.rejected)
            } else {
                String::new()
            },
        );
        self.results.push(result);
        self
    }

    /// All results collected so far (used by `criterion_main!`).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Append results to the JSON report file. Merges with an existing
    /// report by benchmark name, so successive filtered runs accumulate.
    pub fn write_json_report(&self) {
        if self.results.is_empty() {
            return;
        }
        let path = std::env::var("CRITERION_JSON").unwrap_or_else(|_| {
            // `cargo bench` sets CWD to the *package* dir; put the
            // report at the workspace root (the outermost ancestor
            // holding a Cargo.lock) so it lands in one canonical place.
            let mut root = std::env::current_dir().unwrap_or_else(|_| ".".into());
            for anc in root.clone().ancestors() {
                if anc.join("Cargo.lock").exists() {
                    root = anc.to_path_buf();
                }
            }
            root.join("BENCH_parallel.json").to_string_lossy().into_owned()
        });
        let mut entries: Vec<(String, String)> = Vec::new();
        if let Ok(old) = std::fs::read_to_string(&path) {
            for line in old.lines() {
                let t = line.trim().trim_end_matches(',');
                if let Some(name) = t.split('"').nth(1) {
                    if t.contains("mean_ns") {
                        entries.push((name.to_string(), t.to_string()));
                    }
                }
            }
        }
        for r in &self.results {
            let line = format!(
                "\"{}\": {{\"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \"rejected\": {}, \"iters_per_sample\": {}}}",
                r.name, r.mean_ns, r.median_ns, r.min_ns, r.samples, r.rejected, r.iters_per_sample
            );
            if let Some(e) = entries.iter_mut().find(|(n, _)| n == &r.name) {
                e.1 = line;
            } else {
                entries.push((r.name.clone(), line));
            }
        }
        let body: Vec<String> = entries.iter().map(|(_, l)| format!("  {l}")).collect();
        let json = format!("{{\n{}\n}}\n", body.join(",\n"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("benchmark report written to {path}");
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] or
/// [`Bencher::iter_batched`] exactly once.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Measure `routine` repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up, also yielding a per-iteration estimate for batching.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64).max(1.0);
        let budget_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let batch = ((budget_ns / est_ns).round() as u64).max(1);
        self.iters_per_sample = batch;
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.sample_ns
                .push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    /// Measure `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let warm_start = Instant::now();
        let mut est = Duration::ZERO;
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            est += t.elapsed();
            warm_iters += 1;
        }
        let est_ns = (est.as_nanos() as f64 / warm_iters.max(1) as f64).max(1.0);
        let budget_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let batch = ((budget_ns / est_ns).round() as u64).max(1);
        self.iters_per_sample = batch;
        for _ in 0..self.sample_size {
            let mut measured = Duration::ZERO;
            for _ in 0..batch {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                measured += t.elapsed();
            }
            self.sample_ns
                .push(measured.as_nanos() as f64 / batch as f64);
        }
    }
}

/// `criterion_group! { name = benches; config = ...; targets = a, b }`
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
            criterion.write_json_report();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// `criterion_main!(benches);` — generates `fn main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_criterion() -> Criterion {
        Criterion {
            filter: None,
            ..Criterion::default()
        }
        .sample_size(3)
        .measurement_time(Duration::from_millis(30))
        .warm_up_time(Duration::from_millis(5))
    }

    #[test]
    fn mad_rejects_the_fixture_outliers() {
        // A CI-noise shaped fixture: tight cluster around 100 ns with
        // two preemption spikes. MAD ≈ 1, fence ≈ 4.4 — both spikes go,
        // every in-cluster sample stays.
        let fixture = [99.0, 100.0, 101.0, 100.0, 102.0, 98.0, 100.0, 1_000.0, 450.0];
        let (kept, rejected) = reject_outliers_mad(&fixture);
        assert_eq!(rejected, 2);
        assert_eq!(kept.len(), 7);
        assert!(kept.iter().all(|&x| x < 103.0));
        // The retained mean is no longer poisoned by the spikes.
        let mean = kept.iter().sum::<f64>() / kept.len() as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
        // The fence is upper-only: a genuinely fast sample is signal
        // (it becomes min_ns), never an outlier.
        let with_fast = [90.0, 99.0, 100.0, 100.0, 100.0, 101.0, 102.0, 1_000.0];
        let (kept, rejected) = reject_outliers_mad(&with_fast);
        assert_eq!(rejected, 1, "only the slow spike goes");
        assert!(kept.contains(&90.0), "fast sample must survive for min_ns");
    }

    #[test]
    fn mad_keeps_everything_when_quantized() {
        // All-identical timings: MAD is 0; a zero-width fence must not
        // reject the jitter-free samples.
        let (kept, rejected) = reject_outliers_mad(&[50.0; 8]);
        assert_eq!(rejected, 0);
        assert_eq!(kept.len(), 8);
        // Mostly-identical with one genuine outlier still has MAD 0:
        // documented behaviour is to keep it (no fence to reject with).
        let (kept, rejected) = reject_outliers_mad(&[50.0, 50.0, 50.0, 50.0, 99.0]);
        assert_eq!(rejected, 0);
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn median_averages_the_two_middle_samples_of_an_even_count() {
        assert_eq!(median(&[9.28, 9.74]), 9.51);
        assert_eq!(median(&[1.0, 2.0, 7.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 7.0]), 3.0);
    }

    #[test]
    fn mad_passes_tiny_samples_through() {
        let (kept, rejected) = reject_outliers_mad(&[1.0, 100.0]);
        assert_eq!((kept.len(), rejected), (2, 0));
        let (kept, rejected) = reject_outliers_mad(&[]);
        assert_eq!((kept.len(), rejected), (0, 0));
    }

    #[test]
    fn bench_result_reports_rejection_count() {
        let mut c = fast_criterion();
        c.bench_function("steady", |b| b.iter(|| black_box(1u64).wrapping_mul(3)));
        let r = &c.results()[0];
        // Statistics are over retained samples only.
        assert_eq!(r.samples + r.rejected, 3);
    }

    #[test]
    fn bench_function_collects_samples() {
        let mut c = fast_criterion();
        c.bench_function("spin", |b| b.iter(|| black_box(3u64).wrapping_mul(7)));
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        // MAD rejection may trim noisy samples; retained + rejected is
        // always the configured sample count.
        assert_eq!(r.samples + r.rejected, 3);
        assert!(r.samples >= 1);
        assert!(r.min_ns <= r.median_ns && r.min_ns > 0.0);
    }

    #[test]
    fn iter_batched_runs_setup_per_input() {
        let mut c = fast_criterion();
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        assert_eq!(c.results().len(), 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = fast_criterion();
        c.filter = Some("zzz".into());
        c.bench_function("abc", |b| b.iter(|| 1));
        assert!(c.results().is_empty());
    }

    #[test]
    fn fmt_ns_scales() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("us"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(2.5e9).ends_with(" s"));
    }
}
