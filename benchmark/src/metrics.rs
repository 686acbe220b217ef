//! The metric catalogue (names and units, the same as `BENCHMARK.json`)
//! and the process counters the benchmark reads from `/proc`.

/// End-to-end metrics: every untraced run prints all of them, on every
/// workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")];

/// Algorithms the serving workload runs, in order.
pub const SERVED: &[&str] = &["meridian", "brute-force"];

/// Per-algorithm serving metrics (suffixed `.<algorithm>`).
const SERVE_PER_ALGO: &[(&str, &str)] = &[
    ("serve.total_p50_us", "us"),
    ("serve.total_p99_us", "us"),
    ("serve.capacity_qps", "1/s"),
    ("serve.gen_late_p50_us", "us"),
    ("serve.gen_late_p99_us", "us"),
    ("serve.queued_p50_us", "us"),
    ("serve.queued_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.max_backlog", "count"),
    ("serve.mean_batch", "count"),
    ("serve.shed", "count"),
];

/// Per-layer metrics that do not depend on the served algorithm.
const LAYER: &[(&str, &str)] = &[
    ("scenario.build_s", "s"),
    ("scenario.store_mib", "MiB"),
    ("truth.build_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.resident_mib", "MiB"),
    ("meridian.build_s", "s"),
    ("meridian.query_s", "s"),
    ("meridian.probes_per_query", "count"),
    ("meridian.hops_per_query", "count"),
    ("kademlia.build_s", "s"),
    ("kademlia.query_s", "s"),
    ("kademlia.probes_per_query", "count"),
    ("nsw.build_s", "s"),
    ("nsw.query_s", "s"),
    ("nsw.probes_per_query", "count"),
    ("brute-force.query_s", "s"),
    ("brute-force.probes_per_query", "count"),
    ("parallel.busy_s", "s"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("answer.qps", "1/s"),
    ("host.slowdown", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Per-layer metrics: every traced run prints all of them, on every
/// workload (a layer a workload does not run reads 0).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for algo in SERVED {
        for &(n, u) in SERVE_PER_ALGO {
            out.push((format!("{n}.{algo}"), u));
        }
    }
    out
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of this process, seconds (`/proc/self/stat`
/// fields 14 and 15, in the kernel's fixed 100 Hz user tick).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn proc_readers_work_on_linux() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        assert!(process_cpu_s().expect("stat") >= 0.0);
    }
}
