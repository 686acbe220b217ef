//! Reading `BENCH_parallel.json` back: the speedup gate.
//!
//! The vendored criterion shim appends one `"name": {...}` line per
//! microbench to `BENCH_parallel.json`. This module parses that file
//! (no serde in the workspace) and derives the serial-vs-parallel
//! engine speedups — `X_serial` / `X_par` pairs — so `np-bench
//! speedup` can **assert and report** the ROADMAP's ≥2x 4-core
//! acceptance number on CI's multi-core runner instead of leaving it
//! an open item.

/// One benchmark's recorded statistics (the fields the gate consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub name: String,
    pub median_ns: f64,
    pub min_ns: f64,
}

/// A derived serial-vs-parallel pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupPair {
    /// The shared prefix ("latency_matrix_build_2500").
    pub name: String,
    pub serial_median_ns: f64,
    pub par_median_ns: f64,
}

impl SpeedupPair {
    /// Median-over-median speedup of the `_par` variant.
    pub fn speedup(&self) -> f64 {
        if self.par_median_ns > 0.0 {
            self.serial_median_ns / self.par_median_ns
        } else {
            0.0
        }
    }
}

fn field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parse the shim's report format: one `"name": { ... "median_ns": V
/// ... }` object per line. Lines that do not look like benchmark
/// entries (braces, blanks) are skipped; a malformed entry line is an
/// error naming the line.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchEntry>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if !t.contains("mean_ns") {
            continue;
        }
        let name = t
            .split('"')
            .nth(1)
            .ok_or_else(|| format!("unnamed benchmark entry: {t:?}"))?;
        let median_ns = field(t, "median_ns")
            .ok_or_else(|| format!("no median_ns in entry {name:?}"))?;
        let min_ns = field(t, "min_ns").unwrap_or(median_ns);
        out.push(BenchEntry {
            name: name.to_string(),
            median_ns,
            min_ns,
        });
    }
    Ok(out)
}

/// Pair every `X_serial` entry with its `X_par` twin.
pub fn engine_speedups(entries: &[BenchEntry]) -> Vec<SpeedupPair> {
    entries
        .iter()
        .filter_map(|serial| {
            let prefix = serial.name.strip_suffix("_serial")?;
            let par = entries.iter().find(|e| {
                e.name
                    .strip_suffix("_par")
                    .is_some_and(|p| p == prefix)
            })?;
            Some(SpeedupPair {
                name: prefix.to_string(),
                serial_median_ns: serial.median_ns,
                par_median_ns: par.median_ns,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "latency_matrix_build_2500_serial": {"mean_ns": 31000000.0, "median_ns": 30000000.0, "min_ns": 29000000.0, "samples": 10, "iters_per_sample": 9},
  "latency_matrix_build_2500_par": {"mean_ns": 11000000.0, "median_ns": 10000000.0, "min_ns": 9000000.0, "samples": 10, "iters_per_sample": 9},
  "run_queries_1000_serial": {"mean_ns": 2352348.1, "median_ns": 2368512.0, "min_ns": 2157025.7, "samples": 10, "iters_per_sample": 119},
  "meridian_fill_10k_hier": {"mean_ns": 1503.1, "median_ns": 1501.5, "min_ns": 1459.7, "samples": 10, "rejected": 0, "iters_per_sample": 192609}
}
"#;

    #[test]
    fn parses_the_shim_format() {
        let entries = parse_bench_json(FIXTURE).expect("parses");
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].name, "latency_matrix_build_2500_serial");
        assert_eq!(entries[0].median_ns, 30_000_000.0);
        assert_eq!(entries[3].name, "meridian_fill_10k_hier");
        assert_eq!(entries[3].min_ns, 1459.7);
    }

    #[test]
    fn pairs_serial_with_par_and_computes_speedup() {
        let entries = parse_bench_json(FIXTURE).expect("parses");
        let pairs = engine_speedups(&entries);
        // run_queries_1000 has no _par twin in the fixture: unpaired
        // entries are skipped, not errors.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].name, "latency_matrix_build_2500");
        assert!((pairs[0].speedup() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_entries_are_named_errors() {
        let err = parse_bench_json("\"broken\": {\"mean_ns\": oops}").unwrap_err();
        assert!(err.contains("broken"), "{err}");
        // A stray non-entry line is ignored, not an error.
        assert_eq!(parse_bench_json("{\n}\n").expect("ok").len(), 0);
    }
}
