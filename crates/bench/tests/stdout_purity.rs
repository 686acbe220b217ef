//! `--out json` stdout purity through `np-bench run` and `np-bench
//! serve`.
//!
//! A JSON consumer pipes stdout straight into a parser, so *everything*
//! diagnostic — progress chrome, figure-policy warnings, the
//! dense-unfittable-cell drop notice — must go to stderr. The riskiest
//! line is the ext_scale clamp warning: it fires from inside
//! `spec_files::run_one` *after* the sink mode is chosen, so a careless
//! `println!` there would corrupt every piped `--out json` ext_scale
//! run. Pin it: a spec that triggers the clamp must still emit
//! JSON-only stdout, with the warning on stderr.

use std::process::Command;

/// An ext_scale-named spec (so the catalogue's clamp hook and self-check
/// apply) with one cell the dense backend fits and one 15,000-peer cell
/// it must drop with a warning.
const CLAMPED_SPEC: &str = r#"
[experiment]
name = "ext_scale"
title = "clamp purity probe"
paper_shape = "n/a"
backend = "dense"
seeds = "single"
base_seed = 7
workload = "query"

[[cell]]
label = "96 peers"
base_seed = 7
targets = 4
queries = 10

[cell.world]
clusters = 4
en_per_cluster = 12
peers_per_en = 2
delta = 0.2
mean_hub_ms = [4.0, 6.0]
intra_en_us = 100
hub_pool = 4

[[cell.algo]]
name = "random"

[[cell]]
label = "15000 peers"
base_seed = 8
targets = 4
queries = 10

[cell.world]
clusters = 300
en_per_cluster = 25
peers_per_en = 2
delta = 0.2
mean_hub_ms = [4.0, 6.0]
intra_en_us = 100
hub_pool = 300

[[cell.algo]]
name = "random"
"#;

#[test]
fn clamp_warning_goes_to_stderr_and_json_stdout_stays_pure() {
    let dir = std::env::temp_dir().join("np_bench_stdout_purity_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("clamped.toml");
    std::fs::write(&path, CLAMPED_SPEC).expect("spec written");
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(["run", path.to_str().expect("utf-8"), "--out", "json", "--threads", "2"])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}\nstdout: {stdout}");
    // The oversized cell was dropped, and the notice went to stderr.
    assert!(
        stderr.contains("skipping") && stderr.contains("15000 peers"),
        "clamp warning missing from stderr: {stderr}"
    );
    assert!(
        !stdout.contains("skipping"),
        "clamp warning leaked into JSON stdout: {stdout}"
    );
    // Every stdout line is a JSON object — no banners, footers or
    // tables. (The shape is one record per cell row; the surviving
    // cell yields exactly one `random` row.)
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 1, "one surviving row, got: {stdout}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "non-JSON stdout line: {line}"
        );
        assert!(line.contains("\"spec\":\"ext_scale\""), "{line}");
        assert!(line.contains("\"cell\":\"96 peers\""), "{line}");
    }
    // On the hierarchical backend both cells run, and the self-check's
    // dense cross-check of the small one reports on stderr.
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(["run", path.to_str().expect("utf-8"), "--out", "json"])
        .args(["--threads", "2", "--world", "hierarchical"])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}\nstdout: {stdout}");
    assert!(
        stderr.contains("96 peers: dense cross-check identical ✓"),
        "cross-check verdict missing from stderr: {stderr}"
    );
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 2, "both cells ran, got: {stdout}");
    let json = |l: &&str| l.starts_with('{') && l.ends_with('}');
    assert!(lines.iter().all(json), "non-JSON stdout: {stdout}");
}

/// The same purity for a churn spec: the dynamic runner's extra
/// accounting must land inside the JSON records, not beside them.
#[test]
fn churn_json_rows_are_pure_and_carry_repair_accounting() {
    let spec = r#"
[experiment]
name = "churn-purity"
title = "churn json probe"
paper_shape = "n/a"
backend = "dense"
seeds = "single"
base_seed = 11
workload = "query"

[[cell]]
label = "c"
base_seed = 11
targets = 4
queries = 12

[cell.churn]
events_per_min = 10.0
duration_s = 60.0
drift_max_us = 1000
offline_frac = 0.1
loss = 0.05
retries = 2

[cell.world]
clusters = 4
en_per_cluster = 12
peers_per_en = 2
delta = 0.2
mean_hub_ms = [4.0, 6.0]
intra_en_us = 100
hub_pool = 4

[[cell.algo]]
name = "meridian"
"#;
    let dir = std::env::temp_dir().join("np_bench_stdout_purity_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("churn.toml");
    std::fs::write(&path, spec).expect("spec written");
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(["run", path.to_str().expect("utf-8"), "--out", "json"])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}\nstdout: {stdout}");
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 1, "one meridian row, got: {stdout}");
    assert!(lines[0].starts_with('{') && lines[0].ends_with('}'), "{stdout}");
    for key in ["churn_epochs", "churn_leaves", "full_rebuilds", "rings_replayed"] {
        assert!(lines[0].contains(&format!("\"{key}\":")), "missing {key}: {stdout}");
    }
}

/// The same purity for `np-bench serve`: the service-mode header, the
/// offered-load banner, the record notice and the timing footer are all
/// chrome — under `--out json` stdout must carry nothing but the
/// per-row JSON objects (which a load dashboard pipes into a parser).
#[test]
fn serve_json_stdout_stays_pure_and_carries_latency_quantiles() {
    let spec = r#"
[experiment]
name = "serve-purity"
title = "serve json probe"
paper_shape = "n/a"
backend = "dense"
seeds = "single"
base_seed = 21
workload = "query"

[[cell]]
label = "s"
base_seed = 21
targets = 4
queries = 12

[cell.world]
clusters = 4
en_per_cluster = 12
peers_per_en = 2
delta = 0.2
mean_hub_ms = [4.0, 6.0]
intra_en_us = 100
hub_pool = 4

[[cell.algo]]
name = "brute-force"

[[cell.algo]]
name = "random"
"#;
    let dir = std::env::temp_dir().join("np_bench_stdout_purity_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("serve.toml");
    let record = dir.join("serve_record.json");
    std::fs::write(&path, spec).expect("spec written");
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args([
            "serve",
            path.to_str().expect("utf-8"),
            "--out",
            "json",
            "--threads",
            "2",
            "--rate",
            "400",
            "--duration",
            "0.2",
            "--pacing",
            "replay",
            "--record",
            record.to_str().expect("utf-8"),
        ])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}\nstdout: {stdout}");
    // Chrome went to stderr...
    assert!(
        stderr.contains("offered load") && stderr.contains("recorded"),
        "serve chrome missing from stderr: {stderr}"
    );
    // ...and stdout is exactly one JSON object per (cell, algo) row.
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 2, "two algo rows, got: {stdout}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "non-JSON stdout line: {line}"
        );
        for key in [
            "throughput_qps",
            "total_p50_ns",
            "total_p99_ns",
            "total_p999_ns",
            "queued_p99_ns",
            "service_p99_ns",
            "verified",
        ] {
            assert!(line.contains(&format!("\"{key}\":")), "missing {key}: {line}");
        }
        assert!(line.contains("\"policy\":\"block\""), "{line}");
        assert!(line.contains("\"verified\":true"), "{line}");
    }
    // The --record artifact is the flat BENCH-style map.
    let recorded = std::fs::read_to_string(&record).expect("record written");
    assert!(recorded.trim_start().starts_with('{'), "{recorded}");
    assert!(
        recorded.contains("\"serve-purity/s/brute-force\"")
            && recorded.contains("\"serve-purity/s/random\""),
        "record keys missing: {recorded}"
    );
}

/// `--seed` reaches the served schedule: the Poisson arrivals and every
/// cell seed rebase on it, as they do for `np-bench run`.
#[test]
fn serve_honours_an_explicit_seed() {
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(["serve", "experiments/ext_serve.toml", "--quick"])
        .args(["--threads", "2", "--pacing", "replay"])
        .args(["--seed", "9", "--out", "json"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}\nstdout: {stdout}");
    assert!(stderr.contains("base seed: 0x9,"), "{stderr}");
    let meridian = stdout
        .lines()
        .find(|l| l.contains("\"algo\":\"meridian\""))
        .unwrap_or_else(|| panic!("no meridian row: {stdout}"));
    assert!(meridian.contains("\"offered\":293,"), "{meridian}");
    let p_closest = "\"p_correct_closest\":0.08873720136518772,";
    assert!(meridian.contains(p_closest), "{meridian}");
}

/// A serve run against a measurement study must be a clean diagnostic
/// (exit 2, stderr), never a panic backtrace.
#[test]
fn serve_rejects_study_specs_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(["serve", "experiments/fig5.toml", "--quick"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2), "usage-error exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("query-matrix"),
        "diagnostic names the problem: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no backtrace: {stderr}");
}
