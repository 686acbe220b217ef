//! `--threads` bounds the whole run, the world build included.
//!
//! The library takes its worker count as an argument everywhere, so
//! `np-bench` reads `$NP_THREADS` only in `Args::threads`, and an
//! explicit `--threads` never consults it. A bogus `NP_THREADS` in the
//! child's environment must therefore go unread — no "ignoring invalid
//! NP_THREADS" warning — on both backends and through `np-bench serve`.

use std::process::Command;

/// One 96-peer dense cell (4 clusters × 12 end-networks × 2 peers).
const SPEC: &str = r#"
[experiment]
name = "threads-probe"
title = "threads flag probe"
paper_shape = "n/a"
backend = "dense"
seeds = "single"
base_seed = 5
workload = "query"

[[cell]]
label = "96 peers"
base_seed = 5
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
name = "brute-force"
"#;

#[test]
fn explicit_threads_never_reads_np_threads() {
    let dir = std::env::temp_dir().join("np_bench_threads_flag_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("threads.toml");
    std::fs::write(&path, SPEC).expect("spec written");
    let spec = path.to_str().expect("utf-8");
    let runs: [&[&str]; 3] = [
        &["run", spec, "--threads", "1"],
        &["run", spec, "--threads", "1", "--world", "hierarchical"],
        &[
            "serve", spec, "--threads", "1", "--workers", "1", "--pacing", "replay",
            "--duration", "0.05",
        ],
    ];
    for args in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
            .args(args)
            .env("NP_THREADS", "bogus")
            .output()
            .expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "np-bench {args:?} failed: {stderr}");
        assert!(
            !stderr.contains("NP_THREADS"),
            "np-bench {args:?} read NP_THREADS despite --threads: {stderr}"
        );
    }
}
