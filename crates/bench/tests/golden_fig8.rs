//! Golden-file regression for the Experiment API swap.
//!
//! `fixtures/fig8_quick.txt` is the committed stdout of the
//! **pre-redesign** fig8 binary (hand-rolled scenario/sweep loops) at
//! `--quick --threads 2`, captured immediately after the parallel
//! omniscient ring fill landed. The redesigned binary — a declarative
//! `ExperimentSpec` through the `AlgoFactory` registry and the generic
//! `Experiment` pipeline — must reproduce it byte for byte: same
//! header, same table digits, same charts, same ordering.
//!
//! Only the wall-clock footer is excluded (it is timing, not
//! behaviour). Everything else, including every metric digit, must
//! match — which proves the API redesign is behaviour-preserving, not
//! merely similar.

//! The same fixture pins the **shard-local Meridian fill**: `fig8
//! --quick --threads 2 --world hierarchical --super-shards 1` runs the
//! exact one-super-shard store, where the `MeridianFactory` routes the
//! omniscient fill through `Overlay::build_shard_local`, and its stdout
//! must equal the dense fixture modulo the backend chrome — the
//! compressed store and the shard-local fill change nothing but the
//! build cost.

use std::process::Command;

fn normalize(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("wall-clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Drop backend chrome and collapse blank runs: what must be invariant
/// across latency backends on §4 worlds.
fn normalize_backend(s: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    for l in s.lines() {
        if l.starts_with("wall-clock") || l.starts_with("backend:") {
            continue;
        }
        if l.is_empty() && out.last().is_some_and(|p| p.is_empty()) {
            continue;
        }
        out.push(l);
    }
    out.join("\n")
}

#[test]
fn fig8_quick_matches_pre_redesign_fixture() {
    let fixture = include_str!("fixtures/fig8_quick.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_fig8"))
        .args(["--quick", "--threads", "2"])
        .output()
        .expect("fig8 binary runs");
    assert!(
        out.status.success(),
        "fig8 exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("fig8 output is UTF-8");
    assert_eq!(
        normalize(&stdout),
        normalize(fixture),
        "fig8 --quick output diverged from the pre-redesign fixture"
    );
}

#[test]
fn np_bench_run_fig8_toml_matches_the_fixture() {
    // The serialised-spec path end to end: `np-bench run
    // experiments/fig8.toml --quick` must reproduce the same bytes the
    // fig8 binary produces (modulo the wall-clock footer) — the TOML
    // file, the loader, the seed handling and the catalogue-resolved
    // renderer are all on the line here.
    let fixture = include_str!("fixtures/fig8_quick.txt");
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments/fig8.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(["run", spec_path, "--quick", "--threads", "2"])
        .output()
        .expect("np-bench binary runs");
    assert!(
        out.status.success(),
        "np-bench run exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    assert_eq!(
        normalize(&stdout),
        normalize(fixture),
        "np-bench run experiments/fig8.toml --quick diverged from the fig8 fixture"
    );
}

#[test]
fn fig8_one_super_shard_pins_the_shard_local_fill() {
    let fixture = include_str!("fixtures/fig8_quick.txt");
    let args = [
        "--quick",
        "--threads",
        "2",
        "--world",
        "hierarchical",
        "--super-shards",
        "1",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_fig8"))
        .args(args)
        .output()
        .expect("fig8 binary runs");
    assert!(
        out.status.success(),
        "fig8 {args:?} exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("fig8 output is UTF-8");
    assert!(
        stdout.contains("\nbackend: hierarchical"),
        "fig8 {args:?} did not run on the hierarchical backend"
    );
    // On §4 worlds the one-super-shard store is exact and the
    // shard-local fill is ring-identical to the omniscient one, so
    // every metric digit equals the dense run's.
    assert_eq!(
        normalize_backend(&stdout),
        normalize_backend(fixture),
        "fig8 {args:?} diverged from the dense fixture beyond backend chrome"
    );
}
