//! Golden-file regression for Figure 8.
//!
//! `fixtures/fig8_quick.txt` is the committed stdout of the
//! **pre-redesign** fig8 run (hand-rolled scenario/sweep loops) at
//! `--quick --threads 2`, captured immediately after the parallel
//! omniscient ring fill landed. `np-bench run experiments/fig8.toml` —
//! a declarative `ExperimentSpec` loaded from TOML, through the
//! `AlgoFactory` registry and the generic `Experiment` pipeline — must
//! reproduce it byte for byte: same header, same table digits, same
//! charts, same ordering.
//!
//! Only the wall-clock footer is excluded (it is timing, not
//! behaviour). Everything else, including every metric digit, must
//! match — which proves the API redesign is behaviour-preserving, not
//! merely similar.
//!
//! The same fixture pins the **shard-local Meridian fill**: with
//! `--world hierarchical --super-shards 1` the run uses the exact
//! one-super-shard store, where the `MeridianFactory` routes the
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

/// `np-bench run experiments/fig8.toml --quick --threads 2 <extra>`'s
/// stdout; a non-zero exit fails the test.
fn run_fig8(extra: &[&str]) -> String {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments/fig8.toml");
    let mut args = vec!["run", spec_path, "--quick", "--threads", "2"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(&args)
        .output()
        .expect("np-bench binary runs");
    assert!(
        out.status.success(),
        "np-bench {args:?} exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

#[test]
fn np_bench_run_fig8_toml_matches_the_fixture() {
    // The serialised-spec path end to end: the TOML file, the loader,
    // the seed handling and the catalogue-resolved renderer are all on
    // the line here.
    let fixture = include_str!("fixtures/fig8_quick.txt");
    assert_eq!(
        normalize(&run_fig8(&[])),
        normalize(fixture),
        "np-bench run experiments/fig8.toml --quick diverged from the fig8 fixture"
    );
}

#[test]
fn fig8_one_super_shard_pins_the_shard_local_fill() {
    let fixture = include_str!("fixtures/fig8_quick.txt");
    let args = ["--world", "hierarchical", "--super-shards", "1"];
    let stdout = run_fig8(&args);
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
