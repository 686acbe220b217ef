//! Golden-file regression for the Ext D ablation and Ext C hybrid
//! tables.
//!
//! `fixtures/ext_ablation_quick.txt` and `fixtures/ext_hybrid_quick.txt`
//! are the stdout of `np-bench run experiments/<fig>.toml --quick
//! --threads 2` on the dense backend, captured while both figures still
//! ran registry entries of their own for the Meridian baseline, the
//! gossip build and the full-coverage hybrid. Each row must reproduce
//! byte for byte (only the wall-clock footer is timing, not behaviour):
//! the β, management and build-mode variants share one Meridian ring
//! fill per fill configuration, and every coverage level wraps the same
//! fallback.

use std::process::Command;

fn normalize(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("wall-clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `np-bench run experiments/<spec>.toml --quick --threads 2`'s stdout;
/// a non-zero exit (a failed cell) fails the test.
fn run_quick(spec: &str) -> String {
    let spec_path = format!(
        "{}/../../experiments/{spec}.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let args = ["run", &spec_path, "--quick", "--threads", "2"];
    let out = Command::new(env!("CARGO_BIN_EXE_np-bench"))
        .args(args)
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
fn np_bench_run_ext_ablation_toml_matches_the_fixture() {
    assert_eq!(
        normalize(&run_quick("ext_ablation")),
        normalize(include_str!("fixtures/ext_ablation_quick.txt")),
        "np-bench run experiments/ext_ablation.toml --quick diverged from its fixture"
    );
}

#[test]
fn np_bench_run_ext_hybrid_toml_matches_the_fixture() {
    assert_eq!(
        normalize(&run_quick("ext_hybrid")),
        normalize(include_str!("fixtures/ext_hybrid_quick.txt")),
        "np-bench run experiments/ext_hybrid.toml --quick diverged from its fixture"
    );
}
