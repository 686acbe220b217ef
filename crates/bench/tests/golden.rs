//! Golden-file regressions: `np-bench run experiments/<spec>.toml
//! --quick --threads 2` must reproduce a committed stdout byte for byte
//! (only the wall-clock footer is timing, not behaviour).
//!
//! * `fixtures/fig8_quick.txt` is the stdout of the fig8 run from
//!   before the declarative `ExperimentSpec` redesign (hand-rolled
//!   scenario/sweep loops), captured right after the parallel
//!   omniscient ring fill landed. The TOML file, the loader, the seed
//!   handling, the `AlgoFactory` registry and the catalogue-resolved
//!   renderer must give the same header, table digits, charts and
//!   ordering.
//! * `fixtures/ext_dht_quick.txt` pins the Ext F searchers, captured
//!   when Kademlia and NSW landed: accuracy, stretch, probe and hop
//!   means for both families and their parameter variants, so the XOR
//!   frontier, the NSW insertion order, the per-query RNG streams and
//!   the `mean_stretch` reduction.
//! * `fixtures/ext_ablation_quick.txt` and `fixtures/ext_hybrid_quick.txt`
//!   were captured while both figures still ran registry entries of
//!   their own for the Meridian baseline, the gossip build and the
//!   full-coverage hybrid: the β, management and build-mode variants
//!   share one Meridian ring fill per fill configuration, and every
//!   coverage level wraps the same fallback.
//! * `fixtures/ext_churn_quick.txt` pins the Ext E churn rows, captured
//!   while the churn rows of a cell still shared one event script and
//!   one set of per-epoch build caches: each row's own schedule, caches
//!   and dynamic wrapper must give the same accuracy, event counts and
//!   repair costs.
//!
//! fig8, ext_dht and ext_churn also run at `--world hierarchical
//! --super-shards 1`: on §4 worlds that one-level store is exact, so the
//! ring fill and the searchers read the dense RTTs and every metric
//! digit must equal the dense fixture's, modulo the backend chrome.

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

/// `np-bench run experiments/<spec>.toml --quick --threads 2 <extra>`'s
/// stdout; a non-zero exit (a failed cell or self-check) fails the test.
fn run_quick(spec: &str, extra: &[&str]) -> String {
    let spec_path = format!(
        "{}/../../experiments/{spec}.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut args = vec!["run", &spec_path, "--quick", "--threads", "2"];
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

const ONE_SUPER_SHARD: [&str; 4] = ["--world", "hierarchical", "--super-shards", "1"];

/// The spec's dense run equals its fixture.
fn assert_matches_fixture(spec: &str, fixture: &str) {
    assert_eq!(
        normalize(&run_quick(spec, &[])),
        normalize(fixture),
        "np-bench run experiments/{spec}.toml --quick diverged from its fixture"
    );
}

/// The spec's one-super-shard run equals the dense fixture beyond the
/// backend chrome.
fn assert_one_super_shard_matches_fixture(spec: &str, fixture: &str) {
    let stdout = run_quick(spec, &ONE_SUPER_SHARD);
    assert!(
        stdout.contains("\nbackend: hierarchical"),
        "{spec} {ONE_SUPER_SHARD:?} did not run on the hierarchical backend"
    );
    assert_eq!(
        normalize_backend(&stdout),
        normalize_backend(fixture),
        "{spec} {ONE_SUPER_SHARD:?} diverged from the dense fixture beyond backend chrome"
    );
}

#[test]
fn np_bench_run_fig8_toml_matches_the_fixture() {
    assert_matches_fixture("fig8", include_str!("fixtures/fig8_quick.txt"));
}

#[test]
fn fig8_one_super_shard_matches_the_dense_fixture() {
    assert_one_super_shard_matches_fixture("fig8", include_str!("fixtures/fig8_quick.txt"));
}

#[test]
fn np_bench_run_ext_dht_toml_matches_the_fixture() {
    assert_matches_fixture("ext_dht", include_str!("fixtures/ext_dht_quick.txt"));
}

#[test]
fn ext_dht_one_super_shard_equals_dense_modulo_chrome() {
    assert_one_super_shard_matches_fixture("ext_dht", include_str!("fixtures/ext_dht_quick.txt"));
}

#[test]
fn np_bench_run_ext_ablation_toml_matches_the_fixture() {
    assert_matches_fixture(
        "ext_ablation",
        include_str!("fixtures/ext_ablation_quick.txt"),
    );
}

#[test]
fn np_bench_run_ext_hybrid_toml_matches_the_fixture() {
    assert_matches_fixture("ext_hybrid", include_str!("fixtures/ext_hybrid_quick.txt"));
}

#[test]
fn np_bench_run_ext_churn_toml_matches_the_fixture() {
    assert_matches_fixture("ext_churn", include_str!("fixtures/ext_churn_quick.txt"));
}

#[test]
fn ext_churn_one_super_shard_matches_the_dense_fixture() {
    assert_one_super_shard_matches_fixture(
        "ext_churn",
        include_str!("fixtures/ext_churn_quick.txt"),
    );
}
