//! Golden-file regression for the Ext F structured-overlay searchers.
//!
//! `fixtures/ext_dht_quick.txt` is the committed stdout of `ext_dht
//! --quick --threads 2` on the dense backend, captured when the
//! Kademlia/NSW searchers landed. Every table digit — accuracy,
//! stretch, probe and hop means for both searcher families and their
//! parameter variants — must reproduce byte for byte (only the
//! wall-clock footer is timing, not behaviour). The XOR frontier, the
//! NSW insertion order, the per-query RNG streams and the new
//! `mean_stretch` reduction are all pinned here.

use std::process::Command;

fn normalize(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("wall-clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Drop backend chrome and collapse blank runs: what must be invariant
/// across latency backends on §4 worlds (same filter as the fig8
/// golden test).
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

fn run_ext_dht(extra: &[&str]) -> String {
    let mut args = vec!["--quick", "--threads", "2"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_ext_dht"))
        .args(&args)
        .output()
        .expect("ext_dht binary runs");
    assert!(
        out.status.success(),
        "ext_dht {args:?} exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("ext_dht output is UTF-8")
}

#[test]
fn ext_dht_quick_matches_the_fixture() {
    let fixture = include_str!("fixtures/ext_dht_quick.txt");
    assert_eq!(
        normalize(&run_ext_dht(&[])),
        normalize(fixture),
        "ext_dht --quick output diverged from the committed fixture"
    );
}

#[test]
fn np_bench_run_ext_dht_toml_matches_the_fixture() {
    // The serialised-spec path: `np-bench run experiments/ext_dht.toml
    // --quick` resolves `kademlia`/`nsw` and the variant names from the
    // full registry and must reproduce the binary's bytes.
    let fixture = include_str!("fixtures/ext_dht_quick.txt");
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments/ext_dht.toml");
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
        "np-bench run experiments/ext_dht.toml --quick diverged from the ext_dht fixture"
    );
}

#[test]
fn ext_dht_one_super_shard_equals_dense_modulo_chrome() {
    // Backend invariance at the stdout level: the exact one-super-shard
    // run may differ in its backend banner, but every metric digit must
    // equal the dense fixture's — the searchers see the same world
    // through either store.
    let dense = include_str!("fixtures/ext_dht_quick.txt");
    let hier = run_ext_dht(&["--world", "hierarchical", "--super-shards", "1"]);
    assert!(
        hier.contains("\nbackend: hierarchical"),
        "not run on the hierarchical backend"
    );
    assert_eq!(
        normalize_backend(&hier),
        normalize_backend(dense),
        "one-super-shard ext_dht diverged from the dense fixture beyond backend chrome"
    );
}
