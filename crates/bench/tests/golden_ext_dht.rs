//! Golden-file regression for the Ext F structured-overlay searchers.
//!
//! `fixtures/ext_dht_quick.txt` is the committed stdout of the ext_dht
//! figure at `--quick --threads 2` on the dense backend, captured when
//! the Kademlia/NSW searchers landed. `np-bench run
//! experiments/ext_dht.toml` must reproduce every table digit —
//! accuracy, stretch, probe and hop means for both searcher families
//! and their parameter variants — byte for byte (only the wall-clock
//! footer is timing, not behaviour). The XOR frontier, the
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

/// `np-bench run experiments/ext_dht.toml --quick --threads 2
/// <extra>`'s stdout; a non-zero exit (a failed cell or self-check)
/// fails the test.
fn run_ext_dht(extra: &[&str]) -> String {
    let spec_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../experiments/ext_dht.toml"
    );
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
fn np_bench_run_ext_dht_toml_matches_the_fixture() {
    // The serialised-spec path resolves `kademlia`/`nsw` and the
    // variant names from the full registry.
    let fixture = include_str!("fixtures/ext_dht_quick.txt");
    assert_eq!(
        normalize(&run_ext_dht(&[])),
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
