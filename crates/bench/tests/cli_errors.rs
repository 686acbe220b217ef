//! Malformed flags must exit 2 with the error and usage on stderr — a
//! diagnostic, not a panic backtrace — on every `np-bench` subcommand
//! (the library-level messages are unit-tested in `np_bench::cli`).

use std::process::Command;

/// A checked-in spec file, by name.
fn spec(name: &str) -> String {
    format!("{}/../../experiments/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// The backend names a diagnostic's catalogue lists, in order (the
/// indented lines after "backends:").
fn catalogue(stderr: &str) -> Vec<&str> {
    let rest = stderr.split_once("backends:").map_or("", |(_, r)| r);
    let lines = rest.lines().skip(1);
    lines
        .map_while(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect()
}

fn assert_usage_error(bin: &str, args: &[&str], expect_msg: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(expect_msg), "{bin} stderr missing {expect_msg:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} stderr missing usage line: {stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "{bin} printed a panic backtrace: {stderr}"
    );
}

#[test]
fn fig8_malformed_flags_exit_2_with_usage() {
    let bin = env!("CARGO_BIN_EXE_np-bench");
    let fig8 = spec("fig8.toml");
    let run_fig8 = |flags: &[&'static str]| [&["run", fig8.as_str()][..], flags].concat();
    let banana = run_fig8(&["--seed", "banana"]);
    assert_usage_error(bin, &banana, "--seed must be a u64");
    assert_usage_error(bin, &run_fig8(&["--threads"]), "--threads requires a value");
    // A worker count above the cap fails before any thread starts.
    let too_many = run_fig8(&["--threads", "1025"]);
    assert_usage_error(bin, &too_many, "--threads must be at most 1024");
    // An unknown backend exits 2 with the catalogue and, when a name
    // is close, a nearest-name hint — the unknown-algorithm shape.
    let cubic = run_fig8(&["--world", "cubic"]);
    let (_, stderr) = run(bin, &cubic);
    assert!(stderr.contains("no world backend \"cubic\""), "{stderr}");
    assert!(stderr.contains("hierarchical"), "catalogue missing: {stderr}");
    assert_usage_error(bin, &cubic, "--world: no world backend");
    let typo = run_fig8(&["--world", "hierarchcal"]);
    assert_usage_error(bin, &typo, "did you mean \"hierarchical\"?");
    // The retired one-level store's name is no alias: exit 2 with the
    // catalogue of exactly the live backends.
    let sharded = run_fig8(&["--world", "sharded"]);
    assert_usage_error(bin, &sharded, "no world backend \"sharded\"");
    let (_, stderr) = run(bin, &sharded);
    assert_eq!(catalogue(&stderr), ["dense", "hierarchical"], "{stderr}");
    // A misspelt flag, the retired --shards, a retired study flag
    // (--show-tree, --chord) or the retired --csv is an error naming
    // the flag — never silently ignored after a full paper-scale run.
    assert_usage_error(bin, &run_fig8(&["--qiuck"]), "unknown flag \"--qiuck\"");
    let shards = run_fig8(&["--shards", "8"]);
    assert_usage_error(bin, &shards, "unknown flag \"--shards\"");
    for flag in ["--show-tree", "--chord", "--csv"] {
        assert_usage_error(bin, &run_fig8(&[flag]), &format!("unknown flag {flag:?}"));
    }
}

#[test]
fn ext_scale_malformed_flags_exit_2_with_usage() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_np-bench"),
        &["run", &spec("ext_scale.toml"), "--seeds", "0"],
        "--seeds must be at least 1",
    );
}

#[test]
fn all_figures_validates_flags_before_any_member_runs() {
    // One usage error up front — no member banner, no failing member.
    let bin = env!("CARGO_BIN_EXE_np-bench");
    let args = ["run", &spec("all_figures.toml"), "--out", "xml"];
    assert_usage_error(bin, &args, "--out must be");
    let stdout = Command::new(bin)
        .args(args)
        .output()
        .expect("spawns")
        .stdout;
    assert!(
        stdout.is_empty(),
        "a member ran: {}",
        String::from_utf8_lossy(&stdout)
    );
}

/// Exit 2 with a diagnostic containing `expect_msg` and no backtrace
/// (usage line not required: these are input errors, not flag errors).
fn assert_input_error(bin: &str, args: &[&str], expect_msg: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(expect_msg), "{bin} stderr missing {expect_msg:?}: {stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "{bin} printed a panic backtrace: {stderr}"
    );
}

fn write_spec(name: &str, content: &str) -> String {
    let dir = std::env::temp_dir().join("np_bench_run_error_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("spec written");
    path.to_str().expect("utf-8 path").to_string()
}

/// A well-formed tiny query spec the tests then corrupt.
const TINY_SPEC: &str = r#"
[experiment]
name = "tiny"
title = "tiny"
paper_shape = "n/a"
backend = "dense"
seeds = "single"
base_seed = 7
workload = "query"

[[cell]]
label = "c"
base_seed = 7
targets = 4
queries = 10

[cell.world]
clusters = 2
en_per_cluster = 4
peers_per_en = 2
delta = 0.2
mean_hub_ms = [4.0, 6.0]
intra_en_us = 100
hub_pool = 2

[[cell.algo]]
name = "random"
"#;

#[test]
fn np_bench_run_rejects_malformed_specs_with_named_diagnostics() {
    let bin = env!("CARGO_BIN_EXE_np-bench");
    // Missing file.
    assert_input_error(bin, &["run", "/nonexistent/nope.toml"], "cannot read");
    // No path at all is a usage error.
    assert_usage_error(bin, &["run", "--quick"], "run requires a spec file path");
    // TOML syntax error names the line.
    let bad = write_spec("syntax.toml", "[experiment\nname = \"x\"");
    assert_input_error(bin, &["run", &bad], "TOML line 1");
    // A typo'd key names the full path and the valid keys.
    let bad = write_spec("typo.toml", &TINY_SPEC.replace("targets = 4", "targest = 4"));
    assert_input_error(bin, &["run", &bad], "unknown key `cell[0].targest`");
    // A degenerate world names the offending key.
    let bad = write_spec("degen.toml", &TINY_SPEC.replace("clusters = 2", "clusters = 0"));
    assert_input_error(bin, &["run", &bad], "cell[0].world.clusters");
    let bad = write_spec("swallow.toml", &TINY_SPEC.replace("targets = 4", "targets = 99"));
    assert_input_error(bin, &["run", &bad], "overlay must be non-empty");
    // The retired backend name is a typed spec error with the live
    // catalogue.
    let bad = write_spec(
        "retired.toml",
        &TINY_SPEC.replace("backend = \"dense\"", "backend = \"sharded\""),
    );
    assert_input_error(bin, &["run", &bad], "key `experiment.backend`");
    let (_, stderr) = run(bin, &["run", &bad]);
    assert_eq!(catalogue(&stderr), ["dense", "hierarchical"], "{stderr}");
    // A study spec whose stage nothing registers.
    let study = "[experiment]\nname = \"mystery\"\ntitle = \"t\"\npaper_shape = \"p\"\n\
                 backend = \"dense\"\nseeds = \"single\"\nbase_seed = 1\nworkload = \"study\"\n";
    let bad = write_spec("study.toml", study);
    assert_input_error(bin, &["run", &bad], "no study named \"mystery\"");
    // The retired study-flag key is an unknown key, not a passthrough.
    let bad = write_spec(
        "flags.toml",
        &TINY_SPEC.replace("workload = \"query\"", "workload = \"query\"\nflags = [\"--x\"]"),
    );
    assert_input_error(bin, &["run", &bad], "unknown key `experiment.flags`");
}

#[test]
fn np_bench_run_unknown_algorithm_exits_2_with_hint() {
    let bin = env!("CARGO_BIN_EXE_np-bench");
    let spec = write_spec("algos.toml", TINY_SPEC);
    // A typo in the spec file itself…
    let misspelt = write_spec("misspelt.toml", &TINY_SPEC.replace("\"random\"", "\"randmo\""));
    assert_input_error(bin, &["run", &misspelt], "did you mean \"random\"?");
    // …and via the --algos override; both list the catalogue.
    let (code, stderr) = run(bin, &["run", &spec, "--algos", "meridain"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("no algorithm \"meridain\""), "{stderr}");
    assert!(stderr.contains("did you mean \"meridian\"?"), "{stderr}");
    assert!(stderr.contains("registered"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn np_bench_run_catalogue_keeps_going_past_a_broken_member() {
    // One member with an unknown algorithm, one healthy member: the
    // healthy one must still run, the summary must name the broken
    // one, and the exit is 1 (run failure), not 2 (usage).
    let bin = env!("CARGO_BIN_EXE_np-bench");
    write_spec("cat_ok.toml", TINY_SPEC);
    write_spec(
        "cat_bad.toml",
        &TINY_SPEC
            .replace("name = \"tiny\"", "name = \"tiny-bad\"")
            .replace("\"random\"", "\"randmo\""),
    );
    let manifest = write_spec(
        "cat.toml",
        "[catalogue]\nname = \"cat\"\nspecs = [\"cat_bad.toml\", \"cat_ok.toml\"]\n",
    );
    let out = Command::new(bin)
        .args(["run", &manifest, "--threads", "2"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(1), "one failed member = exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stderr.contains("did you mean \"random\"?"), "{stderr}");
    assert!(stderr.contains("FAILED: [\"cat_bad.toml\"]"), "{stderr}");
    assert!(stdout.contains("tiny"), "healthy member still ran: {stdout}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn np_bench_run_executes_a_tiny_spec() {
    // The happy path end to end on a world small enough for a test:
    // loads, resolves, runs, renders the generic table.
    let bin = env!("CARGO_BIN_EXE_np-bench");
    let spec = write_spec("ok.toml", TINY_SPEC);
    let out = Command::new(bin)
        .args(["run", &spec, "--threads", "2", "--algos", "random,brute-force"])
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("random"), "{stdout}");
    assert!(stdout.contains("brute-force"), "{stdout}");
}

#[test]
fn np_bench_unknown_subcommand_exits_2() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_np-bench"), &["frobnicate"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn np_bench_speedup_reports_and_gates() {
    let json = r#"{
  "x_serial": {"mean_ns": 40.0, "median_ns": 40.0, "min_ns": 40.0, "samples": 3, "iters_per_sample": 1},
  "x_par": {"mean_ns": 10.0, "median_ns": 10.0, "min_ns": 10.0, "samples": 3, "iters_per_sample": 1}
}
"#;
    let dir = std::env::temp_dir().join("np_bench_speedup_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.json");
    std::fs::write(&path, json).expect("fixture written");
    let bin = env!("CARGO_BIN_EXE_np-bench");
    let path_s = path.to_str().expect("utf-8 path");
    // 4x speedup passes a 2x gate...
    let out = Command::new(bin)
        .args(["speedup", "--min", "2.0", "--json", path_s])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4.00x"), "{stdout}");
    assert!(stdout.contains("speedup gate passed"), "{stdout}");
    // ...and fails a 5x gate with exit 1 (a measurement failure, not a
    // usage error).
    let out = Command::new(bin)
        .args(["speedup", "--min", "5.0", "--json", path_s])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("below the required"), "{stderr}");
}
