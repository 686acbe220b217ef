//! The benchmark's own checks, at tiny sizes: every workload emits
//! every named metric with its unit, the traced run measures the
//! layers each workload exercises, a wrong "brute force" trips the
//! correctness gate, the digest is a function of the seed, the metric
//! catalogue matches `BENCHMARK.json`, and bad flags exit 2.

use np_benchmark::metrics::{per_layer, END_TO_END};
use np_benchmark::workloads::{Size, Workload};
use np_benchmark::{report, run, Opts, Outcome};
use np_core::experiment::{AlgoContext, AlgoFactory, RandomChoiceFactory};
use np_metric::NearestPeerAlgo;
use std::process::Command;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

fn catalogue(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .1
}

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    let registry = np_bench::full_registry();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, 5, trace), &registry);
            assert!(
                out.correct(),
                "{workload:?} trace={trace}: {:?}",
                out.failures
            );
            let emitted: Vec<(String, &str)> = out
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), *u))
                .collect();
            assert_eq!(emitted, catalogue(trace), "{workload:?} trace={trace}");
            let line = report::result_line(&out);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in catalogue(trace) {
                let field = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&field)
                    .unwrap_or_else(|| panic!("{name} missing: {line}"));
                let rest = &line[at + field.len()..];
                let object = &rest[..rest.find('}').expect("metric object closes")];
                assert!(
                    object.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name}: {object}"
                );
            }
            if !trace {
                for (name, v, _) in &out.metrics {
                    assert!(*v > 0.0, "{workload:?}: end-to-end {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn traced_runs_measure_the_layers_each_workload_exercises() {
    let registry = np_bench::full_registry();
    let paper = run(&tiny(Workload::PaperBatch, 5, true), &registry);
    for name in [
        "scenario.build_s",
        "scenario.store_mib",
        "meridian.build_s",
        "meridian.query_s",
        "meridian.probes_per_query",
        "meridian.hops_per_query",
        "kademlia.build_s",
        "kademlia.query_s",
        "kademlia.probes_per_query",
        "nsw.build_s",
        "nsw.query_s",
        "nsw.probes_per_query",
        "brute-force.query_s",
        "brute-force.probes_per_query",
        "trace.coverage",
    ] {
        assert!(value(&paper, name) > 0.0, "paper_batch {name}");
    }
    assert_eq!(
        value(&paper, "cache.misses"),
        0.0,
        "the dense store has no block cache"
    );
    assert_eq!(
        value(&paper, "serve.capacity_qps.meridian"),
        0.0,
        "batches serve nothing"
    );

    let scale = run(&tiny(Workload::ScaleHier, 5, true), &registry);
    for name in [
        "truth.build_s",
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "cache.hit_ratio",
    ] {
        assert!(value(&scale, name) > 0.0, "scale_hier {name}");
    }
    assert_eq!(
        value(&scale, "meridian.build_s"),
        0.0,
        "no Meridian at scale"
    );

    let served = run(&tiny(Workload::ServeOpenLoop, 5, true), &registry);
    for algo in ["meridian", "brute-force"] {
        for m in [
            "serve.total_p50_us",
            "serve.total_p99_us",
            "serve.capacity_qps",
            "serve.service_p50_us",
            "serve.mean_batch",
        ] {
            assert!(value(&served, &format!("{m}.{algo}")) > 0.0, "{m}.{algo}");
        }
        assert_eq!(
            value(&served, &format!("serve.shed.{algo}")),
            0.0,
            "block admission"
        );
    }
}

/// Answers like `random` under the brute-force name.
struct WrongBruteForce;

impl AlgoFactory for WrongBruteForce {
    fn name(&self) -> &str {
        "brute-force"
    }

    fn build<'a>(&self, ctx: &AlgoContext<'a>) -> Box<dyn NearestPeerAlgo + 'a> {
        RandomChoiceFactory.build(ctx)
    }
}

#[test]
fn a_wrong_brute_force_trips_the_gate_on_every_workload() {
    let mut registry = np_bench::full_registry();
    registry.register(Box::new(WrongBruteForce));
    for workload in Workload::ALL {
        let out = run(&tiny(workload, 5, false), &registry);
        assert!(!out.correct(), "{workload:?} passed a random brute force");
        assert!(out.failed_frac() > 0.0);
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("brute-force is not exact")),
            "{workload:?}: {:?}",
            out.failures
        );
        assert!(report::result_line(&out).starts_with("{\"correct\": false"));
    }
}

#[test]
fn the_digest_is_a_function_of_the_seed() {
    let registry = np_bench::full_registry();
    let digest = |seed| run(&tiny(Workload::PaperBatch, seed, false), &registry).reps[0].digest;
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    let all: Vec<_> = catalogue(false)
        .into_iter()
        .chain(catalogue(true))
        .collect();
    for (name, unit) in &all {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        text.matches("\"unit\": ").count(),
        all.len(),
        "a metric nothing emits"
    );
}

#[test]
fn bad_flags_exit_2_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_np-benchmark");
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "paper_batch"],
        &["--workload", "paper_batch", "--seed", "1", "--trace", "2"],
        &["--workload", "paper_batch", "--seed", "-1"],
        &["--workload", "paper_batch", "--seed", "1", "--seconds"],
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("the benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
