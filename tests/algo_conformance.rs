//! Registry-wide conformance: every algorithm `np_bench::full_registry()`
//! knows — references, baselines, Meridian and its ablations, the hybrid
//! coverage sweep, and the structured-overlay searchers — must honour the
//! engine's contracts, by construction of the harness rather than one
//! hand-written test per name:
//!
//! 1. **Thread invariance** — same seed ⇒ bit-identical [`PaperMetrics`]
//!    at 1, 2, 4 and 8 threads (exact float equality; the registry's
//!    promise that `AlgoContext::threads` never affects results).
//! 2. **Backend invariance** — the dense matrix and the hierarchical
//!    store at one super-shard describe the same world, so metrics must
//!    agree bit-for-bit across backends; at two super-shards under a starved
//!    block cache the store approximates, but every name must still be
//!    thread-invariant and rerun-stable over it.
//! 3. **Probe accounting** — every algorithm pays for its answers
//!    (nonzero mean probes) and a rebuilt algorithm over a fresh build
//!    cache reproduces the run exactly (no hidden global state).
//! 4. **Degenerate worlds** — minimal §4 worlds (one end-network, one
//!    overlay member, single-peer clusters) must not panic, in the
//!    spirit of `crates/cluster/tests/degenerate_worlds.rs` for the
//!    measurement studies.
//!
//! A new `AlgoFactory` registered in `full_registry()` is covered here
//! automatically — that is the point.

use nearest_peer::prelude::*;
use np_bench::full_registry;
use np_core::experiment::{AlgoContext, BuildCache};
use np_core::{run_queries, PaperMetrics};
use np_metric::{HierarchicalWorld, WorldStore};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];
const QUERIES: usize = 40;

/// A small §4 world: 4 clusters × 10 end-networks × 2 peers = 80 peers,
/// 12 of them held out as targets. Big enough that an 8-thread run
/// splits the work and every ring/bucket/graph structure is non-trivial,
/// small enough that 23 algorithms × 4 thread counts stays CI-friendly.
fn world_spec() -> ClusterWorldSpec {
    ClusterWorldSpec {
        clusters: 4,
        en_per_cluster: 10,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: 6,
    }
}

fn dense(seed: u64) -> ClusterScenario {
    ClusterScenario::build(world_spec(), 12, seed, 2)
}

fn hierarchical(
    seed: u64,
    super_shards: usize,
    cache_budget_bytes: usize,
) -> ClusterScenario<HierarchicalWorld> {
    ClusterScenario::build_hierarchical(world_spec(), 12, seed, super_shards, cache_budget_bytes, 2)
}

/// Build `name` from the registry over `scenario` (fresh [`BuildCache`],
/// exactly like one experiment cell) and run the query batch.
fn run_algo<W: WorldStore>(
    scenario: &ClusterScenario<W>,
    name: &str,
    seed: u64,
    threads: usize,
    queries: usize,
) -> PaperMetrics {
    let registry = full_registry();
    let factory = registry.expect(name);
    let shared = BuildCache::new();
    let ctx = AlgoContext {
        store: &scenario.matrix,
        world: &scenario.world,
        overlay: &scenario.overlay,
        seed,
        threads,
        shared: &shared,
    };
    let algo = factory.build(&ctx);
    run_queries(algo.as_ref(), scenario, queries, seed, threads)
}

/// Contract 1: bit-identical metrics at any thread count, every name.
#[test]
fn every_registry_algo_is_thread_invariant() {
    let scenario = dense(1201);
    for name in full_registry().names() {
        let serial = run_algo(&scenario, name, 1201, 1, QUERIES);
        for threads in THREAD_COUNTS {
            let par = run_algo(&scenario, name, 1201, threads, QUERIES);
            // PaperMetrics derives PartialEq over raw f64 fields — this
            // is exact equality of every metric, including mean_stretch.
            assert_eq!(serial, par, "{name} diverged at {threads} threads");
        }
    }
}

/// Contract 2: dense and one-super-shard hierarchical backends agree
/// bit-for-bit, every name.
#[test]
fn every_registry_algo_is_backend_invariant() {
    let d = dense(1301);
    let h = hierarchical(1301, 1, usize::MAX);
    assert_eq!(d.overlay, h.overlay, "backends drew different splits");
    assert_eq!(d.targets, h.targets);
    for name in full_registry().names() {
        for threads in [1, 4] {
            assert_eq!(
                run_algo(&d, name, 1301, threads, QUERIES),
                run_algo(&h, name, 1301, threads, QUERIES),
                "{name} diverged across dense/hierarchical at {threads} threads"
            );
        }
    }
}

/// Contract 2b, registry-wide over the two-level store proper: at two
/// super-shards with a deliberately starved (1-byte) block cache, every
/// name must still be thread-invariant and rerun-stable — eviction and
/// lazy re-materialisation are timing, never results.
#[test]
fn every_registry_algo_is_stable_on_the_two_level_store() {
    let h = hierarchical(1501, 2, 1);
    for name in full_registry().names() {
        let serial = run_algo(&h, name, 1501, 1, QUERIES);
        assert_eq!(serial.queries, QUERIES, "{name} dropped queries");
        // Warm rerun over the same store: cache temperature must be
        // unobservable.
        let warm = run_algo(&h, name, 1501, 1, QUERIES);
        assert_eq!(serial, warm, "{name} leaked cache temperature");
        for threads in THREAD_COUNTS {
            let par = run_algo(&h, name, 1501, threads, QUERIES);
            assert_eq!(
                serial, par,
                "{name} diverged at {threads} threads on the two-level store"
            );
        }
    }
    assert!(
        h.matrix.cache_stats().evictions > 0,
        "a 1-byte budget must actually evict blocks"
    );
}

/// Contract 3: probes are counted (no free answers) and a rebuilt
/// algorithm over a fresh build cache reruns to identical metrics.
#[test]
fn every_registry_algo_counts_probes_and_reruns_stably() {
    let scenario = dense(1401);
    for name in full_registry().names() {
        let first = run_algo(&scenario, name, 1401, 2, QUERIES);
        assert!(
            first.mean_probes > 0.0,
            "{name} answered {QUERIES} queries without probing"
        );
        assert_eq!(first.queries, QUERIES, "{name} dropped queries");
        let again = run_algo(&scenario, name, 1401, 2, QUERIES);
        assert_eq!(first, again, "{name} is not rerun-stable");
    }
}

/// Contract 4: degenerate minimal worlds run to completion for every
/// name — a single overlay member, one end-network per cluster,
/// single-peer end-networks. Accuracy is meaningless here; the assert is
/// "returns, with sane counters", never a panic.
#[test]
fn every_registry_algo_survives_degenerate_minimal_worlds() {
    // (spec, n_targets): 2 peers with 1 held out leaves a 1-member
    // overlay; the 2×2×1 world leaves 3 members in 1-peer end-networks.
    let degenerate = [
        (
            ClusterWorldSpec {
                clusters: 1,
                en_per_cluster: 1,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 1,
            },
            1usize,
        ),
        (
            ClusterWorldSpec {
                clusters: 2,
                en_per_cluster: 2,
                peers_per_en: 1,
                delta: 0.0,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 2,
            },
            1usize,
        ),
    ];
    for (spec, n_targets) in degenerate {
        let scenario = ClusterScenario::build(spec, n_targets, 7, 2);
        let members = scenario.overlay.len();
        for name in full_registry().names() {
            for threads in [1, 2] {
                let m = run_algo(&scenario, name, 7, threads, 8);
                assert_eq!(
                    m.queries, 8,
                    "{name} lost queries on a {members}-member world"
                );
                assert!(
                    m.mean_probes > 0.0,
                    "{name} probed nothing on a {members}-member world"
                );
            }
        }
    }
}
