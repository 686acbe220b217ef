//! Criterion microbenches for the performance-critical primitives.
//!
//! These are *performance* benches (the scientific "benches" are the
//! `experiments/*.toml` figure specs). Sizes are chosen so the whole
//! suite completes in a few minutes on one core.

use criterion::{criterion_group, criterion_main, Criterion};
use np_core::ClusterScenario;
use np_meridian::{BuildMode, MeridianConfig, Overlay};
use np_metric::graph::{Graph, NodeId};
use np_metric::{PeerId, Target};
use np_topology::hub::MERIDIAN_MEDIAN_MS;
use np_topology::{ClusterWorld, ClusterWorldSpec, HubMatrix};
use np_util::parallel::available_threads;
use np_util::rng::rng_from;
use np_util::Micros;
use rand::Rng;

fn world_500() -> ClusterWorld {
    ClusterWorld::generate(
        ClusterWorldSpec {
            clusters: 10,
            en_per_cluster: 25,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 10,
        },
        7,
        available_threads(),
    )
}

fn bench_matrix_build(c: &mut Criterion) {
    let w = world_500();
    let threads = available_threads();
    c.bench_function("latency_matrix_build_500", |b| {
        b.iter(|| {
            let m = w.to_matrix(threads);
            criterion::black_box(m.len())
        })
    });
}

fn bench_meridian_build(c: &mut Criterion) {
    let w = world_500();
    let threads = available_threads();
    let m = w.to_matrix(threads);
    let members: Vec<PeerId> = w.peers().collect();
    c.bench_function("meridian_build_500", |b| {
        b.iter(|| {
            let o = Overlay::build(
                &m,
                members.clone(),
                MeridianConfig::default(),
                BuildMode::Omniscient,
                1,
                threads,
            );
            criterion::black_box(o.total_ring_entries())
        })
    });
}

fn bench_meridian_query(c: &mut Criterion) {
    let w = world_500();
    let m = w.to_matrix(available_threads());
    let members: Vec<PeerId> = w.peers().skip(10).collect();
    let overlay = Overlay::build(
        &m,
        members,
        MeridianConfig::default(),
        BuildMode::Omniscient,
        1,
        available_threads(),
    );
    c.bench_function("meridian_query", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let target = Target::new(PeerId(i % 10), &m);
            i += 1;
            let out = overlay.query_from(PeerId(100), &target);
            criterion::black_box(out.probes)
        })
    });
}

// The Ext F structured-overlay searchers: `kademlia_lookup_500` costs
// one iterative XOR-frontier lookup (k=8, alpha=3) over a 500-peer key
// ring — the per-query price of the `kademlia` registry entry —
// `nsw_build_500` costs the seeded greedy NSW graph construction
// (M=5) that the `nsw` factory amortises across a cell via the shared
// BuildCache, and `nsw_walk_500` costs one default multi-start query
// (3 walks) over that graph, the per-query price of the `nsw` entry.
// All three land in BENCH_parallel.json.

fn bench_kademlia_lookup(c: &mut Criterion) {
    use std::sync::Arc;
    let w = world_500();
    let m = w.to_matrix(available_threads());
    let members: Vec<PeerId> = w.peers().skip(10).collect();
    let ring = Arc::new(np_dht::KademliaRing::build(&members));
    let lookup = np_dht::KademliaLookup::new(ring, members, np_dht::KademliaConfig::default());
    c.bench_function("kademlia_lookup_500", |b| {
        use np_metric::NearestPeerAlgo;
        let mut rng = rng_from(9);
        let mut i = 0u32;
        b.iter(|| {
            let target = Target::new(PeerId(i % 10), &m);
            i += 1;
            criterion::black_box(lookup.find_nearest(&target, &mut rng).probes)
        })
    });
}

fn bench_nsw_build(c: &mut Criterion) {
    let w = world_500();
    let m = w.to_matrix(available_threads());
    let members: Vec<PeerId> = w.peers().collect();
    c.bench_function("nsw_build_500", |b| {
        b.iter(|| {
            let g = np_dht::NswGraph::build(&m, &members, 5, 7);
            criterion::black_box(g.edges())
        })
    });
}

fn bench_nsw_walk(c: &mut Criterion) {
    use std::sync::Arc;
    let w = world_500();
    let m = w.to_matrix(available_threads());
    let members: Vec<PeerId> = w.peers().collect();
    let graph = Arc::new(np_dht::NswGraph::build(&m, &members, 5, 7));
    let walk = np_dht::NswWalk::new(graph, np_dht::NswConfig::default());
    c.bench_function("nsw_walk_500", |b| {
        use np_metric::NearestPeerAlgo;
        let mut rng = rng_from(9);
        let mut i = 0u32;
        b.iter(|| {
            let target = Target::new(PeerId(i % 10), &m);
            i += 1;
            criterion::black_box(walk.find_nearest(&target, &mut rng).probes)
        })
    });
}

fn bench_dijkstra_local(c: &mut Criterion) {
    // A 10k-node random graph with local structure.
    let mut rng = rng_from(5);
    let n = 10_000u32;
    let mut g = Graph::with_nodes(n as usize);
    for i in 0..n {
        for _ in 0..3 {
            let j = (i + rng.gen_range(1..60)) % n;
            g.add_edge(NodeId(i), NodeId(j), Micros::from_ms(rng.gen_range(0.3..3.0)));
        }
    }
    c.bench_function("dijkstra_local_10ms_radius", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 97) % n;
            criterion::black_box(g.dijkstra_local(NodeId(i), Micros::from_ms_u64(10)).len())
        })
    });
}

fn bench_vivaldi(c: &mut Criterion) {
    let w = world_500();
    let m = w.to_matrix(available_threads());
    let members: Vec<PeerId> = w.peers().collect();
    c.bench_function("vivaldi_build_500_10rounds", |b| {
        b.iter(|| {
            let sys = np_coords::VivaldiSystem::build(
                &m,
                members.clone(),
                np_coords::vivaldi::VivaldiConfig {
                    rounds: 10,
                    ..Default::default()
                },
                1,
            );
            criterion::black_box(sys.mean_error_estimate())
        })
    });
}

fn bench_hypervolume(c: &mut Criterion) {
    let mut rng = rng_from(6);
    let n = 20usize;
    let pts: Vec<(f64, f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)))
        .collect();
    c.bench_function("ring_management_select_16_of_20", |b| {
        b.iter(|| {
            let dist = |i: usize, j: usize| {
                let (a, bb) = (pts[i], pts[j]);
                ((a.0 - bb.0).powi(2) + (a.1 - bb.1).powi(2) + (a.2 - bb.2).powi(2)).sqrt()
            };
            criterion::black_box(np_meridian::hypervolume::select_max_volume(n, 16, dist))
        })
    });
}

/// The selector on a ring of the paper's x = 125, δ = 0.2 world: node
/// 0 is offered every peer in id order, and the bench selects 16 of
/// its first ring holding k + l = 20 candidates. Clustered latencies
/// put this ring on the degenerate floor, which the random 3-D case
/// above never reaches.
fn bench_hypervolume_clustered(c: &mut Criterion) {
    use np_meridian::rings::{RingConfig, RingSet};
    let w = world_2500();
    let m = w.to_matrix(available_threads());
    let cfg = RingConfig::default();
    let mut rs = RingSet::new(PeerId(0), cfg);
    for q in w.peers() {
        rs.insert(q, m.rtt(PeerId(0), q));
    }
    // Candidate order as ring management sees it: the ring's
    // primaries, then its secondaries.
    let ring = (0..cfg.n_rings)
        .map(|r| {
            rs.primaries()
                .chain(rs.secondaries())
                .filter(|mm| cfg.ring_of(mm.rtt) == r)
                .map(|mm| mm.peer)
                .collect::<Vec<PeerId>>()
        })
        .find(|peers| peers.len() == cfg.k + cfg.l)
        .expect("the x = 125 world fills a ring");
    c.bench_function("ring_management_select_16_of_20_clustered", |b| {
        b.iter(|| {
            let dist = |i: usize, j: usize| m.rtt(ring[i], ring[j]).as_ms();
            criterion::black_box(np_meridian::hypervolume::select_max_volume(
                ring.len(),
                cfg.k,
                dist,
            ))
        })
    });
}

// --- serial vs parallel engine benches -------------------------------
//
// The pairs below record the parallel engine's speedup in-repo (the
// harness appends results to BENCH_parallel.json): the paper-scale
// 2,500-peer matrix build and a 1,000-query Meridian batch, serial vs
// all-cores. On a multi-core runner the `_par` variants should beat
// their `_serial` twins by ≥2x at 4 cores; on a 1-core machine they
// document engine overhead instead (expected ≈1x).

fn world_2500() -> ClusterWorld {
    ClusterWorld::generate(ClusterWorldSpec::paper(125, 0.2), 7, available_threads())
}

fn bench_matrix_build_2500_serial(c: &mut Criterion) {
    let w = world_2500();
    c.bench_function("latency_matrix_build_2500_serial", |b| {
        b.iter(|| criterion::black_box(w.to_matrix(1).len()))
    });
}

fn bench_matrix_build_2500_par(c: &mut Criterion) {
    let w = world_2500();
    let threads = available_threads();
    c.bench_function("latency_matrix_build_2500_par", |b| {
        b.iter(|| criterion::black_box(w.to_matrix(threads).len()))
    });
}

fn bench_run_queries_1000_serial(c: &mut Criterion) {
    let s = ClusterScenario::paper(125, 0.2, 7, available_threads());
    let overlay = Overlay::build(
        &s.matrix,
        s.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        7,
        available_threads(),
    );
    c.bench_function("run_queries_1000_serial", |b| {
        b.iter(|| {
            criterion::black_box(np_core::run_queries(&overlay, &s, 1_000, 7, 1).mean_probes)
        })
    });
}

fn bench_run_queries_1000_par(c: &mut Criterion) {
    let threads = available_threads();
    let s = ClusterScenario::paper(125, 0.2, 7, threads);
    let overlay = Overlay::build(
        &s.matrix,
        s.overlay.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        7,
        threads,
    );
    c.bench_function("run_queries_1000_par", |b| {
        b.iter(|| {
            criterion::black_box(
                np_core::run_queries(&overlay, &s, 1_000, 7, threads).mean_probes,
            )
        })
    });
}

// --- nearest-scan kernel benches ----------------------------------------
//
// `nearest_scan_2500_kernel` vs `_naive` records the SIMD-friendly
// chunks_exact kernel against the scalar lexicographic min it replaced,
// on a paper-scale 2,500-member row.

fn scan_fixture() -> (Vec<f32>, Vec<PeerId>) {
    let mut rng = rng_from(8);
    let n = 2_500usize;
    // Whole-µs distances like real matrix rows, with duplicates so the
    // tie-breaking path is exercised.
    let dists: Vec<f32> = (0..n).map(|_| rng.gen_range(0u32..200_000) as f32).collect();
    let members: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
    (dists, members)
}

fn bench_nearest_scan_kernel(c: &mut Criterion) {
    let (dists, members) = scan_fixture();
    c.bench_function("nearest_scan_2500_kernel", |b| {
        b.iter(|| criterion::black_box(np_metric::scan::nearest_in(&dists, &members)))
    });
}

fn bench_nearest_scan_naive(c: &mut Criterion) {
    let (dists, members) = scan_fixture();
    c.bench_function("nearest_scan_2500_naive", |b| {
        b.iter(|| {
            criterion::black_box(
                dists
                    .iter()
                    .zip(&members)
                    .filter(|(d, _)| d.is_finite())
                    .map(|(&d, &p)| (d, p))
                    .min_by(|a, b| a.partial_cmp(b).expect("NaN-free"))
                    .map(|(_, p)| p),
            )
        })
    });
}

/// 200 clusters × 25 ENs × 2 peers = 10k peers.
fn world_10k() -> ClusterWorld {
    ClusterWorld::generate(
        ClusterWorldSpec {
            clusters: 200,
            en_per_cluster: 25,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 200,
        },
        7,
        available_threads(),
    )
}

// The Meridian ring fill at 10k peers (200 shards) over the exact
// one-super-shard configuration of the hierarchical store, with every
// block allowed to stay resident: the build that makes fig8-style
// curves affordable past the dense wall, and the size at which the
// O(n²) fill (every member offered to every node) is already the
// dominant cost. CI records it.
fn bench_meridian_fill_10k_hier(c: &mut Criterion) {
    let w = world_10k();
    let store = w.to_hierarchical(1, usize::MAX);
    let members: Vec<PeerId> = w.peers().collect();
    let threads = available_threads();
    c.bench_function("meridian_fill_10k_hier", |b| {
        b.iter(|| {
            let o = Overlay::build(
                &store,
                members.clone(),
                MeridianConfig::default(),
                BuildMode::Omniscient,
                1,
                threads,
            );
            criterion::black_box(o.total_ring_entries())
        })
    });
}

// --- hierarchical (two-level) backend benches --------------------------
//
// `hierarchical_build_200k` records the structural build of the
// two-level store at 200k peers (2,000 shards grouped under ~45
// super-hubs): shard grouping, medoid scans and both summary levels —
// everything *except* the lazily materialised blocks, which is the
// point (an eager build at this size would fill 2,000 dense blocks up
// front). The cache pair records the per-lookup price of an
// intra-shard RTT when the shard's block is resident
// (`hierarchical_block_cache_hit`) versus when a 1-byte budget forces
// an evict-and-rematerialise round trip on every alternation
// (`hierarchical_block_cache_miss`). `brute_force_hier_200k` records
// 1,000 brute-force queries through `run_queries` on the same 200k
// world: each is charged 199,900 probes but answered by the
// shard-grouped `NearestIndex` (the truth cache is built once, during
// warm-up).

/// 2,000 clusters × 50 ENs × 2 peers = 200k peers.
fn spec_200k() -> ClusterWorldSpec {
    ClusterWorldSpec {
        clusters: 2_000,
        en_per_cluster: 50,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: 2_000,
    }
}

fn bench_hierarchical_build_200k(c: &mut Criterion) {
    let w = ClusterWorld::generate(spec_200k(), 7, available_threads());
    c.bench_function("hierarchical_build_200k", |b| {
        b.iter(|| {
            use np_metric::WorldStore;
            criterion::black_box(w.to_hierarchical(45, 256 << 20).len())
        })
    });
}

/// The 2,500-hub matrix of the `scale_hier` world and ext_scale's
/// 200k/1M-peer cells, on all cores: sites and the median are serial,
/// the row fill splits across workers.
fn bench_hub_matrix_2500(c: &mut Criterion) {
    let threads = available_threads();
    c.bench_function("hub_matrix_2500", |b| {
        b.iter(|| {
            criterion::black_box(HubMatrix::synthetic(2_500, MERIDIAN_MEDIAN_MS, 7, threads).len())
        })
    });
}

fn bench_brute_force_hier_200k(c: &mut Criterion) {
    let threads = available_threads();
    c.bench_function("brute_force_hier_200k", |b| {
        // Built inside the closure, so a filtered-out run skips it.
        let s = ClusterScenario::build_hierarchical(spec_200k(), 100, 7, 45, 256 << 20, threads);
        let algo = np_metric::nearest::BruteForce::new(&s.matrix, s.overlay.clone());
        b.iter(|| {
            criterion::black_box(
                np_core::run_queries(&algo, &s, 1_000, 7, threads).mean_probes,
            )
        })
    });
}

fn bench_hierarchical_block_cache_hit(c: &mut Criterion) {
    use np_metric::WorldStore;
    let w = world_10k();
    let h = w.to_hierarchical(14, 256 << 20);
    // Warm shard 0's block once; every iteration after is a pure hit.
    criterion::black_box(h.rtt(PeerId(0), PeerId(1)));
    c.bench_function("hierarchical_block_cache_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 49;
            criterion::black_box(h.rtt(PeerId(i), PeerId(i + 1)))
        })
    });
}

fn bench_hierarchical_block_cache_miss(c: &mut Criterion) {
    use np_metric::WorldStore;
    let w = world_10k();
    // A 1-byte budget keeps at most one block resident, so alternating
    // intra-shard lookups between two shards miss (evict + refill) on
    // every single iteration.
    let h = w.to_hierarchical(14, 1);
    c.bench_function("hierarchical_block_cache_miss", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let base = if flip { 0 } else { 50 }; // shard 0 vs shard 1
            criterion::black_box(h.rtt(PeerId(base), PeerId(base + 1)))
        })
    });
}

// --- experiment-pipeline microbench -----------------------------------
//
// The declarative layer end to end: spec construction, registry lookup,
// scenario build (500-peer world), Meridian factory build and a
// 100-query batch. Records what "one small experiment cell" costs so
// regressions in the pipeline's overhead (cache, context plumbing,
// report assembly) show up in BENCH_parallel.json.

fn bench_experiment_pipeline(c: &mut Criterion) {
    use np_core::experiment::{AlgoSpec, Backend, CellSpec, Experiment, ExperimentSpec, SeedPlan};
    let registry = np_bench::full_registry();
    let threads = available_threads();
    c.bench_function("experiment_pipeline_100q", |b| {
        b.iter(|| {
            let spec = ExperimentSpec::query(
                "bench",
                "pipeline microbench",
                "n/a",
                Backend::Dense,
                SeedPlan::Single,
                vec![CellSpec {
                    label: "500 peers".into(),
                    world: ClusterWorldSpec {
                        clusters: 10,
                        en_per_cluster: 25,
                        peers_per_en: 2,
                        delta: 0.2,
                        mean_hub_ms: (4.0, 6.0),
                        intra_en: Micros::from_us(100),
                        hub_pool: 10,
                    },
                    n_targets: 20,
                    base_seed: 7,
                    queries: 100,
                    quick_queries: None,
                    in_quick: true,
                    churn: None,
                    super_shards: None,
                    block_cache_mb: None,
                    algos: vec![AlgoSpec::new("meridian")],
                }],
            );
            let report = Experiment::new(spec, &registry).run(threads);
            criterion::black_box(report.query_cells().expect("query spec")[0].rows[0].single().mean_probes)
        })
    });
}

// --- serving-pipeline microbench ---------------------------------------
//
// The np-serve pipeline end to end: 10,000 pre-drawn queries replayed
// flat-out through one ingest queue into 4 workers over a 500-peer
// world (Meridian routing). Records what the daemon's machinery — one
// bounded-queue hop per query, per-worker latency histograms, the slot
// fill and the ordered reduction — costs on top of the raw query work,
// so queue regressions show up in BENCH_parallel.json as
// `serve_pipeline_10k`.

fn bench_serve_pipeline_10k(c: &mut Criterion) {
    use np_metric::NearestCache;
    use np_serve::{run_schedule, ArrivalSchedule, Pacing, ServeConfig, ServeCtx};
    let w = world_500();
    let m = w.to_matrix(available_threads());
    let targets: Vec<PeerId> = w.peers().take(20).collect();
    let members: Vec<PeerId> = w.peers().skip(20).collect();
    let overlay = Overlay::build(
        &m,
        members.clone(),
        MeridianConfig::default(),
        BuildMode::Omniscient,
        7,
        available_threads(),
    );
    let truth = NearestCache::build(&m, &members, &targets, 1);
    let n = 10_000;
    let schedule = ArrivalSchedule {
        offsets_ns: vec![0; n],
        targets: np_core::draw_target_schedule(&targets, n, 7),
    };
    let ctx = ServeCtx {
        store: &m,
        world: &w,
        truth: &truth,
        seed: 7,
    };
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    c.bench_function("serve_pipeline_10k", |b| {
        b.iter(|| {
            let report = run_schedule(&ctx, &overlay, &cfg, &schedule, Pacing::Replay);
            assert_eq!(report.stats.completed, n as u64);
            criterion::black_box(report.metrics.mean_probes)
        })
    });
}

/// The full `np-lint` pass over this workspace's own sources: walk,
/// lex, rule passes, aggregation. Tracks the cost of the CI gate (and
/// of the lexer — by far the hot loop) as the codebase grows.
fn bench_np_lint_workspace(c: &mut Criterion) {
    let root = np_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench runs from inside the workspace");
    c.bench_function("np_lint_workspace", |b| {
        b.iter(|| {
            let report = np_lint::lint_workspace(&root).expect("workspace walk");
            assert!(report.is_clean());
            criterion::black_box(report.files)
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

/// Config for benches whose single iteration runs for seconds (the
/// 10k-peer overlay fill): a couple of samples document the number
/// without monopolising the CI bench step.
fn heavy_config() -> Criterion {
    Criterion::default()
        .sample_size(2)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_matrix_build, bench_meridian_build, bench_meridian_query,
              bench_kademlia_lookup, bench_nsw_build, bench_nsw_walk,
              bench_dijkstra_local, bench_vivaldi, bench_hypervolume, bench_hypervolume_clustered,
              bench_matrix_build_2500_serial, bench_matrix_build_2500_par,
              bench_run_queries_1000_serial, bench_run_queries_1000_par,
              bench_nearest_scan_kernel, bench_nearest_scan_naive,
              bench_experiment_pipeline,
              bench_serve_pipeline_10k,
              bench_hierarchical_block_cache_hit, bench_hierarchical_block_cache_miss,
              bench_brute_force_hier_200k, bench_np_lint_workspace
}
criterion_group! {
    name = heavy_benches;
    config = heavy_config();
    targets = bench_meridian_fill_10k_hier, bench_hierarchical_build_200k,
              bench_hub_matrix_2500
}
criterion_main!(benches, heavy_benches);
