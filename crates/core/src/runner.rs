//! The experiment runner: queries → paper metrics → multi-run bands.
//!
//! Restructured as a batch-parallel map-reduce (the paper's §4
//! experiments are embarrassingly parallel):
//!
//! 1. the **target schedule** — which target each query hits — is drawn
//!    up front from a dedicated master RNG stream, so the schedule is a
//!    pure function of the seed (note: *not* the same sequence the old
//!    interleaved serial loop produced — there the algorithm's own
//!    draws advanced the shared stream between target choices);
//! 2. each query runs with its own RNG derived from
//!    `(seed, query index)` via [`np_util::parallel::item_seed`], so no
//!    query observes another's draws;
//! 3. per-query records are reduced **in query order**, so float
//!    accumulation never depends on scheduling.
//!
//! Together these give the engine's determinism contract: same seed ⇒
//! bit-identical [`PaperMetrics`] at any thread count (covered by
//! `tests/parallel_determinism.rs`).

use crate::scenario::ClusterScenario;
use np_metric::{NearestCache, NearestPeerAlgo, PeerId, Target, WorldStore};
use np_util::parallel::{item_seed, par_map, resolve_threads};
use np_util::rng::{rng_for, rng_from, sub_seed, three_runs};
use np_util::stats::{median_micros, RunBand};
use np_util::Micros;
use rand::seq::SliceRandom;

/// Seed tag of the master RNG drawing the target schedule. The
/// schedule depends only on `(seed, this tag, n_queries)` — never on
/// the algorithm under test or the thread count.
pub(crate) const RUN_TAG: u64 = 0x52_554E; // "RUN"
/// Seed tag for per-query RNG streams (start-peer choice, tie breaks).
pub(crate) const QUERY_TAG: u64 = 0x51_5259; // "QRY"

/// The metrics the paper reports for a batch of queries (Figures 8, 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperMetrics {
    /// P(found peer is the correct closest overlay member).
    pub p_correct_closest: f64,
    /// P(found peer lies in the target's cluster).
    pub p_correct_cluster: f64,
    /// P(found peer shares the target's end-network) — usually equal to
    /// `p_correct_closest` since the partner is the true nearest.
    pub p_same_en: f64,
    /// Median latency from the found peer('s end-network) to its
    /// cluster-hub, over queries where the found peer was *not* the
    /// correct closest (Figure 9's second axis), in ms. 0 when every
    /// query succeeded.
    pub median_hub_latency_wrong_ms: f64,
    /// Mean latency stretch of the answer: RTT(found → target) divided
    /// by RTT(true nearest → target), averaged over queries where both
    /// RTTs are finite and the truth is nonzero (blackout fallbacks and
    /// degenerate zero-latency truths contribute nothing). 1.0 means
    /// every answer was at the optimal latency, even if it was not the
    /// literal nearest peer.
    pub mean_stretch: f64,
    /// Mean probes to the target per query.
    pub mean_probes: f64,
    /// Mean overlay hops per query.
    pub mean_hops: f64,
    /// Number of queries aggregated.
    pub queries: usize,
}

/// What one query contributes to the reduction. Kept tiny so the
/// parallel map's per-item traffic is a few words. Shared with the
/// churn runner (`crate::churn`) and the serving pipeline (`np-serve`)
/// so batch, dynamic, and served queries all reduce through the exact
/// same code.
#[derive(Debug, Clone, Copy)]
pub struct QueryRecord {
    pub exact: bool,
    pub cluster_hit: bool,
    pub same_en: bool,
    /// Hub latency of the found peer when the query was wrong.
    pub wrong_hub_lat: Option<Micros>,
    /// RTT(found)/RTT(true nearest) when both are finite and the truth
    /// is nonzero; `None` excludes the query from the stretch mean.
    pub stretch: Option<f64>,
    pub probes: u64,
    pub hops: u32,
}

/// Build one query's record from its outcome. `exact` is the caller's
/// correctness verdict (it depends on which world — static or drifted —
/// the query ran against); the topology verdicts come from the cluster
/// world's metadata.
#[allow(clippy::too_many_arguments)]
pub fn query_record(
    world: &np_topology::ClusterWorld,
    found: PeerId,
    target: PeerId,
    exact: bool,
    found_rtt: Micros,
    true_rtt: Micros,
    probes: u64,
    hops: u32,
) -> QueryRecord {
    let stretch = (!found_rtt.is_infinite() && !true_rtt.is_infinite() && true_rtt > Micros::ZERO)
        .then(|| found_rtt.as_us() as f64 / true_rtt.as_us() as f64);
    QueryRecord {
        exact,
        cluster_hit: world.same_cluster(found, target),
        same_en: world.same_en(found, target),
        wrong_hub_lat: (!exact).then(|| world.hub_latency(found)),
        stretch,
        probes,
        hops,
    }
}

/// Ordered associative reduction of per-query records into the paper's
/// metrics (counts and integer sums commute; the median's input vector
/// is in query order, so float accumulation never depends on
/// scheduling).
pub fn reduce_records(records: &[QueryRecord], n_queries: usize) -> PaperMetrics {
    let mut correct = 0usize;
    let mut cluster_hits = 0usize;
    let mut same_en = 0usize;
    let mut wrong_hub_lat = Vec::new();
    let mut stretch_sum = 0.0f64;
    let mut stretch_n = 0usize;
    let mut probes = 0u64;
    let mut hops = 0u64;
    for r in records {
        if r.exact {
            correct += 1;
        }
        if let Some(lat) = r.wrong_hub_lat {
            wrong_hub_lat.push(lat);
        }
        if let Some(s) = r.stretch {
            stretch_sum += s;
            stretch_n += 1;
        }
        if r.cluster_hit {
            cluster_hits += 1;
        }
        if r.same_en {
            same_en += 1;
        }
        probes += r.probes;
        hops += u64::from(r.hops);
    }
    let n = n_queries as f64;
    PaperMetrics {
        p_correct_closest: correct as f64 / n,
        p_correct_cluster: cluster_hits as f64 / n,
        p_same_en: same_en as f64 / n,
        median_hub_latency_wrong_ms: median_micros(&wrong_hub_lat)
            .map(|m| m.as_ms())
            .unwrap_or(0.0),
        mean_stretch: if stretch_n == 0 {
            0.0
        } else {
            stretch_sum / stretch_n as f64
        },
        mean_probes: probes as f64 / n,
        mean_hops: hops as f64 / n,
        queries: n_queries,
    }
}

/// Draw the target schedule for a batch of `n_queries` queries: which
/// target each query hits, drawn up front from the dedicated master
/// stream (`RUN_TAG`). The schedule is a pure function of
/// `(targets, n_queries, seed)` — never of the algorithm under test,
/// the thread count, or (for the serving pipeline) the arrival times —
/// which is exactly what lets the service path reproduce the batch
/// path's answers bit-for-bit.
pub fn draw_target_schedule(targets: &[PeerId], n_queries: usize, seed: u64) -> Vec<PeerId> {
    assert!(!targets.is_empty(), "no targets");
    let mut master = rng_for(seed, RUN_TAG);
    (0..n_queries)
        .map(|_| *targets.choose(&mut master).expect("non-empty"))
        .collect()
}

/// One answered query: the peer the algorithm returned plus its
/// contribution to the metrics reduction. What the serving pipeline's
/// collector accumulates per query.
#[derive(Debug, Clone, Copy)]
pub struct AnsweredQuery {
    /// The peer the algorithm nominated as nearest.
    pub found: PeerId,
    pub record: QueryRecord,
}

/// Answer the `idx`-th query of a batch: run `algo` for `target` under
/// the query's own RNG stream (`(seed, QUERY_TAG, idx)`) and grade the
/// outcome against `truth`. This is the one query path shared by the
/// batch runner and the `np-serve` pipeline — a served query is
/// bit-identical to a batch query because it *is* the same code, keyed
/// only by `(idx, target, seed)`.
pub fn run_one_query(
    algo: &dyn NearestPeerAlgo,
    store: &dyn WorldStore,
    world: &np_topology::ClusterWorld,
    truth: &NearestCache,
    idx: usize,
    target: PeerId,
    seed: u64,
) -> AnsweredQuery {
    let mut rng = rng_from(item_seed(seed, QUERY_TAG, idx as u64));
    let t = Target::new(target, store);
    let out = algo.find_nearest(&t, &mut rng);
    let nearest = truth.nearest(target).expect("target is cached");
    // "Correct" = found the true closest member, or at least a member
    // at exactly the true-closest RTT (equidistant ties are as good).
    let found_rtt = store.rtt(out.found, target);
    let true_rtt = store.rtt(nearest, target);
    let exact = out.found == nearest || found_rtt == true_rtt;
    AnsweredQuery {
        found: out.found,
        record: query_record(
            world, out.found, target, exact, found_rtt, true_rtt, out.probes, out.hops,
        ),
    }
}

/// Run `n_queries` queries of `algo` against random targets of the
/// scenario (targets are reused, as in the paper), on the ambient
/// thread count ([`resolve_threads`] with no explicit override — i.e.
/// `$NP_THREADS` or all cores).
///
/// Results are independent of the thread count; see the module docs.
pub fn run_queries<W: WorldStore>(
    algo: &dyn NearestPeerAlgo,
    scenario: &ClusterScenario<W>,
    n_queries: usize,
    seed: u64,
) -> PaperMetrics {
    run_queries_threads(algo, scenario, n_queries, seed, resolve_threads(None))
}

/// [`run_queries`] with an explicit worker count. Generic over the
/// scenario's latency backend — the query loop reads RTTs only through
/// [`WorldStore`], so dense and hierarchical scenarios share this one
/// path.
pub fn run_queries_threads<W: WorldStore>(
    algo: &dyn NearestPeerAlgo,
    scenario: &ClusterScenario<W>,
    n_queries: usize,
    seed: u64,
    threads: usize,
) -> PaperMetrics {
    // Phase 1: the target schedule, from its own master stream.
    // Drawing it up front (rather than inside the query loop) is what
    // frees every query to own an independent RNG stream.
    let schedule = draw_target_schedule(&scenario.targets, n_queries, seed);
    // Phase 2: ground truth for all targets — computed in parallel on
    // first use, then shared by every batch over this scenario.
    let truth = scenario.nearest_cache(threads);
    // Phase 3: the queries themselves — the hot loop, one call to the
    // shared per-query path per schedule slot.
    let records = par_map(threads, &schedule, |idx, &t| {
        run_one_query(algo, &scenario.matrix, &scenario.world, truth, idx, t, seed).record
    });
    // Phase 4: ordered associative reduction.
    reduce_records(&records, n_queries)
}

/// Per-metric median/min/max over the paper's three runs.
#[derive(Debug, Clone, Copy)]
pub struct RunBandMetrics {
    pub p_correct_closest: RunBand,
    pub p_correct_cluster: RunBand,
    pub median_hub_latency_wrong_ms: RunBand,
    pub mean_stretch: RunBand,
    pub mean_probes: RunBand,
    pub mean_hops: RunBand,
}

impl RunBandMetrics {
    /// Aggregate per-run metrics into bands.
    pub fn of(runs: &[PaperMetrics]) -> RunBandMetrics {
        let take = |f: fn(&PaperMetrics) -> f64| -> RunBand {
            let v: Vec<f64> = runs.iter().map(f).collect();
            RunBand::of(&v)
        };
        RunBandMetrics {
            p_correct_closest: take(|m| m.p_correct_closest),
            p_correct_cluster: take(|m| m.p_correct_cluster),
            median_hub_latency_wrong_ms: take(|m| m.median_hub_latency_wrong_ms),
            mean_stretch: take(|m| m.mean_stretch),
            mean_probes: take(|m| m.mean_probes),
            mean_hops: take(|m| m.mean_hops),
        }
    }
}

/// Run the paper's three-seed sweep for one configuration.
/// `build_and_run` maps a seed to that run's metrics; it builds its own
/// world/overlay so the runs use "different inter-peer latency
/// datasets" exactly as the paper does. Runs execute in parallel (one
/// worker per seed, up to the ambient thread count).
pub fn sweep_three_runs(
    base_seed: u64,
    build_and_run: impl Fn(u64) -> PaperMetrics + Sync,
) -> RunBandMetrics {
    sweep_runs(&three_runs(base_seed), build_and_run)
}

/// [`sweep_three_runs`] with an explicit worker count for the
/// outer per-seed parallelism (figure runs pass `--threads`
/// here as well as to the inner query batches).
pub fn sweep_three_runs_threads(
    base_seed: u64,
    threads: usize,
    build_and_run: impl Fn(u64) -> PaperMetrics + Sync,
) -> RunBandMetrics {
    sweep_runs_threads(&three_runs(base_seed), threads, build_and_run)
}

/// Multi-seed sweep: one run per seed, in parallel, aggregated into
/// median/min/max bands. Generalises [`sweep_three_runs`] to arbitrary
/// seed sets (confidence bands tighten with more seeds; the paper used
/// three).
///
/// Each run's seed is derived with the historical `0x52_4E` ("RN") tag,
/// so a sweep over `three_runs(base)` reproduces the same per-run seeds
/// the workspace has always used.
pub fn sweep_runs(
    seeds: &[u64],
    build_and_run: impl Fn(u64) -> PaperMetrics + Sync,
) -> RunBandMetrics {
    sweep_runs_threads(seeds, resolve_threads(None), build_and_run)
}

/// [`sweep_runs`] with an explicit worker count. Note the worst-case
/// concurrency when `build_and_run` itself calls
/// [`run_queries_threads`] is `threads * threads` (outer runs × inner
/// query workers); the engine tolerates that oversubscription — workers
/// are compute-bound and the OS time-slices fairly — and determinism is
/// unaffected.
pub fn sweep_runs_threads(
    seeds: &[u64],
    threads: usize,
    build_and_run: impl Fn(u64) -> PaperMetrics + Sync,
) -> RunBandMetrics {
    assert!(!seeds.is_empty(), "empty seed sweep");
    let runs = par_map(threads.min(seeds.len()), seeds, |_, &seed| {
        build_and_run(sub_seed(seed, 0x52_4E))
    });
    RunBandMetrics::of(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_metric::nearest::{BruteForce, RandomChoice};
    use np_topology::ClusterWorldSpec;
    use np_util::Micros;

    fn small_scenario(seed: u64) -> ClusterScenario {
        ClusterScenario::build(
            ClusterWorldSpec {
                clusters: 4,
                en_per_cluster: 8,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 5,
            },
            8,
            seed,
        )
    }

    #[test]
    fn brute_force_is_perfect() {
        let s = small_scenario(1);
        let algo = BruteForce::new(&s.matrix, s.overlay.clone());
        let m = run_queries(&algo, &s, 50, 2);
        assert_eq!(m.p_correct_closest, 1.0);
        assert_eq!(m.mean_stretch, 1.0, "exact answers have unit stretch");
        assert_eq!(m.queries, 50);
        assert!(m.mean_probes >= (s.overlay.len() - 1) as f64);
        assert_eq!(m.mean_hops, 0.0);
    }

    /// Brute force as a per-member probe loop: one `try_probe_from`
    /// per member, keeping the smallest `(rtt, id)`. The reference
    /// `BruteForce`'s index-backed answer is held to.
    struct ProbeEachMember(Vec<PeerId>);

    impl NearestPeerAlgo for ProbeEachMember {
        fn name(&self) -> &str {
            "probe-each-member"
        }
        fn members(&self) -> &[PeerId] {
            &self.0
        }
        fn find_nearest(
            &self,
            target: &Target<'_>,
            _rng: &mut rand::rngs::StdRng,
        ) -> np_metric::QueryOutcome {
            let mut best: Option<(Micros, PeerId)> = None;
            for &m in &self.0 {
                if m == target.id() {
                    continue;
                }
                let Some(d) = target.try_probe_from(m) else {
                    continue;
                };
                if best.is_none_or(|b| (d, m) < b) {
                    best = Some((d, m));
                }
            }
            let (rtt_to_target, found) = best.expect("a member answered");
            np_metric::QueryOutcome {
                found,
                rtt_to_target,
                probes: target.probes(),
                hops: 0,
            }
        }
    }

    #[test]
    fn brute_force_equals_the_per_member_probe_loop() {
        let spec = ClusterWorldSpec {
            clusters: 9,
            en_per_cluster: 6,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: 9,
        };
        let hier = ClusterScenario::build_hierarchical(spec.clone(), 12, 4, 3, 0);
        let dense = ClusterScenario::build(spec, 12, 4);
        assert_eq!(hier.overlay, dense.overlay, "one split, two backends");
        let hier_store: &dyn WorldStore = &hier.matrix;
        let hier_bf = BruteForce::new(hier_store, hier.overlay.clone());
        let dense_bf = BruteForce::new(&dense.matrix, dense.overlay.clone());
        let runs = [
            (
                run_queries_threads(&hier_bf, &hier, 400, 8, 2),
                run_queries_threads(&ProbeEachMember(hier.overlay.clone()), &hier, 400, 8, 2),
            ),
            (
                run_queries_threads(&dense_bf, &dense, 400, 8, 2),
                run_queries_threads(&ProbeEachMember(dense.overlay.clone()), &dense, 400, 8, 2),
            ),
        ];
        for (indexed, looped) in runs {
            assert_eq!(indexed, looped);
            assert_eq!(indexed.mean_probes.to_bits(), looped.mean_probes.to_bits());
            assert_eq!(indexed.mean_probes, hier.overlay.len() as f64);
            assert_eq!(indexed.p_correct_closest, 1.0);
        }
    }

    #[test]
    fn random_choice_is_poor_but_counted() {
        let s = small_scenario(3);
        let algo = RandomChoice::new(&s.matrix, s.overlay.clone());
        let m = run_queries(&algo, &s, 200, 4);
        assert!(m.p_correct_closest < 0.3, "random too lucky: {m:?}");
        assert!(m.p_correct_cluster > 0.05, "some cluster hits expected");
        assert!(m.median_hub_latency_wrong_ms > 0.0);
        assert!(m.mean_stretch > 1.0, "wrong answers stretch: {m:?}");
        assert!((m.mean_probes - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn metrics_are_deterministic() {
        let s = small_scenario(5);
        let algo = RandomChoice::new(&s.matrix, s.overlay.clone());
        let a = run_queries(&algo, &s, 100, 7);
        let b = run_queries(&algo, &s, 100, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_metrics() {
        let s = small_scenario(6);
        let algo = RandomChoice::new(&s.matrix, s.overlay.clone());
        let serial = run_queries_threads(&algo, &s, 150, 9, 1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, run_queries_threads(&algo, &s, 150, 9, threads));
        }
    }

    #[test]
    fn three_run_sweep_bands() {
        let bands = sweep_three_runs(11, |seed| {
            let s = small_scenario(seed);
            let algo = BruteForce::new(&s.matrix, s.overlay.clone());
            run_queries(&algo, &s, 20, seed)
        });
        assert_eq!(bands.p_correct_closest.median, 1.0);
        assert!(bands.p_correct_closest.min <= bands.p_correct_closest.max);
    }

    #[test]
    fn sweep_runs_matches_three_runs_on_same_seeds() {
        let f = |seed: u64| {
            let s = small_scenario(seed);
            let algo = RandomChoice::new(&s.matrix, s.overlay.clone());
            run_queries(&algo, &s, 30, seed)
        };
        let a = sweep_three_runs(21, f);
        let b = sweep_runs(&three_runs(21), f);
        assert_eq!(a.p_correct_closest, b.p_correct_closest);
        assert_eq!(a.mean_probes, b.mean_probes);
    }
}
