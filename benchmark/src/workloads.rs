//! The three workloads and one repetition of each.
//!
//! A repetition drives the layers from outside, through their public
//! calls, in the order `Experiment::run_cell` uses for one seed:
//! `ScenarioHandle::build`, then the truth scan
//! (`ScenarioHandle::nearest_cache`, called up front so no timed batch
//! pays for it), then for each algorithm `AlgoFactory::build` followed
//! by `ScenarioHandle::run_queries` — or, on the serving workload,
//! `np_serve::serve` phases driven by the benchmark's own closures.

use crate::calib::{reference_s, NOMINAL_S};
use crate::metrics::{median, process_cpu_s, MIB};
use crate::trace::{now, secs_since, self_times, Tracer};
use np_core::experiment::{
    AlgoContext, AlgoRegistry, Backend, BuildCache, CellSpec, ScenarioHandle,
};
use np_core::{PaperMetrics, SeedPlan};
use np_serve::{serve, Admission, ArrivalSchedule, ServeConfig, ServeCtx, ServeHandle};
use np_topology::ClusterWorldSpec;
use np_util::parallel::busy_time;
use np_util::{LatencyHist, Micros};
use std::collections::BTreeMap;
use std::time::Duration;

/// Worker threads for builds, truth scans and query batches. The dense
/// store reads the ambient `NP_THREADS`, so the binary pins it to this.
pub const THREADS: usize = 2;
/// Router workers in the serving pipeline.
pub const SERVE_WORKERS: usize = 1;
/// The serving workload's fixed offered load, queries per second. Never
/// derived from a measured capacity.
pub const SERVE_RATE_QPS: f64 = 2_000.0;
/// Length of one open-loop phase, seconds.
pub const SERVE_OPEN_S: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBatch,
    ScaleHier,
    ServeOpenLoop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperBatch,
        Workload::ScaleHier,
        Workload::ServeOpenLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::ScaleHier => "scale_hier",
            Workload::ServeOpenLoop => "serve_open_loop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size is what the benchmark measures; tiny is for its own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Everything one workload runs, made from the workload seed alone.
pub struct Plan {
    pub backend: Backend,
    pub cell: CellSpec,
    /// Scenario seeds, run one after another.
    pub seeds: Vec<u64>,
    /// Registry name and query count per algorithm, in build order.
    pub algos: Vec<(&'static str, usize)>,
    /// `(offered rate, open-phase seconds)` on the serving workload.
    pub serve: Option<(f64, f64)>,
}

fn world(clusters: usize, en_per_cluster: usize) -> ClusterWorldSpec {
    ClusterWorldSpec {
        clusters,
        en_per_cluster,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: clusters,
    }
}

fn cell(world: ClusterWorldSpec, n_targets: usize, seed: u64) -> CellSpec {
    CellSpec {
        label: "benchmark".into(),
        world,
        n_targets,
        base_seed: seed,
        queries: 1,
        quick_queries: None,
        in_quick: true,
        churn: None,
        super_shards: None,
        block_cache_mb: None,
        algos: Vec::new(),
    }
}

impl Plan {
    pub fn new(workload: Workload, size: Size, seed: u64) -> Plan {
        let tiny = size == Size::Tiny;
        // The paper's §4 world at x=125, δ=0.2: 10 clusters × 125 ENs ×
        // 2 peers, 100 held-out targets.
        let paper = || {
            if tiny {
                cell(world(4, 8), 8, seed)
            } else {
                cell(ClusterWorldSpec::paper(125, 0.2), 100, seed)
            }
        };
        let q = |full: usize| if tiny { 64 } else { full };
        match workload {
            Workload::PaperBatch => Plan {
                backend: Backend::Dense,
                cell: paper(),
                seeds: SeedPlan::THREE_RUNS.seeds(seed),
                algos: vec![
                    ("brute-force", q(5_000)),
                    ("meridian", q(5_000)),
                    ("kademlia", q(5_000)),
                    ("nsw", q(5_000)),
                ],
                serve: None,
            },
            Workload::ScaleHier => Plan {
                backend: Backend::Hierarchical,
                // 2,500 shards × 40 ENs × 2 peers = 200k peers with the
                // default knobs (≈√S super-shards, 256 MiB block cache);
                // the tiny world pins knobs that make blocks evict.
                cell: if tiny {
                    cell(world(16, 4), 8, seed)
                        .with_super_shards(4)
                        .with_block_cache_mb(0)
                } else {
                    cell(world(2_500, 40), 100, seed)
                },
                seeds: vec![seed],
                algos: vec![("brute-force", q(1_000)), ("kademlia", q(5_000))],
                serve: None,
            },
            Workload::ServeOpenLoop => Plan {
                backend: Backend::Dense,
                cell: paper(),
                seeds: vec![seed],
                algos: crate::metrics::SERVED.iter().map(|&a| (a, 0)).collect(),
                serve: Some((SERVE_RATE_QPS, if tiny { 0.05 } else { SERVE_OPEN_S })),
            },
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold one `PaperMetrics` into a running FNV-1a digest, bit for bit.
pub fn fold_digest(d: u64, m: &PaperMetrics) -> u64 {
    let words = [
        m.p_correct_closest.to_bits(),
        m.p_correct_cluster.to_bits(),
        m.p_same_en.to_bits(),
        m.median_hub_latency_wrong_ms.to_bits(),
        m.mean_stretch.to_bits(),
        m.mean_probes.to_bits(),
        m.mean_hops.to_bits(),
        m.queries as u64,
    ];
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(d, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// What a timed call into the program counts towards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Scenario build, truth scan or algorithm build.
    Setup,
    /// The throughput-measuring call, with the queries it answered.
    Answer(f64),
    /// Other work: timed, but neither set-up nor throughput.
    Other,
    /// Paced by the clock (the open-loop phase), not by the host's speed.
    Paced,
}

/// One timed call into the program. The key names the seed and the
/// call (`seed1/meridian.build`), so the same call in another
/// repetition has the same key.
#[derive(Debug, Clone)]
pub struct Stage {
    pub key: String,
    pub secs: f64,
    pub kind: Kind,
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    pub traced: bool,
    pub wall_s: f64,
    /// Scenario builds + truth scans + algorithm builds, summed.
    pub setup_s: f64,
    /// Queries answered by the throughput-measuring call, and its time.
    answered: f64,
    answer_s: f64,
    /// Every timed call, in order.
    pub stages: Vec<Stage>,
    /// The reference workload's seconds after each call (see `calib`).
    pub reference_s: Vec<f64>,
    /// Per-layer values (a superset of the per-layer catalogue).
    pub layer: BTreeMap<String, f64>,
    /// Digest of every `PaperMetrics` the repetition produced, in order.
    pub digest: u64,
    /// Queries issued plus correctness checks made.
    pub attempted: u64,
    pub shed: u64,
    pub failures: Vec<String>,
}

impl Rep {
    fn new(traced: bool) -> Rep {
        Rep {
            traced,
            wall_s: 0.0,
            setup_s: 0.0,
            answered: 0.0,
            answer_s: 0.0,
            stages: Vec::new(),
            reference_s: Vec::new(),
            layer: BTreeMap::new(),
            digest: FNV_OFFSET,
            attempted: 0,
            shed: 0,
            failures: Vec::new(),
        }
    }

    /// Queries per second inside the throughput-measuring call.
    pub fn qps(&self) -> f64 {
        if self.answer_s > 0.0 {
            self.answered / self.answer_s
        } else {
            0.0
        }
    }

    /// How much slower than nominal the host ran this repetition: the
    /// median reference time over [`NOMINAL_S`].
    pub fn slowdown(&self) -> f64 {
        if self.reference_s.is_empty() {
            1.0
        } else {
            median(&self.reference_s) / NOMINAL_S
        }
    }

    /// Record one timed call of the seed or phase `group` (`repN/…`).
    fn stage(&mut self, group: &str, name: &str, secs: f64, kind: Kind) {
        match kind {
            Kind::Setup => self.setup_s += secs,
            Kind::Answer(queries) => {
                self.answered += queries;
                self.answer_s += secs;
            }
            Kind::Other | Kind::Paced => {}
        }
        let seed = group.split_once('/').map_or(group, |(_, s)| s);
        self.stages.push(Stage {
            key: format!("{seed}/{name}"),
            secs,
            kind,
        });
        self.reference_s.push(reference_s());
    }

    fn add(&mut self, key: &str, v: f64) {
        *self.layer.entry(key.to_string()).or_default() += v;
    }

    fn set(&mut self, key: &str, v: f64) {
        self.layer.insert(key.to_string(), v);
    }

    fn set_max(&mut self, key: &str, v: f64) {
        let prev = self.layer.get(key).copied().unwrap_or(0.0);
        self.set(key, prev.max(v));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// The correctness gate for one algorithm's batch, plus its counts.
    fn grade(&mut self, algo: &str, n: usize, m: &PaperMetrics, weight: f64) {
        self.digest = fold_digest(self.digest, m);
        self.check(m.queries == n, || {
            format!("{algo}: {} of {n} queries answered", m.queries)
        });
        if algo == "brute-force" {
            self.check(m.p_correct_closest == 1.0 && m.mean_stretch == 1.0, || {
                format!(
                    "brute-force is not exact: p_correct_closest = {}, mean_stretch = {}",
                    m.p_correct_closest, m.mean_stretch
                )
            });
        }
        self.add(&format!("{algo}.probes_per_query"), m.mean_probes * weight);
        self.add(&format!("{algo}.hops_per_query"), m.mean_hops * weight);
    }

    /// Block-cache counters. They race (see `CacheStats`): telemetry,
    /// not exact counts.
    fn cache_telemetry(&mut self, scenario: &ScenarioHandle) {
        if let ScenarioHandle::Hierarchical(s) = scenario {
            let c = s.matrix.cache_stats();
            self.add("cache.hits", c.hits as f64);
            self.add("cache.misses", c.misses as f64);
            self.add("cache.evictions", c.evictions as f64);
            self.set_max("cache.resident_mib", c.resident_bytes as f64 / MIB);
        }
    }
}

/// End-to-end times at the reference host speed (see `calib`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtNominal {
    /// Every call of one repetition, summed; leaves out only the
    /// benchmark's own glue between calls (`trace.coverage` bounds it).
    pub wall_s: f64,
    pub setup_s: f64,
}

/// Divide each call's seconds by its repetition's slowdown (a paced
/// call's seconds stand as measured), take each call's median over
/// `reps`, and sum over the calls of one repetition.
pub fn at_nominal(reps: &[&Rep]) -> AtNominal {
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in reps {
        let slowdown = r.slowdown();
        for s in &r.stages {
            let secs = match s.kind {
                Kind::Paced => s.secs,
                _ => s.secs / slowdown,
            };
            samples.entry(s.key.as_str()).or_default().push(secs);
        }
    }
    let (mut wall_s, mut setup_s) = (0.0, 0.0);
    // Every repetition makes the same calls; a call made several times
    // in one counts that many times.
    for s in reps.first().map_or(&[][..], |r| &r.stages) {
        let secs = median(&samples[s.key.as_str()]);
        wall_s += secs;
        if s.kind == Kind::Setup {
            setup_s += secs;
        }
    }
    AtNominal { wall_s, setup_s }
}

/// Run one repetition of `plan`: every seed, every layer call.
pub fn run_rep(plan: &Plan, registry: &AlgoRegistry, tracer: &mut Tracer, idx: usize) -> Rep {
    let mut rep = Rep::new(tracer.enabled());
    let cpu0 = process_cpu_s();
    let busy0 = busy_time();
    let mark = tracer.mark();
    let rep_span = tracer.begin("rep", &format!("rep{idx}"));
    let t0 = now();
    for (si, &seed) in plan.seeds.iter().enumerate() {
        let group = format!("rep{idx}/seed{si}");
        let span = tracer.begin("seed", &group);
        match plan.serve {
            None => batch_seed(plan, registry, tracer, &group, seed, &mut rep),
            Some(load) => serve_seed(plan, registry, tracer, &group, seed, load, &mut rep),
        }
        tracer.end(span);
    }
    rep.wall_s = secs_since(t0);
    tracer.end(rep_span);

    let cpu = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    rep.set("process.cpu_s", cpu);
    rep.set("process.cpu_per_wall", cpu / rep.wall_s);
    rep.set("parallel.busy_s", (busy_time() - busy0).as_secs_f64());
    rep.set("answer.qps", rep.qps());
    rep.set("host.slowdown", rep.slowdown());
    let hits = rep.layer.get("cache.hits").copied().unwrap_or(0.0);
    let misses = rep.layer.get("cache.misses").copied().unwrap_or(0.0);
    if hits + misses > 0.0 {
        rep.set("cache.hit_ratio", hits / (hits + misses));
    }
    if rep.traced {
        // Self time per layer; the rep and seed spans' own time is the
        // benchmark's glue, so coverage is the share of wall time spent
        // inside calls into the program.
        let spans = tracer.since(mark);
        let rep_secs = spans[0].secs();
        let mut glue = 0.0;
        for (name, secs) in self_times(spans) {
            if name == "rep" || name == "seed" {
                glue += secs;
            } else {
                rep.set(&format!("{name}_s"), secs);
            }
        }
        rep.set("trace.coverage", 1.0 - glue / rep_secs);
    }
    rep
}

/// Build the scenario and its truth cache (both charged to setup).
fn setup_scenario(
    plan: &Plan,
    tracer: &mut Tracer,
    group: &str,
    seed: u64,
    rep: &mut Rep,
) -> ScenarioHandle {
    let (scenario, t) = tracer.timed("scenario.build", group, || {
        ScenarioHandle::build(&plan.cell, plan.backend, seed, THREADS)
    });
    rep.stage(group, "scenario.build", t, Kind::Setup);
    let (_, t) = tracer.timed("truth.build", group, || {
        scenario.nearest_cache(THREADS);
    });
    rep.stage(group, "truth.build", t, Kind::Setup);
    rep.set_max("scenario.store_mib", scenario.store_bytes() as f64 / MIB);
    scenario
}

fn algo_context<'a>(
    scenario: &'a ScenarioHandle,
    shared: &'a BuildCache,
    seed: u64,
) -> AlgoContext<'a> {
    AlgoContext {
        store: scenario.store(),
        world: scenario.world(),
        overlay: scenario.overlay(),
        seed,
        threads: THREADS,
        shared,
    }
}

/// One seed of a batch workload: build, truth, then build → query per
/// algorithm.
fn batch_seed(
    plan: &Plan,
    registry: &AlgoRegistry,
    tracer: &mut Tracer,
    group: &str,
    seed: u64,
    rep: &mut Rep,
) {
    let scenario = setup_scenario(plan, tracer, group, seed, rep);
    let shared = BuildCache::new();
    let ctx = algo_context(&scenario, &shared, seed);
    let weight = 1.0 / plan.seeds.len() as f64;
    for &(name, n) in &plan.algos {
        let factory = registry.expect(name);
        let build = format!("{name}.build");
        let (algo, t) = tracer.timed(&build, group, || factory.build(&ctx));
        rep.stage(group, &build, t, Kind::Setup);
        let query = format!("{name}.query");
        let (m, t) = tracer.timed(&query, group, || {
            scenario.run_queries(algo.as_ref(), n, seed, THREADS)
        });
        rep.attempted += n as u64;
        rep.stage(group, &query, t, Kind::Answer(m.queries as f64));
        rep.grade(name, n, &m, weight);
    }
    rep.cache_telemetry(&scenario);
}

/// The open-loop generator's own record.
struct GenStats {
    /// Submit instant minus due instant, ns.
    late: LatencyHist,
    max_backlog: usize,
}

/// Sleep until each due time and submit with the *scheduled* arrival,
/// so a stalled generator or pipeline shows in the latency.
fn open_loop(h: &ServeHandle<'_>, schedule: &ArrivalSchedule) -> GenStats {
    let mut stats = GenStats {
        late: LatencyHist::new(),
        max_backlog: 0,
    };
    let start = now();
    for (idx, (&off, &target)) in schedule
        .offsets_ns
        .iter()
        .zip(&schedule.targets)
        .enumerate()
    {
        let due = start + Duration::from_nanos(off);
        let t = now();
        if due > t {
            std::thread::sleep(due - t);
        }
        let submit = now();
        stats
            .late
            .record(submit.saturating_duration_since(due).as_nanos() as u64);
        h.submit_at(idx, target, due);
        stats.max_backlog = stats.max_backlog.max(h.queued());
    }
    stats
}

/// Submit the same schedule as fast as admission accepts it.
fn replay(h: &ServeHandle<'_>, schedule: &ArrivalSchedule) {
    for (idx, &target) in schedule.targets.iter().enumerate() {
        h.submit(idx, target);
    }
}

fn us(h: &LatencyHist, q: f64) -> f64 {
    h.quantile(q).unwrap_or(0) as f64 / 1e3
}

/// The serving workload's one seed: build and truth, then per algorithm
/// an open-loop phase, a replay phase, and the batch run both must
/// equal.
fn serve_seed(
    plan: &Plan,
    registry: &AlgoRegistry,
    tracer: &mut Tracer,
    group: &str,
    seed: u64,
    (rate, open_s): (f64, f64),
    rep: &mut Rep,
) {
    let scenario = setup_scenario(plan, tracer, group, seed, rep);
    let schedule = ArrivalSchedule::poisson(scenario.targets(), rate, open_s, seed);
    let n = schedule.len();
    let shared = BuildCache::new();
    let ctx = algo_context(&scenario, &shared, seed);
    let serve_ctx = ServeCtx {
        store: scenario.store(),
        world: scenario.world(),
        truth: scenario.nearest_cache(THREADS),
        seed,
    };
    let cfg = ServeConfig {
        workers: SERVE_WORKERS,
        admission: Admission::Block,
        ..ServeConfig::default()
    };
    for &(name, _) in &plan.algos {
        let factory = registry.expect(name);
        let build = format!("{name}.build");
        let (algo, t) = tracer.timed(&build, group, || factory.build(&ctx));
        rep.stage(group, &build, t, Kind::Setup);
        let phase = format!("serve.{name}.open");
        let ((open, generator), t) = tracer.timed(&phase, group, || {
            serve(&serve_ctx, algo.as_ref(), &cfg, |h| open_loop(h, &schedule))
        });
        rep.stage(group, &phase, t, Kind::Paced);
        // Replay reports only throughput: its queueing is backlog from
        // the flat-out dump, not latency.
        let phase = format!("serve.{name}.replay");
        let ((replayed, ()), t) = tracer.timed(&phase, group, || {
            serve(&serve_ctx, algo.as_ref(), &cfg, |h| replay(h, &schedule))
        });
        rep.stage(
            group,
            &phase,
            t,
            Kind::Answer(replayed.stats.completed as f64),
        );
        let query = format!("{name}.query");
        let (batch, t) = tracer.timed(&query, group, || {
            scenario.run_queries(algo.as_ref(), n, seed, THREADS)
        });
        rep.stage(group, &query, t, Kind::Other);
        rep.attempted += 3 * n as u64;
        rep.shed += open.stats.shed + replayed.stats.shed;
        rep.check(open.metrics == batch, || {
            format!("{name}: open-loop answers differ from run_queries on the same schedule")
        });
        rep.check(replayed.metrics == batch, || {
            format!("{name}: replayed answers differ from run_queries on the same schedule")
        });
        rep.check(
            open.answers.len() == n
                && open.answers.iter().all(Option::is_some)
                && open.answers == replayed.answers,
            || format!("{name}: served answers are missing or differ between phases"),
        );
        rep.grade(name, n, &batch, 1.0);

        let wall = replayed.wall.as_secs_f64();
        let mean_batch = open.stats.completed as f64 / open.stats.batches.max(1) as f64;
        for (key, v) in [
            ("serve.total_p50_us", us(&open.total, 0.50)),
            ("serve.total_p99_us", us(&open.total, 0.99)),
            ("serve.capacity_qps", replayed.stats.completed as f64 / wall),
            ("serve.gen_late_p50_us", us(&generator.late, 0.50)),
            ("serve.gen_late_p99_us", us(&generator.late, 0.99)),
            ("serve.queued_p50_us", us(&open.queued, 0.50)),
            ("serve.queued_p99_us", us(&open.queued, 0.99)),
            ("serve.service_p50_us", us(&open.service, 0.50)),
            ("serve.service_p99_us", us(&open.service, 0.99)),
            ("serve.max_backlog", generator.max_backlog as f64),
            ("serve.mean_batch", mean_batch),
            ("serve.shed", (open.stats.shed + replayed.stats.shed) as f64),
        ] {
            rep.set(&format!("{key}.{name}"), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(secs: [f64; 3], slowdown: f64) -> Rep {
        let mut r = Rep::new(false);
        r.stage("rep0/seed0", "x.build", secs[0], Kind::Setup);
        r.stage("rep0/seed0", "x.query", secs[1], Kind::Answer(100.0));
        r.stage("rep0/seed0", "serve.x.open", secs[2], Kind::Paced);
        r.reference_s = vec![NOMINAL_S * slowdown; 3];
        r
    }

    #[test]
    fn at_nominal_scales_unpaced_calls_and_takes_medians() {
        let a = rep([2.0, 1.0, 5.0], 2.0);
        let b = rep([1.2, 0.6, 5.0], 1.0);
        let c = rep([3.3, 1.8, 5.2], 3.0);
        assert_eq!(a.stages[1].key, "seed0/x.query");
        assert!((a.slowdown() - 2.0).abs() < 1e-12);
        let t = at_nominal(&[&a, &b, &c]);
        // Scaled: build 1.0/1.2/1.1, query 0.5/0.6/0.6; open as measured.
        assert!((t.setup_s - 1.1).abs() < 1e-9, "{t:?}");
        assert!((t.wall_s - (1.1 + 0.6 + 5.0)).abs() < 1e-9, "{t:?}");
        assert_eq!(at_nominal(&[]).wall_s, 0.0);
    }

    #[test]
    fn the_reference_workload_takes_time() {
        let t = reference_s();
        assert!(t > 0.0 && t < 1.0, "{t}");
    }
}
