//! The serving pipeline: one bounded ingest queue and a pool of
//! workers.
//!
//! [`serve`] builds the ingest [`BoundedQueue`], stands up
//! `cfg.workers` workers as scoped threads and hands the caller's
//! *driver* closure a [`ServeHandle`] — the ingest side of the daemon.
//! The driver submits queries (by schedule index + target); each worker
//! pops one job, waiting if the queue is empty, takes up to seven more
//! that are already queued, and answers them. When the driver returns,
//! the ingest queue closes, the workers drain what is left and exit,
//! and `serve` joins them and fills one slot per schedule index (it
//! asserts on double-delivery; the equivalence tests assert on loss).
//! A worker that panics closes the queue on its way out, so a blocked
//! driver wakes and `serve` re-raises the panic with its own payload.
//!
//! # Determinism
//!
//! A served query is answered by [`np_core::run_one_query`] — literally
//! the batch runner's per-query path — keyed only by
//! `(idx, target, seed)`. Which worker runs it, in which pop, after
//! how long in the queue: none of that reaches the RNG or the answer.
//! So with [`Admission::Block`] (lossless ingest) the answers and
//! [`PaperMetrics`] are bit-identical to `run_queries` at any
//! worker count — only the timing histograms differ run to run.

use np_core::{reduce_records, run_one_query, PaperMetrics, QueryRecord};
use np_metric::{NearestCache, NearestPeerAlgo, PeerId, WorldStore};
use np_topology::ClusterWorld;
use np_util::queue::BoundedQueue;
use np_util::LatencyHist;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the ingest side does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitter until space frees (lossless — the
    /// determinism contract holds at any worker count).
    Block,
    /// Shed the query immediately (it is counted, never retried) — the
    /// open-loop overload stance.
    Shed,
}

impl Admission {
    /// Stable name recorded in [`ServeStats::policy`].
    pub fn name(self) -> &'static str {
        match self {
            Admission::Block => "block",
            Admission::Shed => "shed",
        }
    }
}

/// Pipeline shape and admission policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Workers popping the ingest queue.
    pub workers: usize,
    /// Ingest (admission) queue capacity.
    pub queue_cap: usize,
    pub admission: Admission,
    /// Start with admission paused: the workers hold off draining the
    /// ingest queue until [`ServeHandle::resume_admission`]. With
    /// [`Admission::Shed`] this makes overload deterministic — the
    /// queue fills to exactly `queue_cap` and every further submission
    /// sheds, independent of worker count and timing.
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_cap: 1024,
            admission: Admission::Block,
            start_paused: false,
        }
    }
}

/// Ingest/egress accounting. `submitted = admitted + shed`, and after a
/// drain `completed = admitted` — no query is lost or double-counted.
#[derive(Debug, Clone)]
pub struct ServeStats {
    pub submitted: u64,
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    /// Pops the workers made (each takes up to eight queued jobs).
    pub batches: u64,
    /// The admission policy the run was under ("block" | "shed").
    pub policy: &'static str,
}

/// Everything a serving run produces.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Paper metrics over the completed queries, reduced in schedule
    /// order (bit-identical to the batch runner under lossless
    /// admission).
    pub metrics: PaperMetrics,
    /// Answer per schedule slot (`None` = shed, never admitted).
    pub answers: Vec<Option<PeerId>>,
    pub stats: ServeStats,
    /// Time from arrival to service start, ns.
    pub queued: LatencyHist,
    /// Time inside the algorithm, ns.
    pub service: LatencyHist,
    /// Arrival to answer, ns.
    pub total: LatencyHist,
    pub wall: Duration,
}

/// The shared world the daemon serves against — borrowed from a built
/// scenario, so standing up a pipeline costs threads and queues, not a
/// topology rebuild.
pub struct ServeCtx<'a> {
    pub store: &'a dyn WorldStore,
    pub world: &'a ClusterWorld,
    /// Ground truth for grading (same cache the batch runner uses).
    pub truth: &'a NearestCache,
    pub seed: u64,
}

/// One admitted query waiting in the ingest queue.
struct Job {
    idx: usize,
    target: PeerId,
    arrival: Instant,
}

/// The pause gate in front of the workers (see
/// [`ServeConfig::start_paused`]).
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new(open: bool) -> Gate {
        Gate {
            open: Mutex::new(open),
            cv: Condvar::new(),
        }
    }

    fn wait_open(&self) {
        let mut g = self.open.lock().unwrap_or_else(|p| p.into_inner());
        while !*g {
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// The ingest side of a running pipeline, passed to the driver closure
/// of [`serve`].
pub struct ServeHandle<'q> {
    q_in: &'q BoundedQueue<Job>,
    gate: &'q Gate,
    admission: Admission,
    submitted: &'q AtomicU64,
    admitted: &'q AtomicU64,
    shed: &'q AtomicU64,
}

impl ServeHandle<'_> {
    /// Submit the `idx`-th query of the schedule, arriving now. Returns
    /// whether it was admitted (under [`Admission::Block`] this blocks
    /// instead of refusing, unless a panicking worker closed the
    /// queue).
    pub fn submit(&self, idx: usize, target: PeerId) -> bool {
        self.submit_at(idx, target, Instant::now())
    }

    /// [`ServeHandle::submit`] with an explicit arrival instant — the
    /// open-loop load generator passes the *scheduled* arrival so
    /// queued time includes any lag the submitter itself accumulated.
    pub fn submit_at(&self, idx: usize, target: PeerId, arrival: Instant) -> bool {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            idx,
            target,
            arrival,
        };
        let admitted = match self.admission {
            Admission::Block => self.q_in.push(job).is_ok(),
            Admission::Shed => self.q_in.try_push(job).is_ok(),
        };
        if admitted {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Release a [`ServeConfig::start_paused`] pipeline: the workers
    /// start draining the ingest queue. Idempotent.
    pub fn resume_admission(&self) {
        self.gate.open();
    }

    /// Queries currently waiting for admission (the ingest queue
    /// depth).
    pub fn queued(&self) -> usize {
        self.q_in.len()
    }
}

/// Closes the ingest queue when the driver returns or panics, or when
/// a worker panics, so the other threads drain and the scope's joins
/// finish instead of deadlocking.
struct DrainOnDrop<'q>(&'q BoundedQueue<Job>, &'q Gate);

impl Drop for DrainOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
        // Still-paused workers must wake to drain buffered queries.
        self.1.open();
    }
}

/// Jobs a worker takes per pop: the first waits, the rest only if
/// already queued, so a lone query is answered at once.
const BATCH: usize = 8;

/// One worker's share of a run: `(idx, found, record)` per answered
/// query, its latency histograms and its pop count.
#[derive(Default)]
struct Answered {
    rows: Vec<(usize, PeerId, QueryRecord)>,
    queued: LatencyHist,
    service: LatencyHist,
    total: LatencyHist,
    batches: u64,
}

/// Run a pipeline over `ctx`, drive it with `driver`, drain, and
/// account. The driver runs on the calling thread while the workers
/// run on scoped threads; when it returns, the pipeline drains
/// (graceful shutdown — every admitted query is answered) and `serve`
/// returns the report plus the driver's own result.
pub fn serve<'a, R>(
    ctx: &ServeCtx<'a>,
    algo: &dyn NearestPeerAlgo,
    cfg: &ServeConfig,
    driver: impl FnOnce(&ServeHandle<'_>) -> R,
) -> (ServeReport, R) {
    assert!(cfg.workers >= 1, "a pipeline needs at least one worker");
    let q_in = BoundedQueue::<Job>::new(cfg.queue_cap);
    let gate = Gate::new(!cfg.start_paused);
    let submitted = AtomicU64::new(0);
    let admitted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let wall_start = Instant::now();

    let (answered, out) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.workers)
            .map(|_| {
                s.spawn(|| {
                    let _drain = DrainOnDrop(&q_in, &gate);
                    gate.wait_open();
                    let mut mine = Answered::default();
                    let mut batch = Vec::with_capacity(BATCH);
                    while let Some(first) = q_in.pop() {
                        batch.push(first);
                        while batch.len() < BATCH {
                            match q_in.try_pop() {
                                Some(job) => batch.push(job),
                                None => break,
                            }
                        }
                        mine.batches += 1;
                        for job in batch.drain(..) {
                            let t0 = Instant::now();
                            let ans = run_one_query(
                                algo, ctx.store, ctx.world, ctx.truth, job.idx, job.target,
                                ctx.seed, None,
                            );
                            let t1 = Instant::now();
                            let since_arrival =
                                |t: Instant| t.saturating_duration_since(job.arrival).as_nanos();
                            mine.queued.record(since_arrival(t0) as u64);
                            mine.service.record((t1 - t0).as_nanos() as u64);
                            mine.total.record(since_arrival(t1) as u64);
                            mine.rows.push((job.idx, ans.found, ans.record));
                        }
                    }
                    mine
                })
            })
            .collect();
        // Ingest: the driver, on the calling thread.
        let out = {
            let _drain = DrainOnDrop(&q_in, &gate);
            let handle = ServeHandle {
                q_in: &q_in,
                gate: &gate,
                admission: cfg.admission,
                submitted: &submitted,
                admitted: &admitted,
                shed: &shed,
            };
            driver(&handle)
            // _drain drops here: q_in closes and the workers drain it.
        };
        // Re-raise a worker panic with its original payload, as
        // `np_util::parallel::par_map` does.
        let answered: Vec<Answered> = workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect();
        (answered, out)
    });

    // One slot per schedule index, filled exactly once.
    let mut slots: Vec<Option<(PeerId, QueryRecord)>> = Vec::new();
    let mut queued = LatencyHist::new();
    let mut service = LatencyHist::new();
    let mut total = LatencyHist::new();
    let mut completed = 0u64;
    let mut batches = 0u64;
    for mine in answered {
        for (idx, found, record) in mine.rows {
            if idx >= slots.len() {
                slots.resize_with(idx + 1, || None);
            }
            assert!(slots[idx].is_none(), "query {idx} answered twice");
            slots[idx] = Some((found, record));
            completed += 1;
        }
        queued.merge(&mine.queued);
        service.merge(&mine.service);
        total.merge(&mine.total);
        batches += mine.batches;
    }

    // Reduce in schedule order — same ordered reduction as the batch
    // runner, over whichever slots were admitted and answered.
    let records: Vec<QueryRecord> = slots
        .iter()
        .filter_map(|s| s.as_ref().map(|(_, r)| *r))
        .collect();
    let metrics = if records.is_empty() {
        PaperMetrics {
            p_correct_closest: 0.0,
            p_correct_cluster: 0.0,
            p_same_en: 0.0,
            median_hub_latency_wrong_ms: 0.0,
            mean_stretch: 0.0,
            mean_probes: 0.0,
            mean_hops: 0.0,
            queries: 0,
        }
    } else {
        reduce_records(&records, records.len())
    };
    let report = ServeReport {
        metrics,
        answers: slots.into_iter().map(|s| s.map(|(p, _)| p)).collect(),
        stats: ServeStats {
            submitted: submitted.load(Ordering::Relaxed),
            admitted: admitted.load(Ordering::Relaxed),
            completed,
            shed: shed.load(Ordering::Relaxed),
            batches,
            policy: cfg.admission.name(),
        },
        queued,
        service,
        total,
        wall: wall_start.elapsed(),
    };
    (report, out)
}
