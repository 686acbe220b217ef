//! The actor pipeline: ingest → admission batcher → router workers →
//! collector.
//!
//! [`serve`] stands the four stages up as scoped threads wired with
//! [`BoundedQueue`]s and hands the caller's *driver* closure a
//! [`ServeHandle`] — the ingest side of the daemon. The driver submits
//! queries (by schedule index + target); when it returns, the drain
//! signal propagates stage by stage: the ingest queue closes, the
//! batcher flushes its remaining batches and closes the batch queue,
//! the last worker to exit closes the answer queue, and the collector
//! finishes with every admitted query accounted for exactly once (the
//! collector asserts on double-delivery; the equivalence tests assert
//! on loss).
//!
//! # Determinism
//!
//! A served query is answered by [`np_core::run_one_query`] — literally
//! the batch runner's per-query path — keyed only by
//! `(idx, target, seed)`. Which worker runs it, in which batch, after
//! how long in the queue: none of that reaches the RNG or the answer.
//! So with [`Admission::Block`] (lossless ingest) the answers and
//! [`PaperMetrics`] are bit-identical to `run_queries_threads` at any
//! worker count — only the timing histograms differ run to run.

use np_core::{reduce_records, run_one_query, PaperMetrics, QueryRecord};
use np_metric::{NearestCache, NearestPeerAlgo, PeerId, WorldStore};
use np_topology::ClusterWorld;
use np_util::queue::BoundedQueue;
use np_util::LatencyHist;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the ingest stage does when the admission queue is full.
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
    /// Router workers (each owns a slice of the traffic).
    pub workers: usize,
    /// Ingest (admission) queue capacity.
    pub queue_cap: usize,
    /// Max queries the batcher coalesces per batch (it never waits for
    /// a full batch — a partial batch flushes rather than stall).
    pub batch: usize,
    pub admission: Admission,
    /// Start with admission paused: the batcher holds off draining the
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
            batch: 8,
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
    /// Batches the admission batcher formed.
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

/// One admitted query in flight between stages.
struct Job {
    idx: usize,
    target: PeerId,
    arrival: Instant,
}

/// One answered query on its way to the collector.
struct Done {
    idx: usize,
    found: PeerId,
    record: QueryRecord,
    queued_ns: u64,
    total_ns: u64,
}

/// The pause gate in front of the batcher (see
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
    /// instead of refusing).
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

    /// Release a [`ServeConfig::start_paused`] pipeline: the batcher
    /// starts draining the ingest queue. Idempotent.
    pub fn resume_admission(&self) {
        self.gate.open();
    }

    /// Queries currently waiting for admission (the ingest queue
    /// depth).
    pub fn queued(&self) -> usize {
        self.q_in.len()
    }
}

/// Closes the ingest queue even if the driver panics, so the pipeline
/// drains and the scope's joins finish instead of deadlocking.
struct DrainOnDrop<'q>(&'q BoundedQueue<Job>, &'q Gate);

impl Drop for DrainOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
        // A still-paused batcher must wake to flush buffered queries.
        self.1.open();
    }
}

/// Run an actor pipeline over `ctx`, drive it with `driver`, drain, and
/// account. The driver runs on the calling thread while the stages run
/// on scoped threads; when it returns, the pipeline drains (graceful
/// shutdown — every admitted query is answered) and `serve` returns the
/// report plus the driver's own result.
pub fn serve<'a, R>(
    ctx: &ServeCtx<'a>,
    algo: &dyn NearestPeerAlgo,
    cfg: &ServeConfig,
    driver: impl FnOnce(&ServeHandle<'_>) -> R,
) -> (ServeReport, R) {
    assert!(cfg.workers >= 1, "a pipeline needs at least one worker");
    assert!(cfg.batch >= 1, "zero batch size");
    let q_in = BoundedQueue::<Job>::new(cfg.queue_cap);
    let q_batch = BoundedQueue::<Vec<Job>>::new(cfg.workers.max(2));
    let q_out = BoundedQueue::<Done>::new(cfg.queue_cap.max(cfg.workers * cfg.batch));
    let gate = Gate::new(!cfg.start_paused);
    let submitted = AtomicU64::new(0);
    let admitted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let live_workers = AtomicUsize::new(cfg.workers);
    let wall_start = Instant::now();

    let (slots, queued, service, total, completed, batches, out) = std::thread::scope(|s| {
        // Stage 2: the admission batcher. Greedy coalescing — it never
        // waits for a full batch, so a lone query is dispatched at once.
        let batcher = s.spawn(|| {
            gate.wait_open();
            let mut batches = 0u64;
            while let Some(first) = q_in.pop() {
                let mut batch = vec![first];
                while batch.len() < cfg.batch {
                    match q_in.try_pop() {
                        Some(job) => batch.push(job),
                        None => break,
                    }
                }
                batches += 1;
                if q_batch.push(batch).is_err() {
                    break; // unreachable: only this stage closes q_batch
                }
            }
            q_batch.close();
            batches
        });
        // Stage 3: the router workers — a pool popping one shared queue.
        let workers: Vec<_> = (0..cfg.workers)
            .map(|_| {
                s.spawn(|| {
                    let mut service = LatencyHist::new();
                    'pool: while let Some(batch) = q_batch.pop() {
                        for job in batch {
                            let t0 = Instant::now();
                            let ans = run_one_query(
                                algo, ctx.store, ctx.world, ctx.truth, job.idx, job.target,
                                ctx.seed, None,
                            );
                            let t1 = Instant::now();
                            service.record((t1 - t0).as_nanos() as u64);
                            let done = Done {
                                idx: job.idx,
                                found: ans.found,
                                record: ans.record,
                                queued_ns: t0.saturating_duration_since(job.arrival).as_nanos()
                                    as u64,
                                total_ns: t1.saturating_duration_since(job.arrival).as_nanos()
                                    as u64,
                            };
                            if q_out.push(done).is_err() {
                                break 'pool; // unreachable: q_out outlives the pool
                            }
                        }
                    }
                    if live_workers.fetch_sub(1, Ordering::AcqRel) == 1 {
                        q_out.close(); // last worker out signals the collector
                    }
                    service
                })
            })
            .collect();
        // Stage 4: the collector — one slot per schedule index, filled
        // exactly once.
        let collector = s.spawn(|| {
            let mut slots: Vec<Option<(PeerId, QueryRecord)>> = Vec::new();
            let mut queued = LatencyHist::new();
            let mut total = LatencyHist::new();
            let mut completed = 0u64;
            while let Some(done) = q_out.pop() {
                if done.idx >= slots.len() {
                    slots.resize_with(done.idx + 1, || None);
                }
                assert!(
                    slots[done.idx].is_none(),
                    "query {} answered twice",
                    done.idx
                );
                slots[done.idx] = Some((done.found, done.record));
                queued.record(done.queued_ns);
                total.record(done.total_ns);
                completed += 1;
            }
            (slots, queued, total, completed)
        });
        // Stage 1: ingest — the driver, on the calling thread.
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
            // _drain drops here: q_in closes, the drain cascades.
        };
        let batches = batcher.join().expect("batcher thread panicked");
        let mut service = LatencyHist::new();
        for w in workers {
            service.merge(&w.join().expect("worker thread panicked"));
        }
        let (slots, queued, total, completed) = collector.join().expect("collector panicked");
        (slots, queued, service, total, completed, batches, out)
    });

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
