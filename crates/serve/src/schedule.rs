//! Open-loop arrival schedules and the load runner.
//!
//! The load harness is **open-loop**: arrivals are drawn up front from
//! a seeded Poisson process and submitted on schedule whether or not
//! the pipeline has kept up — the realistic overload model (a closed
//! loop would self-throttle and hide queueing collapse). The *targets*
//! of the schedule come from [`np_core::draw_target_schedule`] under
//! the same seed the batch runner uses, so a served schedule of `n`
//! queries asks **exactly** the questions `run_queries(…, n, seed, _)`
//! asks — that identity is what the service≡batch equivalence test
//! leans on.

use crate::pipeline::{serve, ServeConfig, ServeCtx, ServeReport};
use np_core::draw_target_schedule;
use np_metric::{NearestPeerAlgo, PeerId};
use np_util::dist::exponential;
use np_util::rng::rng_for;
use std::time::{Duration, Instant};

/// Seed tag of the arrival-process RNG stream. Distinct from the
/// runner's `RUN`/`QRY` tags: arrival *times* never perturb target
/// choice or per-query randomness.
pub const ARRIVAL_TAG: u64 = 0x41_5252; // "ARR"

/// A pre-drawn arrival schedule: when each query arrives and what it
/// asks. Pure function of `(targets pool, rate, duration, seed)`.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    /// Arrival offset of each query from the start of the run, ns.
    pub offsets_ns: Vec<u64>,
    /// Target of each query (drawn exactly as the batch runner draws
    /// its schedule).
    pub targets: Vec<PeerId>,
}

impl ArrivalSchedule {
    /// Seeded Poisson arrivals at `rate_qps` for `duration_s` seconds:
    /// exponential inter-arrival gaps of mean `1/rate`, cut at the
    /// horizon. The number of arrivals is itself random (Poisson with
    /// mean `rate · duration`) but fixed by the seed.
    pub fn poisson(pool: &[PeerId], rate_qps: f64, duration_s: f64, seed: u64) -> ArrivalSchedule {
        assert!(rate_qps > 0.0, "non-positive arrival rate");
        assert!(duration_s > 0.0, "non-positive duration");
        let mut rng = rng_for(seed, ARRIVAL_TAG);
        let mut offsets_ns = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += exponential(&mut rng, 1.0 / rate_qps);
            if t >= duration_s {
                break;
            }
            offsets_ns.push((t * 1e9) as u64);
        }
        let targets = draw_target_schedule(pool, offsets_ns.len(), seed);
        ArrivalSchedule {
            offsets_ns,
            targets,
        }
    }

    pub fn len(&self) -> usize {
        self.offsets_ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offsets_ns.is_empty()
    }
}

/// How [`run_schedule`] paces submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Sleep until each scheduled arrival — the load harness. Queued
    /// time is measured from the *scheduled* arrival, so submitter lag
    /// counts against the pipeline, as it would for a real client.
    RealTime,
    /// Submit as fast as admission allows — tests and the equivalence
    /// check, where wall-clock pacing is noise.
    Replay,
}

/// Drive one pre-drawn schedule through a pipeline and return its
/// report.
pub fn run_schedule(
    ctx: &ServeCtx<'_>,
    algo: &dyn NearestPeerAlgo,
    cfg: &ServeConfig,
    schedule: &ArrivalSchedule,
    pacing: Pacing,
) -> ServeReport {
    let (report, ()) = serve(ctx, algo, cfg, |handle| {
        let start = Instant::now();
        for (idx, (&off, &target)) in schedule
            .offsets_ns
            .iter()
            .zip(&schedule.targets)
            .enumerate()
        {
            match pacing {
                Pacing::RealTime => {
                    let due = start + Duration::from_nanos(off);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    handle.submit_at(idx, target, due);
                }
                Pacing::Replay => {
                    handle.submit(idx, target);
                }
            }
        }
    });
    report
}
