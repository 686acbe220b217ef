//! # np-serve
//!
//! The query-serving daemon: a long-lived, in-process pipeline over
//! the batch engine in `np-core`. Everything else in the workspace
//! answers a pre-drawn schedule and exits; this crate serves the same
//! queries as sustained traffic — the "heavy traffic from millions of
//! users" half of the paper's operational story, where per-query probe
//! budgets become tail latency.
//!
//! * [`pipeline`] — one bounded ingest queue from [`np_util::queue`]
//!   and a pool of workers popping it; [`pipeline::serve`] stands the
//!   workers up as scoped threads, drives the queue with a caller
//!   closure, and drains gracefully (every admitted query answered
//!   exactly once),
//! * [`schedule`] — seeded open-loop Poisson arrival schedules and
//!   [`schedule::run_schedule`], the load harness that paces them in
//!   real time (or replays them flat-out for tests).
//!
//! # The service≡batch contract
//!
//! A served query runs [`np_core::run_one_query`] — the batch runner's
//! own per-query path — keyed only by `(idx, target, seed)`. Arrival
//! times, worker identity, and queue depth never reach the RNG streams
//! or the answer, so under lossless admission
//! ([`Admission::Block`]) the answers and [`np_core::PaperMetrics`] of
//! a served schedule are **bit-identical** to
//! `run_queries(…, n, seed, _)` at any worker count; only the timing
//! histograms ([`ServeReport::queued`]/[`ServeReport::service`]/
//! [`ServeReport::total`]) vary run to run. `tests/serve_equivalence.rs`
//! enforces this at 1/2/4/8 workers on both backends.

pub mod pipeline;
pub mod schedule;

pub use pipeline::{
    serve, Admission, ServeConfig, ServeCtx, ServeHandle, ServeReport, ServeStats,
};
pub use schedule::{run_schedule, ArrivalSchedule, Pacing, ARRIVAL_TAG};
