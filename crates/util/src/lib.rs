//! # np-util
//!
//! Shared plumbing for the `nearest-peer` workspace — the reproduction of
//! *"On the Difficulty of Finding the Nearest Peer in P2P Systems"*
//! (Vishnumurthy & Francis, IMC 2008).
//!
//! This crate deliberately has no dependency on the rest of the workspace.
//! It provides:
//!
//! * [`Micros`] — the single latency unit used everywhere (integer
//!   microseconds, so 100 µs LAN latencies and 300 ms transcontinental
//!   latencies coexist without float-rounding surprises),
//! * [`rng`] — deterministic seed derivation ([`rng::splitmix64`],
//!   [`rng::sub_seed`]) and RNG construction, so every experiment in the
//!   paper harness is exactly reproducible from one `u64`,
//! * [`dist`] — the handful of distributions the topology generators need
//!   (normal, log-normal, exponential, Zipf/power-law), hand-rolled on top
//!   of `rand` so the workspace keeps the minimal allowed dependency set,
//! * [`stats`] — summary statistics and percentiles,
//! * [`cdf`] — empirical CDFs (Figures 3 and 5 of the paper are CDFs),
//! * [`parallel`] — the scoped-thread parallel engine and its
//!   determinism contract (ordered [`parallel::par_map`], per-item
//!   seeding via [`parallel::item_seed`], the `--threads`/`NP_THREADS`
//!   rule a binary resolves once) used by the matrix builders and the
//!   query runner, which take the worker count as an argument,
//! * [`hist`] — mergeable log-bucketed latency histograms (p50/p99/p999
//!   accounting for the serving pipeline's tail-latency reports),
//! * [`queue`] — a hand-rolled bounded MPMC queue (block or shed on
//!   overload, drain-on-close) feeding the `np-serve` worker pool,
//! * [`binned`] — "binned scatter plots": per-bin percentile summaries as
//!   used by Figures 4 and 10 of the paper,
//! * [`ascii`] — terminal rendering of CDFs/series so the experiment
//!   binaries can show the figure shape without a plotting stack,
//! * [`table`] — aligned text tables and CSV emission for the figure
//!   binaries listed in README's `EXPERIMENTS` section.

pub mod ascii;
pub mod binned;
pub mod cdf;
pub mod dist;
pub mod hist;
pub mod interleave;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod table;
mod units;

pub use binned::BinnedScatter;
pub use cdf::Cdf;
pub use hist::LatencyHist;
pub use stats::Summary;
pub use units::Micros;
