//! # np-bench
//!
//! The experiment harness: the `np-bench` binary (under `src/bin/`),
//! Criterion microbenches (under `benches/`), and the library behind
//! both:
//!
//! * [`cli`] — the one flag parser (`--quick`, `--seed`, `--threads`,
//!   `--world`, `--super-shards`, `--block-cache-mb`, `--seeds`,
//!   `--out`, `--csv`, `--max-rss-mb`) and [`cli::run_experiment`],
//!   the header → pipeline → render → footer driver;
//! * [`registry`] — [`registry::full_registry`], every `AlgoFactory`
//!   in the workspace under its canonical name;
//! * [`figures`] — the figure catalogue (`np-bench list` prints it,
//!   `np-bench specs` serialises it into `experiments/`);
//! * [`spec_files`] — `np-bench run <spec.toml>` and `np-bench specs`;
//! * [`serve_cmd`] — `np-bench serve <spec.toml>`.
//!
//! A figure is an [`np_core::experiment::ExperimentSpec`] (the
//! declarative what) checked in as `experiments/<fig>.toml`;
//! `np-bench run` loads it, drives it through the `Experiment`
//! pipeline (the how), renders the typed report into the figure's
//! table/chart layout and applies the figure's self-check. Adding a
//! scenario is a new ~15-line spec, not a new subsystem; see the
//! README's "Experiment API" section for a worked example.

pub mod bench_report;
pub mod cli;
pub mod figures;
pub mod registry;
pub mod serve_cmd;
pub mod spec_files;
pub mod specs;

pub use figures::{study_stage, FigureInfo, FIGURES};
pub use registry::full_registry;
