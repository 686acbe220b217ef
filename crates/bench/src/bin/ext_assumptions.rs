//! **Ext B** (beyond the paper): §2.2's assumption violations measured.
//!
//! Growth constant, greedy doubling-cover size and Levina–Bickel
//! intrinsic dimension over (a) a growth-friendly uniform world and
//! (b) the paper's cluster worlds at increasing cluster sizes. The
//! clustering condition must inflate all three.
//!
//! Honours `--world hierarchical`: the cluster-world diagnostics then
//! read latencies through the compressed backend at the runner's
//! default knobs — exact for x=25 and x=125 (one super-shard), while
//! x=5's 250 clusters group into super-shards whose cross-group paths
//! detour through super-hubs. The study builds its own cells, so
//! `--super-shards` does not reach it.
//!
//! The study stage lives in `np_bench::specs::ext_assumptions` (shared
//! with `np-bench run experiments/ext_assumptions.toml`).

use np_bench::specs;
use np_bench::{cli, standard_registry, Args};

fn main() {
    let args = Args::parse();
    let figure = np_bench::figure("ext_assumptions").expect("ext_assumptions is catalogued");
    cli::run_experiment(
        &args,
        &standard_registry(),
        specs::spec_for_args(figure, &args),
        cli::study_rendered,
    );
}
