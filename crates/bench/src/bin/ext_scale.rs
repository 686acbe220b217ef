//! **Extension — scale**: cluster worlds past the dense matrix's
//! ~2.5 k-peer wall, up to a million peers on the two-level
//! hierarchical backend.
//!
//! Not a paper figure: the paper stops at "about 2500 peers" because
//! its object is the dense inter-peer latency matrix (25 MB there,
//! 4 TB at 1 M peers). This binary sweeps world sizes from the paper's
//! scale up to 1 M peers on `HierarchicalWorld` and, at sizes where the
//! dense matrix still fits and the store resolves to one super-shard,
//! cross-checks that the compressed backend produces **bit-identical**
//! `PaperMetrics` for the same seed — by running the same spec cells
//! through a second, dense-backend `Experiment`.
//!
//! Per size it reports the backend's memory footprint, build time, and
//! the throughput of a brute-force query batch, plus a **Meridian
//! column** built through the shard-local ring fill (up to its O(n²)
//! fill limit) and a **Kademlia column** at every size — see
//! `np_bench::specs::ext_scale` (shared with `np-bench run
//! experiments/ext_scale.toml`) for the spec and renderer. The binary
//! adds what a config file cannot: the per-algorithm exactness
//! self-checks and the dense cross-check below.

use np_bench::specs::{self, ext_scale};
use np_bench::{cli, full_registry, Args};
use np_core::experiment::{Backend, Experiment};

fn main() {
    let args = Args::parse();
    let mut spec = specs::with_args(ext_scale::build_with(args.seed, args.shards), &args);
    // Validate the sweep up front: a dense sweep silently drops the
    // sizes whose matrix would not fit, rather than aborting mid-run
    // and losing the completed rows. (`np-bench run` applies the same
    // policy through the catalogue's clamp hook.)
    let dropped = ext_scale::drop_oversized_dense_cells(&mut spec);
    if !dropped.is_empty() {
        eprintln!(
            "skipping {dropped:?}: a dense matrix past {} peers \
             does not fit the CI budget; use --world hierarchical",
            ext_scale::DENSE_LIMIT
        );
    }
    assert!(spec.cell_count() > 0, "no sweep sizes fit the dense backend");
    let backend = spec.backend;
    let (cross_check_cells, skipped) = ext_scale::dense_cross_check(&spec);
    let registry = full_registry();
    let report = cli::run_experiment(&args, &registry, spec, ext_scale::render);
    // A cell the runner marked failed has no rows to check below: the
    // rendered report preserved the healthy cells; exit 1 with the
    // failure labels, not an index panic.
    cli::exit_on_failed_cells(&report);
    // Self-checks on the main path (not the renderer, so they also
    // guard --out json runs), matched by registry name — the sweep's
    // algorithm set varies with size (Meridian stops at its fill
    // limit) and with --algos: the brute-force reference must be
    // exact, the shard-locally built Meridian overlay must stay a
    // working query structure (members answer, probes are spent), and
    // the Kademlia walk must converge in bounded rounds at every size.
    for cell in report.query_cells().expect("ext_scale is a query spec") {
        for row in &cell.rows {
            for m in &row.runs {
                match row.algo.as_str() {
                    "brute-force" => assert_eq!(
                        m.p_correct_closest, 1.0,
                        "brute force must be exact at {} peers",
                        cell.peers
                    ),
                    "meridian" => assert!(
                        m.mean_probes > 0.0 && m.p_correct_cluster > 0.0,
                        "meridian degenerate at {} peers",
                        cell.peers
                    ),
                    "kademlia" => assert!(
                        m.mean_probes > 0.0 && m.mean_hops >= 1.0 && m.mean_hops < 64.0,
                        "kademlia degenerate at {} peers",
                        cell.peers
                    ),
                    _ => {}
                }
            }
        }
    }
    // Cross-backend equivalence where dense still fits: at one
    // super-shard the generator's hub summary is exact on cluster
    // worlds, so the whole metric set must agree bit-for-bit. Run the
    // same (small) cells through a dense-backend experiment and diff
    // the reports.
    if backend != Backend::Dense && !skipped.is_empty() {
        eprintln!(
            "skipping the dense cross-check for {skipped:?}: more than one super-shard \
             approximates cross-group paths (--super-shards 1 is the exact store)"
        );
    }
    if backend != Backend::Dense && !cross_check_cells.is_empty() {
        let labels: Vec<&str> = cross_check_cells.iter().map(|c| c.label.as_str()).collect();
        eprintln!("cross-checking {labels:?} against the dense backend...");
        let dense_spec = np_core::experiment::ExperimentSpec::query(
            "ext_scale-crosscheck",
            "dense cross-check",
            "",
            Backend::Dense,
            args.seed_plan(np_core::experiment::SeedPlan::Single),
            cross_check_cells,
        );
        let dense = Experiment::new(dense_spec, &registry).run_threads(args.threads());
        let compressed_cells = report.query_cells().expect("ext_scale is a query spec");
        let dense_cells = dense.query_cells().expect("cross-check is a query spec");
        for de in dense_cells {
            // Matched by label: the filter may skip cells ahead of a
            // cross-checked one.
            let co = compressed_cells
                .iter()
                .find(|c| c.label == de.label)
                .expect("cross-check cells come from the main report");
            // Every row — including Meridian, whose compressed-backend
            // overlay came from the shard-local fill while the dense
            // one used the omniscient fill. Bit-equality here is the
            // pipeline-level proof the two fills are the same.
            for (cr, dr) in co.rows.iter().zip(&de.rows) {
                assert_eq!(
                    cr.runs, dr.runs,
                    "{} and dense {} diverged at {} peers",
                    backend.name(),
                    cr.algo,
                    co.peers
                );
            }
            cli::chrome(
                &args,
                &format!("{} peers: dense cross-check identical ✓", co.peers),
            );
        }
        // The cross-check allocates dense matrices after the
        // driver's budget check; re-assert the peak so the CI
        // guard covers the whole run.
        cli::enforce_rss_budget(&args);
    }
}
