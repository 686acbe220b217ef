//! **Extension — scale** spec: cluster worlds past the dense matrix's
//! ~2.5 k-peer wall, up to a million peers on the two-level
//! hierarchical backend, with a brute-force reference column, a
//! Kademlia column (cheap at any size), and a Meridian column built
//! through the shard-local ring fill at the sizes where its O(n²)
//! shard-local fill is affordable. [`check`] adds the exactness
//! self-checks and, at the sizes where the dense matrix still fits,
//! the dense cross-check ([`dense_cross_check`] picks its cells).

use crate::cli::{self, Args, Rendered};
use crate::registry::full_registry;
use np_core::experiment::{
    hierarchical_knobs, AlgoSpec, Backend, CellSpec, Experiment, ExperimentReport, ExperimentSpec,
    SeedPlan, Workload,
};
use np_topology::ClusterWorldSpec;
use np_util::table::Table;
use np_util::Micros;

/// Sweep sizes (requested peers; worlds round to whole clusters).
pub const SIZES: &[usize] = &[2_500, 10_000, 25_000, 50_000, 200_000, 1_000_000];
/// Sizes that also run under `--quick` (the 200k cell is CI's
/// hierarchical smoke; the 1M cell is paper-scale only).
pub const QUICK_SIZES: &[usize] = &[2_500, 10_000, 200_000];

/// Dense is quadratic: past this size a single matrix outgrows the CI
/// memory budget this figure is asserted under.
pub const DENSE_LIMIT: usize = 12_000;

/// Cross-check against dense only at paper scale: the point of the
/// larger sizes is the memory ceiling, and materialising a dense
/// 10k×10k cross-check matrix (400 MB) would dominate the peak-RSS
/// number the CI job asserts on.
pub const CROSS_CHECK_LIMIT: usize = 4_000;

/// Meridian's shard-local ring fill probes every same-shard pair —
/// O(n²) total across shards — so its column stops here; brute force
/// (one linear scan per query) and Kademlia (binary-search buckets,
/// O(log n) rounds) continue to the million-peer cells.
pub const MERIDIAN_LIMIT: usize = 50_000;

/// Past this many clusters the generator's hub matrix (quadratic in
/// the hub pool) would dominate the build; bigger worlds grow the
/// cluster *size* instead, which is exactly what the hierarchical
/// backend's per-shard blocks are budgeted for.
pub const MAX_CLUSTERS: usize = 2_500;

/// The cluster-world spec for `peers` total peers: the paper's shape
/// (2 peers per end-network, 25 end-networks per cluster).
pub fn world_for(peers: usize) -> ClusterWorldSpec {
    let clusters = (peers / 50).clamp(1, MAX_CLUSTERS);
    let en_per_cluster = (peers / (clusters * 2)).max(1);
    ClusterWorldSpec {
        clusters,
        en_per_cluster,
        peers_per_en: 2,
        delta: 0.2,
        mean_hub_ms: (4.0, 6.0),
        intra_en: Micros::from_us(100),
        hub_pool: clusters.max(2),
    }
}

/// The dual-budget scale spec at `seed`.
pub fn build(seed: u64) -> ExperimentSpec {
    let cells = SIZES
        .iter()
        .map(|&requested| {
            let world = world_for(requested);
            // Worlds round to whole clusters; label the world built.
            let peers = world.total_peers();
            let mut algos = vec![AlgoSpec::new("brute-force"), AlgoSpec::new("kademlia")];
            if peers <= MERIDIAN_LIMIT {
                algos.insert(1, AlgoSpec::new("meridian"));
            }
            CellSpec {
                label: format!("{peers} peers"),
                world,
                n_targets: 100,
                base_seed: seed.wrapping_add(peers as u64),
                queries: 1_000,
                quick_queries: Some(250),
                in_quick: QUICK_SIZES.contains(&requested),
                churn: None,
                super_shards: None,
                block_cache_mb: None,
                algos,
            }
        })
        .collect();
    let mut spec = ExperimentSpec::query(
        "ext_scale",
        "Extension — hierarchical worlds from the 2.5k-peer dense wall to a million peers",
        "memory stays block-cache-bounded while peers grow 400x; dense and one-super-shard hierarchical metrics agree bit-for-bit at paper scale",
        Backend::Hierarchical,
        SeedPlan::Single,
        cells,
    );
    spec.base_seed = seed;
    spec
}

/// Drop cells whose dense matrix would not fit the CI budget. Returns
/// the labels dropped (callers report them; an empty sweep is the
/// caller's error to raise).
pub fn drop_oversized_dense_cells(spec: &mut ExperimentSpec) -> Vec<String> {
    let mut dropped = Vec::new();
    if spec.backend == Backend::Dense {
        if let Workload::QueryMatrix(cells) = &mut spec.workload {
            cells.retain(|c| {
                let fits = c.world.total_peers() <= DENSE_LIMIT;
                if !fits {
                    dropped.push(c.label.clone());
                }
                fits
            });
        }
    }
    dropped
}

/// The cells [`check`] re-runs on the dense backend to cross-check a
/// hierarchical run, plus the labels of the cells within
/// [`CROSS_CHECK_LIMIT`] it skips. A cell is cross-checked when its
/// world fits the limit and its knobs resolve to one super-shard — the
/// exact configuration on cluster worlds. With more super-shards,
/// cross-group paths detour through super-hubs and legitimately differ
/// from dense, so those cells are skipped, not failed.
pub fn dense_cross_check(spec: &ExperimentSpec) -> (Vec<CellSpec>, Vec<String>) {
    let mut skipped = Vec::new();
    let Workload::QueryMatrix(cells) = &spec.workload else {
        return (Vec::new(), skipped);
    };
    let checked = cells
        .iter()
        .filter(|c| c.world.total_peers() <= CROSS_CHECK_LIMIT)
        .filter(|c| {
            let exact = hierarchical_knobs(c).0 == 1;
            if !exact {
                skipped.push(c.label.clone());
            }
            exact
        })
        .cloned()
        .collect();
    (checked, skipped)
}

/// The ext_scale self-check, matched by registry name (the sweep's
/// algorithm set varies with size and with `--algos`): brute force must
/// be exact, the shard-locally built Meridian overlay must stay a
/// working query structure (members answer, probes are spent), and the
/// Kademlia walk must converge in bounded rounds. On a hierarchical run
/// the [`dense_cross_check`] cells then re-run on the dense backend and
/// every row must agree bit for bit — including Meridian, whose
/// compressed-backend overlay came from the shard-local fill while the
/// dense one used the omniscient fill.
pub fn check(spec: &ExperimentSpec, report: &ExperimentReport, args: &Args) -> Result<(), String> {
    let cells = report.query_cells().unwrap_or_default();
    for cell in cells {
        for row in &cell.rows {
            for m in &row.runs {
                let healthy = match row.algo.as_str() {
                    "brute-force" => m.p_correct_closest == 1.0,
                    "meridian" => m.mean_probes > 0.0 && m.p_correct_cluster > 0.0,
                    "kademlia" => m.mean_probes > 0.0 && (1.0..64.0).contains(&m.mean_hops),
                    _ => true,
                };
                if !healthy {
                    return Err(format!("{} degenerate at {} peers", row.algo, cell.peers));
                }
            }
        }
    }
    if spec.backend == Backend::Dense {
        return Ok(());
    }
    let (cross_check_cells, skipped) = dense_cross_check(spec);
    if !skipped.is_empty() {
        eprintln!(
            "skipping the dense cross-check for {skipped:?}: more than one super-shard \
             approximates cross-group paths (--super-shards 1 is the exact store)"
        );
    }
    if cross_check_cells.is_empty() {
        return Ok(());
    }
    let labels: Vec<&str> = cross_check_cells.iter().map(|c| c.label.as_str()).collect();
    eprintln!("cross-checking {labels:?} against the dense backend...");
    let dense_spec = ExperimentSpec::query(
        "ext_scale-crosscheck",
        "dense cross-check",
        "",
        Backend::Dense,
        spec.seeds,
        cross_check_cells,
    );
    let dense = Experiment::new(dense_spec, &full_registry()).run_threads(args.threads());
    for de in dense.query_cells().unwrap_or_default() {
        if let Some(error) = &de.error {
            return Err(format!("dense {:?} failed: {error}", de.label));
        }
        // Matched by label: the filter may skip cells ahead of a
        // cross-checked one.
        let co = cells
            .iter()
            .find(|c| c.label == de.label)
            .ok_or_else(|| format!("cross-check cell {:?} missing from the report", de.label))?;
        for (cr, dr) in co.rows.iter().zip(&de.rows) {
            if cr.runs != dr.runs {
                return Err(format!(
                    "{} and dense {} diverged at {} peers",
                    spec.backend.name(),
                    cr.algo,
                    co.peers
                ));
            }
        }
        let line = format!("{} peers: dense cross-check identical ✓", co.peers);
        cli::chrome(args, &line);
    }
    // The cross-check allocates dense matrices after the driver's
    // budget check; re-assert the peak so the budget covers the whole
    // run.
    cli::enforce_rss_budget(args);
    Ok(())
}

/// The scale sweep table renderer: store footprint, build and batch
/// timings, and the brute-force / Meridian / Kademlia accuracy
/// columns. Rows are matched by registry name, never by position, so
/// the sizes past [`MERIDIAN_LIMIT`] (and any `--algos` override)
/// simply render `-` in the columns they skip.
pub fn render(report: &ExperimentReport, _args: &Args) -> Rendered {
    let cells = report.query_cells().unwrap_or_default();
    let n_queries = cells
        .iter()
        .flat_map(|c| c.rows.iter().find(|r| r.algo == "brute-force"))
        .map(|r| r.queries)
        .next()
        .unwrap_or(0);
    let batch_header = format!("bf {n_queries}q s");
    let mut table = Table::new(&[
        "peers",
        "shards",
        "backend",
        "store MB",
        "build s",
        &batch_header,
        "bf queries/s",
        "P(bf)",
        "P(meridian)",
        "mer probes",
        "P(kademlia)",
        "kad probes",
        "kad hops",
    ]);
    for cell in cells {
        // A failed cell is marked; a successful cell renders whatever
        // rows it has.
        if cell.rows.is_empty() {
            let why = cell.error.as_deref().unwrap_or("no rows");
            let mut row = vec![cell.label.clone(), format!("FAILED: {why}")];
            row.resize(13, "-".into());
            table.row(&row);
            continue;
        }
        let bf = cell.rows.iter().find(|r| r.algo == "brute-force");
        let mer = cell.rows.iter().find(|r| r.algo == "meridian");
        let kad = cell.rows.iter().find(|r| r.algo == "kademlia");
        let bf_cols = match bf {
            Some(bf) => {
                let b = &bf.bands;
                let query_s = bf.wall.as_secs_f64();
                let total_queries = bf.queries * bf.runs.len();
                [
                    format!("{query_s:.2}"),
                    format!("{:.0}", total_queries as f64 / query_s.max(1e-9)),
                    format!("{:.3}", b.p_correct_closest.median),
                ]
            }
            None => ["-".into(), "-".into(), "-".into()],
        };
        let mer_cols = match mer {
            Some(mer) => {
                let m = &mer.bands;
                [
                    format!("{:.3}", m.p_correct_closest.median),
                    format!("{:.0}", m.mean_probes.median),
                ]
            }
            None => ["-".into(), "-".into()],
        };
        let kad_cols = match kad {
            Some(kad) => {
                let k = &kad.bands;
                [
                    format!("{:.3}", k.p_correct_closest.median),
                    format!("{:.0}", k.mean_probes.median),
                    format!("{:.2}", k.mean_hops.median),
                ]
            }
            None => ["-".into(), "-".into(), "-".into()],
        };
        table.row(&[
            cell.peers.to_string(),
            cell.clusters.to_string(),
            report.backend.name().to_string(),
            format!("{:.1}", cell.store_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", cell.build_wall.as_secs_f64()),
            bf_cols[0].clone(),
            bf_cols[1].clone(),
            bf_cols[2].clone(),
            mer_cols[0].clone(),
            mer_cols[1].clone(),
            kad_cols[0].clone(),
            kad_cols[1].clone(),
            kad_cols[2].clone(),
        ]);
    }
    Rendered {
        body: table.render(),
        csv: Some(table.to_csv()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::tests::{run, tiny_spec};
    use crate::specs::with_args;
    use np_core::experiment::ReportBody;

    fn labels(cells: &[CellSpec]) -> Vec<&str> {
        cells.iter().map(|c| c.label.as_str()).collect()
    }

    #[test]
    fn cross_check_keeps_only_small_one_super_shard_cells() {
        let parse = |flags: &[&str]| {
            Args::try_from_iter(flags.iter().map(|f| f.to_string())).expect("well-formed flags")
        };
        // Default knobs: the 2,500-peer cell resolves to one
        // super-shard and is the only one within the size limit.
        let spec = with_args(build(7), &parse(&[]));
        let (checked, skipped) = dense_cross_check(&spec);
        assert_eq!(labels(&checked), ["2500 peers"]);
        assert!(skipped.is_empty());
        // Four super-shards approximate cross-group paths: the cell
        // is skipped, not cross-checked.
        let grouped = with_args(build(7), &parse(&["--super-shards", "4"]));
        let (checked, skipped) = dense_cross_check(&grouped);
        assert!(checked.is_empty());
        assert_eq!(skipped, ["2500 peers"]);
    }

    #[test]
    fn check_cross_checks_a_hierarchical_run_and_rejects_doctored_reports() {
        let args = Args::default();
        let spec = || {
            let mut spec = tiny_spec(&["brute-force", "meridian", "kademlia"]);
            spec.backend = Backend::Hierarchical;
            spec
        };
        let mut report = run(spec());
        check(&spec(), &report, &args).expect("one super-shard agrees with dense");
        // A Meridian digit that dense does not reproduce.
        let ReportBody::Query(cells) = &mut report.body else {
            unreachable!("query report");
        };
        cells[0].rows[1].runs[0].p_correct_closest += 0.25;
        let err = check(&spec(), &report, &args).unwrap_err();
        assert_eq!(err, "hierarchical and dense meridian diverged at 96 peers");
        // An inexact reference fails before any cross-check runs.
        let ReportBody::Query(cells) = &mut report.body else {
            unreachable!("query report");
        };
        cells[0].rows[0].runs[0].p_correct_closest = 0.5;
        let err = check(&spec(), &report, &args).unwrap_err();
        assert_eq!(err, "brute-force degenerate at 96 peers");
    }
}
