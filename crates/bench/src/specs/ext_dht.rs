//! **Ext F** spec: structured-overlay searchers — Kademlia's iterative
//! XOR-metric lookup and the NSW latency-space graph walk — against the
//! brute-force and Meridian reference points at the paper's δ=0.2 /
//! 125-end-network configuration.
//!
//! The question (ROADMAP "DHT and graph-walk searchers"): does the
//! paper's "nearest peer is hard" finding survive structured-overlay
//! search? Kademlia converges in a metric uncorrelated with latency, so
//! its frontier is a cheap random latency sample; NSW is latency-aware
//! but greedy descent strands on cluster-local minima. The stretch
//! column (mean RTT(found)/RTT(true nearest)) quantifies how far from
//! optimal each answer lands even when it is not the literal nearest.

use crate::cli::{Args, Rendered};
use np_core::experiment::{
    AlgoFactory, AlgoSpec, Backend, CellSpec, ExperimentReport, ExperimentSpec, SeedPlan,
};
use np_dht::{KademliaConfig, KademliaFactory, NswConfig, NswFactory};
use np_util::table::{fmt_f, fmt_prob, Table};

/// One parameterised searcher variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtVariant {
    Kademlia(KademliaConfig),
    Nsw(NswConfig),
}

/// The variant grid: `(registry name, display label, config)` — the
/// standard `kademlia`/`nsw` entries carry the default configs and are
/// registered separately by [`crate::registry::full_registry`].
pub fn variants() -> Vec<(&'static str, &'static str, DhtVariant)> {
    vec![
        (
            "kademlia-a1",
            "Kademlia alpha=1 (serial lookup)",
            DhtVariant::Kademlia(KademliaConfig { k: 8, alpha: 1 }),
        ),
        (
            "kademlia-k16",
            "Kademlia k=16 frontier",
            DhtVariant::Kademlia(KademliaConfig { k: 16, alpha: 3 }),
        ),
        (
            "nsw-m10",
            "NSW M=10 links",
            DhtVariant::Nsw(NswConfig { m: 10, starts: 3 }),
        ),
        (
            "nsw-s1",
            "NSW single-start walk",
            DhtVariant::Nsw(NswConfig { m: 5, starts: 1 }),
        ),
    ]
}

/// The variant factories (registered by
/// [`crate::registry::full_registry`] next to the standard
/// `kademlia`/`nsw` entries).
pub fn variant_factories() -> Vec<Box<dyn AlgoFactory>> {
    variants()
        .into_iter()
        .map(|(name, _, v)| match v {
            DhtVariant::Kademlia(cfg) => {
                Box::new(KademliaFactory::with_config(name, cfg)) as Box<dyn AlgoFactory>
            }
            DhtVariant::Nsw(cfg) => Box::new(NswFactory::with_config(name, cfg)),
        })
        .collect()
}

/// The dual-budget Ext F spec at `seed`.
pub fn build(seed: u64) -> ExperimentSpec {
    let mut algos = vec![
        AlgoSpec::labelled("brute-force", "brute force (reference)"),
        AlgoSpec::labelled("meridian", "meridian (paper baseline)"),
        AlgoSpec::labelled("kademlia", "Kademlia k=8, alpha=3"),
    ];
    for (name, label, v) in variants() {
        if matches!(v, DhtVariant::Kademlia(_)) {
            algos.push(AlgoSpec::labelled(name, label));
        }
    }
    algos.push(AlgoSpec::labelled("nsw", "NSW M=5, 3 starts"));
    for (name, label, v) in variants() {
        if matches!(v, DhtVariant::Nsw(_)) {
            algos.push(AlgoSpec::labelled(name, label));
        }
    }
    let cells =
        vec![CellSpec::paper("x=125", 125, 0.2, seed, 2_000, algos).with_quick_queries(300)];
    let mut spec = ExperimentSpec::query(
        "ext_dht",
        "Ext F — structured-overlay searchers at x=125, delta=0.2",
        "XOR convergence is latency-blind and greedy descent strands on cluster minima",
        Backend::Dense,
        SeedPlan::Single,
        cells,
    );
    spec.base_seed = seed;
    spec
}

/// The Ext F self-check. The reference row must stay exact with unit
/// stretch — `mean_stretch` reading the wrong RTT pair would corrupt
/// the whole stretch column — every row must count probes and keep
/// stretch at or above 1, and both searcher families must actually
/// walk (nonzero hops).
pub fn check(_: &ExperimentSpec, report: &ExperimentReport, _: &Args) -> Result<(), String> {
    for cell in report.query_cells().unwrap_or_default() {
        for row in &cell.rows {
            let searcher = row.algo.starts_with("kademlia") || row.algo.starts_with("nsw");
            for m in &row.runs {
                let exact = m.p_correct_closest == 1.0 && m.mean_stretch == 1.0;
                let broken = if row.algo == "brute-force" && !exact {
                    "the reference must stay exact with unit stretch"
                } else if !(m.mean_probes > 0.0 && m.mean_stretch >= 1.0) {
                    "probes must be counted and stretch is bounded below by 1"
                } else if searcher && m.mean_hops <= 0.0 {
                    "structured searchers must hop"
                } else {
                    continue;
                };
                return Err(format!("{}: {broken} ({})", row.algo, cell.label));
            }
        }
    }
    Ok(())
}

/// The Ext F table renderer: accuracy, stretch, hop and probe columns.
pub fn render(report: &ExperimentReport, _args: &Args) -> Rendered {
    let mut table = Table::new(&[
        "algorithm",
        "P(correct closest)",
        "P(correct cluster)",
        "stretch",
        "mean probes",
        "mean hops",
    ]);
    let prob = |b: np_util::stats::RunBand| {
        if report.runs_per_cell == 1 {
            fmt_prob(b.median)
        } else {
            crate::cli::band(b)
        }
    };
    for cell in report.query_cells().unwrap_or_default() {
        if let Some(error) = &cell.error {
            let mut row = vec![format!("FAILED: {error}")];
            row.resize(6, "-".into());
            table.row(&row);
            continue;
        }
        for row in &cell.rows {
            let b = &row.bands;
            table.row(&[
                row.label.clone(),
                prob(b.p_correct_closest),
                prob(b.p_correct_cluster),
                fmt_f(b.mean_stretch.median),
                fmt_f(b.mean_probes.median),
                fmt_f(b.mean_hops.median),
            ]);
        }
    }
    Rendered {
        body: table.render(),
        csv: Some(table.to_csv()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::experiment::ReportBody;

    #[test]
    fn spec_validates_and_names_both_families() {
        let spec = build(42);
        spec.validate().expect("valid built-in spec");
        assert_eq!(spec.name, "ext_dht");
        let np_core::experiment::Workload::QueryMatrix(cells) = &spec.workload else {
            panic!("ext_dht is a query spec");
        };
        let cell = &cells[0];
        let names: Vec<&str> = cell.algos.iter().map(|a| a.name.as_str()).collect();
        for expected in [
            "brute-force",
            "meridian",
            "kademlia",
            "kademlia-a1",
            "kademlia-k16",
            "nsw",
            "nsw-m10",
            "nsw-s1",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert!(cell.quick_queries.is_some(), "dual-budget cell");
    }

    #[test]
    fn check_accepts_a_genuine_run_and_rejects_doctored_reports() {
        let args = Args::default();
        let spec = || crate::specs::tests::tiny_spec(&["brute-force", "kademlia", "nsw"]);
        let mut report = crate::specs::tests::run(spec());
        check(&spec(), &report, &args).expect("a genuine run passes");
        let ReportBody::Query(cells) = &mut report.body else {
            unreachable!("query report");
        };
        cells[0].rows[2].runs[0].mean_hops = 0.0;
        let err = check(&spec(), &report, &args).unwrap_err();
        assert!(err.contains("nsw: structured searchers must hop"), "{err}");
        let ReportBody::Query(cells) = &mut report.body else {
            unreachable!("query report");
        };
        cells[0].rows[0].runs[0].mean_stretch = 1.5;
        let err = check(&spec(), &report, &args).unwrap_err();
        assert!(err.contains("unit stretch"), "{err}");
    }

    #[test]
    fn variant_factories_cover_the_grid() {
        let factories = variant_factories();
        assert_eq!(factories.len(), variants().len());
        for (f, (name, _, _)) in factories.iter().zip(variants()) {
            assert_eq!(f.name(), name);
            assert!(!f.description().is_empty());
        }
    }
}
