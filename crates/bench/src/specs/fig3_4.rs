//! **Figures 3 & 4** spec: the DNS-pair latency-prediction study.
//!
//! Paper series: Fig 3 is the cumulative distribution of the prediction
//! measure (predicted ÷ King-measured) over 18,019 DNS-server pairs,
//! ≈65 % of them within [0.5, 2]; Fig 4 is the per-bin
//! 5/25/50/75/95-percentiles of the measure vs. predicted latency (log
//! x), rising with predicted latency, plus bin populations.
//!
//! `--show-tree` (a passthrough flag) additionally renders a Figure
//! 2-style sample traceroute tree.

use np_cluster::dns::{run, DnsStudyConfig};
use np_core::experiment::{Backend, ExperimentSpec, StudyCtx, StudyOutput};
use np_topology::{HostId, InternetModel, WorldParams};
use np_util::ascii::{Axis, Chart};
use np_util::binned::{BinScale, BinnedScatter};
use np_util::table::{fmt_f, Table};
use std::fmt::Write as _;

/// The measurement stage.
pub fn study(ctx: &StudyCtx) -> StudyOutput {
    let mut out = String::new();
    let params = if ctx.quick {
        WorldParams::quick_scale()
    } else {
        WorldParams::paper_scale()
    };
    let world = InternetModel::generate(params, ctx.seed);
    eprintln!(
        "world: {} pops, {} dns servers",
        world.n_pops(),
        world.n_dns()
    );
    if ctx.flags.iter().any(|a| a == "--show-tree") {
        let mut tracer = np_probe::Tracer::new(&world, np_probe::NoiseConfig::default(), ctx.seed);
        let targets: Vec<HostId> = world.dns_servers().take(8).collect();
        let _ = writeln!(out, "--- Figure 2-style sample trace tree ---");
        let _ = writeln!(out, "{}", tracer.trace_tree(0, &targets));
    }
    let study = run(&world, DnsStudyConfig::default(), ctx.seed);
    let _ = writeln!(
        out,
        "servers mapped to a PoP: {} / {}",
        study.mapped_servers,
        world.n_dns()
    );
    let _ = writeln!(
        out,
        "retained pairs: {}   (dropped: same-domain {}, negative {}, hops {}, cap {}, unmeasurable {})",
        study.pairs.len(),
        study.dropped_same_domain,
        study.dropped_negative,
        study.dropped_hops,
        study.dropped_predicted_cap,
        study.dropped_unmeasurable
    );
    let cdf = study.ratio_cdf();
    let _ = writeln!(
        out,
        "\nFigure 3: fraction of pairs with prediction measure in [0.5, 2]: {:.3}  (paper: ~0.65)",
        study.fraction_in_band()
    );
    let mut t3 = Table::new(&["ratio <=", "cumulative count", "fraction"]);
    for x in [0.25, 0.5, 0.7, 1.0, 1.4, 2.0, 4.0] {
        t3.row(&[
            format!("{x}"),
            cdf.count_le(x).to_string(),
            format!("{:.3}", cdf.fraction_le(x)),
        ]);
    }
    let _ = writeln!(out, "{}", t3.render());
    let _ = writeln!(
        out,
        "{}",
        Chart::new("Fig 3: CDF of prediction measure (log x)", 64, 12)
            .axes(Axis::Log, Axis::Linear)
            .labels("predicted/measured", "F")
            .cdf('#', &cdf)
            .render()
    );

    // Figure 4.
    let scatter = BinnedScatter::build(&study.scatter(), 12, BinScale::Log);
    let mut t4 = Table::new(&["pred.lat (ms)", "p5", "p25", "median", "p75", "p95", "#pairs"]);
    let mut med_pts = Vec::new();
    for b in scatter.bins() {
        t4.row(&[
            fmt_f(b.x),
            fmt_f(b.band.p5),
            fmt_f(b.band.p25),
            fmt_f(b.band.p50),
            fmt_f(b.band.p75),
            fmt_f(b.band.p95),
            b.count.to_string(),
        ]);
        med_pts.push((b.x, b.band.p50));
    }
    let _ = writeln!(out, "Figure 4: binned prediction measure vs predicted latency");
    let _ = writeln!(out, "{}", t4.render());
    let _ = write!(
        out,
        "{}",
        Chart::new("Fig 4: median prediction measure vs predicted latency", 64, 12)
            .axes(Axis::Log, Axis::Log)
            .labels("predicted (ms)", "ratio")
            .series('m', &med_pts)
            .render()
    );
    StudyOutput {
        text: out,
        tables: vec![("fig3_cdf".into(), t3), ("fig4_binned".into(), t4)],
    }
}

/// The Figures 3 & 4 study spec at `seed`.
pub fn build(seed: u64) -> ExperimentSpec {
    ExperimentSpec::study(
        "fig3_4",
        "Figures 3 & 4 — DNS-pair prediction measure",
        "~65% of pairs within [0.5, 2]; per-bin medians rise with predicted latency",
        Backend::Dense,
        seed,
        false,
        Vec::new(),
        study,
    )
}
