//! **Ext B** spec: §2.2's assumption violations measured — growth
//! constant, greedy doubling-cover size and Levina–Bickel intrinsic
//! dimension over a growth-friendly uniform world and the paper's
//! cluster worlds. Honours `--world hierarchical` through the
//! experiment layer's `ScenarioHandle`.

use np_core::experiment::{AlgoSpec, CellSpec, ScenarioHandle, StudyCtx, StudyOutput};
use np_metric::diagnostics::assumption_report;
use np_metric::{LatencyMatrix, PeerId};
use np_util::rng::rng_for;
use np_util::table::{fmt_f, Table};
use np_util::Micros;
use std::fmt::Write as _;

/// The measurement stage.
pub fn study(ctx: &StudyCtx) -> StudyOutput {
    let mut out = String::new();
    let mut table = Table::new(&[
        "world",
        "growth max",
        "growth p95",
        "doubling (greedy)",
        "intrinsic dim",
    ]);
    // Uniform reference world: peers on a 30x30 grid, 2 ms spacing.
    let uniform = LatencyMatrix::build(900, |a, b| {
        let (ax, ay) = (a.idx() % 30, a.idx() / 30);
        let (bx, by) = (b.idx() % 30, b.idx() / 30);
        Micros::from_ms(
            (((ax as f64 - bx as f64).powi(2) + (ay as f64 - by as f64).powi(2)).sqrt() * 2.0)
                .max(0.1),
        )
    });
    let members: Vec<PeerId> = (0..900).map(PeerId).collect();
    let mut rng = rng_for(ctx.seed, 1);
    let r = assumption_report(&uniform, &members, &mut rng);
    table.row(&[
        "uniform grid".into(),
        fmt_f(r.growth_max.unwrap_or(f64::NAN)),
        fmt_f(r.growth_p95.unwrap_or(f64::NAN)),
        r.doubling.to_string(),
        fmt_f(r.intrinsic_dim.unwrap_or(f64::NAN)),
    ]);
    for &x in &[5usize, 25, 125] {
        // Build through the experiment layer's scenario handle so the
        // diagnostics honour the backend selection.
        let cell = CellSpec::paper(
            format!("x={x}"),
            x,
            0.2,
            ctx.seed.wrapping_add(x as u64),
            0,
            vec![AlgoSpec::new("brute-force")],
        );
        let scenario =
            ScenarioHandle::build(&cell, ctx.backend, cell.base_seed, ctx.threads);
        let members: Vec<PeerId> = scenario.overlay().to_vec();
        let mut rng = rng_for(ctx.seed, 2 + x as u64);
        let r = assumption_report(scenario.store(), &members, &mut rng);
        table.row(&[
            format!("cluster world x={x} ({})", ctx.backend.name()),
            fmt_f(r.growth_max.unwrap_or(f64::NAN)),
            fmt_f(r.growth_p95.unwrap_or(f64::NAN)),
            r.doubling.to_string(),
            fmt_f(r.intrinsic_dim.unwrap_or(f64::NAN)),
        ]);
        eprintln!("x={x} done");
    }
    let _ = write!(out, "{}", table.render());
    StudyOutput {
        text: out,
        tables: vec![("ext_assumptions".into(), table)],
    }
}
