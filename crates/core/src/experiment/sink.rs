//! Report sinks: one typed [`ExperimentReport`], many output formats.
//!
//! * [`render_table`] — the generic aligned human table (figure
//!   binaries with bespoke layouts render their own from the typed
//!   report instead);
//! * [`render_json_lines`] — one JSON object per (cell, algorithm)
//!   row, machine-diffable, the `--out json` format.
//!
//! JSON is emitted by hand: the workspace builds without registry
//! access, so there is no serde; the emitter escapes strings and
//! formats floats with enough precision to round-trip `f64`.

use crate::experiment::report::{ExperimentReport, ReportBody};
use np_util::stats::RunBand;
use np_util::table::Table;
use std::fmt::Write as _;

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number for `v` (`null` for non-finite values; `{:?}` keeps
/// full `f64` round-trip precision).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn band_fields(out: &mut String, key: &str, b: RunBand) {
    let _ = write!(
        out,
        "\"{key}\":{},\"{key}_min\":{},\"{key}_max\":{}",
        json_f64(b.median),
        json_f64(b.min),
        json_f64(b.max)
    );
}

/// One JSON object per (cell, algorithm) row; study tables emit one
/// object per table row keyed by column header. Each line carries the
/// spec name, backend and seed count, so concatenated logs from many
/// runs stay self-describing.
pub fn render_json_lines(report: &ExperimentReport) -> String {
    let mut out = String::new();
    let head = format!(
        "\"spec\":\"{}\",\"backend\":\"{}\",\"runs\":{}",
        json_escape(&report.name),
        report.backend.name(),
        report.runs_per_cell
    );
    match &report.body {
        ReportBody::Query(cells) => {
            for cell in cells {
                if let Some(error) = &cell.error {
                    out.push_str(&format!(
                        "{{{head},\"cell\":\"{}\",\"error\":\"{}\"}}\n",
                        json_escape(&cell.label),
                        json_escape(error)
                    ));
                    continue;
                }
                for row in &cell.rows {
                    let mut line = String::from("{");
                    let _ = write!(
                        line,
                        "{head},\"cell\":\"{}\",\"algo\":\"{}\",\"label\":\"{}\",\"queries\":{},\"peers\":{},",
                        json_escape(&cell.label),
                        json_escape(&row.algo),
                        json_escape(&row.label),
                        row.queries,
                        cell.peers,
                    );
                    band_fields(&mut line, "p_correct_closest", row.bands.p_correct_closest);
                    line.push(',');
                    band_fields(&mut line, "p_correct_cluster", row.bands.p_correct_cluster);
                    line.push(',');
                    band_fields(
                        &mut line,
                        "median_hub_latency_wrong_ms",
                        row.bands.median_hub_latency_wrong_ms,
                    );
                    line.push(',');
                    band_fields(&mut line, "mean_stretch", row.bands.mean_stretch);
                    line.push(',');
                    band_fields(&mut line, "mean_probes", row.bands.mean_probes);
                    line.push(',');
                    band_fields(&mut line, "mean_hops", row.bands.mean_hops);
                    if let Some(churn) = &row.churn {
                        let _ = write!(
                            line,
                            ",\"churn_epochs\":{},\"churn_events\":{},\"churn_joins\":{},\
                             \"churn_leaves\":{},\"churn_drifts\":{},\"full_rebuilds\":{},\
                             \"rings_replayed\":{},\"ring_inserts\":{}",
                            churn.epochs,
                            churn.events,
                            churn.joins,
                            churn.leaves,
                            churn.drifts,
                            churn.repair.full_rebuilds,
                            churn.repair.rings_replayed,
                            churn.repair.ring_inserts,
                        );
                    }
                    let _ = write!(
                        line,
                        ",\"total_probes\":{},\"wall_s\":{},\"store_bytes\":{}}}",
                        row.total_probes,
                        json_f64(row.wall.as_secs_f64()),
                        cell.store_bytes,
                    );
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
        ReportBody::Study(study) => {
            for (name, table) in &study.tables {
                for row in table.data_rows() {
                    let mut line = String::from("{");
                    let _ = write!(line, "{head},\"table\":\"{}\"", json_escape(name));
                    for (col, cell) in table.columns().iter().zip(row) {
                        let _ = write!(line, ",\"{}\":", json_escape(col));
                        // Numbers stay numbers; everything else is a
                        // string.
                        match cell.trim().parse::<f64>() {
                            Ok(v) if v.is_finite() => {
                                let _ = write!(line, "{}", json_f64(v));
                            }
                            _ => {
                                let _ = write!(line, "\"{}\"", json_escape(cell));
                            }
                        }
                    }
                    line.push('}');
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// The generic human table: cell × algorithm, the paper's headline
/// metrics as `median [min, max]` bands.
pub fn render_table(report: &ExperimentReport) -> String {
    match &report.body {
        ReportBody::Study(study) => study.text.clone(),
        ReportBody::Query(cells) => {
            let mut t = Table::new(&[
                "cell",
                "algorithm",
                "P(correct closest)",
                "P(correct cluster)",
                "mean probes",
                "mean hops",
            ]);
            for cell in cells {
                if let Some(error) = &cell.error {
                    t.row(&[
                        cell.label.clone(),
                        format!("FAILED: {error}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    continue;
                }
                for row in &cell.rows {
                    let fmt_band = |b: RunBand| {
                        if report.runs_per_cell == 1 {
                            format!("{:.3}", b.median)
                        } else {
                            format!("{:.3} [{:.3}, {:.3}]", b.median, b.min, b.max)
                        }
                    };
                    t.row(&[
                        cell.label.clone(),
                        row.label.clone(),
                        fmt_band(row.bands.p_correct_closest),
                        fmt_band(row.bands.p_correct_cluster),
                        format!("{:.1}", row.bands.mean_probes.median),
                        format!("{:.2}", row.bands.mean_hops.median),
                    ]);
                }
            }
            t.render()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::report::{AlgoReport, CellReport};
    use crate::experiment::spec::{Backend, StudyOutput};
    use crate::runner::{PaperMetrics, RunBandMetrics};
    use std::time::Duration;

    fn metrics(p: f64) -> PaperMetrics {
        PaperMetrics {
            p_correct_closest: p,
            p_correct_cluster: 0.9,
            p_same_en: p,
            median_hub_latency_wrong_ms: 4.5,
            mean_stretch: 1.2,
            mean_probes: 40.0,
            mean_hops: 1.25,
            queries: 100,
        }
    }

    fn query_report() -> ExperimentReport {
        let runs = vec![metrics(0.25), metrics(0.5), metrics(0.75)];
        ExperimentReport {
            name: "fig8".into(),
            backend: Backend::Dense,
            threads: 2,
            runs_per_cell: 3,
            body: ReportBody::Query(vec![CellReport {
                label: "x=25".into(),
                peers: 2_500,
                clusters: 25,
                store_bytes: 25_000_000,
                build_wall: Duration::from_secs(1),
                error: None,
                rows: vec![AlgoReport {
                    algo: "meridian".into(),
                    label: "meridian".into(),
                    queries: 100,
                    bands: RunBandMetrics::of(&runs),
                    runs,
                    wall: Duration::from_millis(1500),
                    total_probes: 12_000,
                    churn: None,
                }],
            }]),
            wall: Duration::from_secs(2),
        }
    }

    #[test]
    fn json_lines_are_parseable_shape() {
        let out = render_json_lines(&query_report());
        let line = out.lines().next().expect("one row");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"spec\":\"fig8\""));
        assert!(line.contains("\"cell\":\"x=25\""));
        assert!(line.contains("\"p_correct_closest\":0.5"));
        assert!(line.contains("\"p_correct_closest_min\":0.25"));
        assert!(line.contains("\"total_probes\":12000"));
        assert_eq!(out.lines().count(), 1);
    }

    #[test]
    fn churn_rows_carry_their_accounting_in_json() {
        use crate::churn::{ChurnStats, RepairCost};
        let mut report = query_report();
        if let ReportBody::Query(cells) = &mut report.body {
            cells[0].rows[0].churn = Some(ChurnStats {
                epochs: 12,
                events: 9,
                joins: 2,
                leaves: 4,
                drifts: 3,
                repair: RepairCost {
                    full_rebuilds: 5,
                    rings_replayed: 17,
                    ring_inserts: 230,
                },
            });
        }
        let out = render_json_lines(&report);
        let line = out.lines().next().expect("one row");
        assert!(line.contains("\"churn_epochs\":12"), "{line}");
        assert!(line.contains("\"churn_leaves\":4"), "{line}");
        assert!(line.contains("\"full_rebuilds\":5"), "{line}");
        assert!(line.contains("\"rings_replayed\":17"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        // Static rows emit no churn keys at all.
        let static_out = render_json_lines(&query_report());
        assert!(!static_out.contains("churn_epochs"), "{static_out}");
    }

    #[test]
    fn table_renders_bands() {
        let out = render_table(&query_report());
        assert!(out.contains("x=25"));
        assert!(out.contains("meridian"));
        assert!(out.contains("0.500 [0.250, 0.750]"));
    }

    #[test]
    fn study_tables_become_json_rows() {
        let mut t = np_util::table::Table::new(&["k", "v"]);
        t.row(&["a".into(), "1.5".into()]);
        t.row(&["b".into(), "not-a-number".into()]);
        let report = ExperimentReport {
            name: "fig5".into(),
            backend: Backend::Dense,
            threads: 1,
            runs_per_cell: 1,
            body: ReportBody::Study(StudyOutput {
                text: "human text".into(),
                tables: vec![("latencies".into(), t)],
            }),
            wall: Duration::ZERO,
        };
        assert_eq!(render_table(&report), "human text");
        let json = render_json_lines(&report);
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"table\":\"latencies\""));
        assert!(json.contains("\"v\":1.5"));
        assert!(json.contains("\"v\":\"not-a-number\""));
    }

    #[test]
    fn failed_cells_are_marked_not_dropped() {
        let mut report = query_report();
        if let ReportBody::Query(cells) = &mut report.body {
            cells.push(CellReport::failed("x=250", "factory exploded"));
        }
        let table = render_table(&report);
        assert!(table.contains("FAILED: factory exploded"), "{table}");
        assert!(table.contains("x=25"), "healthy cells still render");
        let json = render_json_lines(&report);
        assert_eq!(json.lines().count(), 2);
        assert!(
            json.contains("\"cell\":\"x=250\",\"error\":\"factory exploded\""),
            "{json}"
        );
    }

    #[test]
    fn json_escaping_and_non_finite_floats() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
