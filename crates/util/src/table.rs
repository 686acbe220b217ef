//! Aligned text tables.
//!
//! `np-bench run` prints, for every paper figure, the series the paper
//! reports as an aligned table (`--out json` carries the same rows for
//! further processing). README's `EXPERIMENTS` section lists the
//! figures.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: append a row of displayable items.
    pub fn row_display<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// The column headers (structured sinks key JSON rows on these).
    pub fn columns(&self) -> &[String] {
        &self.header
    }

    /// The data rows, in insertion order.
    pub fn data_rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let mut line = String::new();
        for (c, h) in self.header.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", h, w = widths[c]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (c, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>w$}  ", cell, w = widths[c]);
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Format a probability as the paper prints them (two decimals, e.g. `0.35`).
pub fn fmt_prob(p: f64) -> String {
    format!("{p:.3}")
}

/// Format a float with sensible width for tables.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["x", "value"]);
        t.row(&["1".into(), "short".into()]);
        t.row(&["2000".into(), "longer-value".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Right-aligned: both rows end at the same column for field 1.
        assert!(lines[2].ends_with("short"));
        assert!(lines[3].ends_with("longer-value"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn row_display_and_len() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row_display(&[1, 2, 3]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn number_formats() {
        assert_eq!(fmt_prob(0.3456), "0.346");
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(0.1234), "0.1234");
        assert_eq!(fmt_f(12.345), "12.35");
        assert_eq!(fmt_f(1234.6), "1235");
    }
}
