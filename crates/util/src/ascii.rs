//! Terminal rendering of experiment output.
//!
//! The figures must show the *shape* of each paper plot without a
//! plotting stack. This module renders CDFs and x/y series as fixed-size
//! ASCII charts, with optional logarithmic axes (several paper figures use
//! log x-axes).

use crate::cdf::Cdf;

/// Axis transform for chart rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Linear,
    Log,
}

fn fwd(axis: Axis, v: f64) -> f64 {
    match axis {
        Axis::Linear => v,
        Axis::Log => v.max(1e-12).ln(),
    }
}

/// A multi-series ASCII chart on a character grid.
///
/// Build with [`Chart::new`], add series, then [`Chart::render`]. Each
/// series is drawn with its own glyph; later series overwrite earlier ones
/// where they collide (acceptable for shape inspection).
pub struct Chart {
    width: usize,
    height: usize,
    x_axis: Axis,
    y_axis: Axis,
    series: Vec<(char, Vec<(f64, f64)>)>,
    title: String,
    x_label: String,
    y_label: String,
}

impl Chart {
    /// A `width`×`height` chart (plot area; axes add a margin).
    pub fn new(title: &str, width: usize, height: usize) -> Chart {
        Chart {
            width: width.max(16),
            height: height.max(6),
            x_axis: Axis::Linear,
            y_axis: Axis::Linear,
            series: Vec::new(),
            title: title.to_string(),
            x_label: String::new(),
            y_label: String::new(),
        }
    }

    /// Set axis transforms.
    pub fn axes(mut self, x: Axis, y: Axis) -> Chart {
        self.x_axis = x;
        self.y_axis = y;
        self
    }

    /// Set axis labels.
    pub fn labels(mut self, x: &str, y: &str) -> Chart {
        self.x_label = x.to_string();
        self.y_label = y.to_string();
        self
    }

    /// Add a named series drawn with `glyph`.
    pub fn series(mut self, glyph: char, points: &[(f64, f64)]) -> Chart {
        self.series.push((glyph, points.to_vec()));
        self
    }

    /// Add a CDF as a series (downsampled to the chart width).
    pub fn cdf(self, glyph: char, cdf: &Cdf) -> Chart {
        let w = self.width;
        self.series(glyph, &cdf.points(w))
    }

    /// Render to a string. Returns a placeholder when no series has points.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        if pts.is_empty() {
            return format!("{}\n  (no data)\n", self.title);
        }
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            let (tx, ty) = (fwd(self.x_axis, x), fwd(self.y_axis, y));
            xmin = xmin.min(tx);
            xmax = xmax.max(tx);
            ymin = ymin.min(ty);
            ymax = ymax.max(ty);
        }
        if xmax - xmin < 1e-12 {
            xmax = xmin + 1.0;
        }
        if ymax - ymin < 1e-12 {
            ymax = ymin + 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (glyph, points) in &self.series {
            for &(x, y) in points {
                let tx = (fwd(self.x_axis, x) - xmin) / (xmax - xmin);
                let ty = (fwd(self.y_axis, y) - ymin) / (ymax - ymin);
                let col = ((tx * (self.width - 1) as f64).round() as usize).min(self.width - 1);
                let row = self.height
                    - 1
                    - ((ty * (self.height - 1) as f64).round() as usize).min(self.height - 1);
                grid[row][col] = *glyph;
            }
        }
        let inv = |axis: Axis, v: f64| -> f64 {
            match axis {
                Axis::Linear => v,
                Axis::Log => v.exp(),
            }
        };
        let mut out = String::new();
        out.push_str(&format!("  {}\n", self.title));
        let y_hi = inv(self.y_axis, ymax);
        let y_lo = inv(self.y_axis, ymin);
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{y_hi:>10.3}")
            } else if i == self.height - 1 {
                format!("{y_lo:>10.3}")
            } else if i == self.height / 2 && !self.y_label.is_empty() {
                let mut l = self.y_label.clone();
                l.truncate(10);
                format!("{l:>10}")
            } else {
                " ".repeat(10)
            };
            out.push_str(&label);
            out.push('|');
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&" ".repeat(10));
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        let x_lo = inv(self.x_axis, xmin);
        let x_hi = inv(self.x_axis, xmax);
        let left = format!("{x_lo:.3}");
        let right = format!("{x_hi:.3}");
        let pad = self
            .width
            .saturating_sub(left.len() + right.len())
            .max(1);
        out.push_str(&" ".repeat(11));
        out.push_str(&left);
        let mid = if self.x_label.is_empty() {
            " ".repeat(pad)
        } else {
            let lbl = &self.x_label;
            if lbl.len() + 2 <= pad {
                let side = (pad - lbl.len()) / 2;
                format!(
                    "{}{}{}",
                    " ".repeat(side),
                    lbl,
                    " ".repeat(pad - side - lbl.len())
                )
            } else {
                " ".repeat(pad)
            }
        };
        out.push_str(&mid);
        out.push_str(&right);
        out.push('\n');
        // Legend.
        if self.series.len() > 1 {
            out.push_str("  legend:");
            for (glyph, points) in &self.series {
                out.push_str(&format!(" [{glyph}]×{}", points.len()));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_simple_series() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64)).collect();
        let s = Chart::new("identity", 40, 10).series('*', &pts).render();
        assert!(s.contains("identity"));
        assert!(s.contains('*'));
        // Diagonal: the star in the top row should be right of centre.
        let rows: Vec<&str> = s.lines().collect();
        let top = rows[1];
        let bottom = rows[10];
        let top_col = top.find('*').expect("top star");
        let bottom_col = bottom.find('*').expect("bottom star");
        assert!(top_col > bottom_col, "upward slope renders as diagonal");
    }

    #[test]
    fn empty_chart_is_placeholder() {
        let s = Chart::new("nothing", 40, 10).render();
        assert!(s.contains("(no data)"));
    }

    #[test]
    fn log_axis_compresses_decades() {
        let pts = [(0.1, 1.0), (1.0, 2.0), (10.0, 3.0), (100.0, 4.0)];
        let s = Chart::new("decades", 61, 8)
            .axes(Axis::Log, Axis::Linear)
            .series('@', &pts)
            .render();
        // All four points should be visible (evenly spaced on a log axis,
        // so none collide on a 61-wide grid).
        assert_eq!(s.matches('@').count(), 4);
    }

    #[test]
    fn cdf_series_is_monotone_on_grid() {
        let c = Cdf::from_samples((0..100).map(|i| i as f64));
        let s = Chart::new("cdf", 50, 12).cdf('#', &c).render();
        assert!(s.matches('#').count() >= 10);
    }

    #[test]
    fn multi_series_legend() {
        let a = [(0.0, 0.0), (1.0, 1.0)];
        let b = [(0.0, 1.0), (1.0, 0.0)];
        let s = Chart::new("two", 30, 8)
            .series('a', &a)
            .series('b', &b)
            .render();
        assert!(s.contains("legend:"));
        assert!(s.contains("[a]"));
        assert!(s.contains("[b]"));
    }
}
