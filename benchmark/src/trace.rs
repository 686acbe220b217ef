//! The benchmark's clock and its in-memory span recorder.
//!
//! Spans are recorded only in traced repetitions; they stay in memory
//! and are written out with the result file when the run ends. A span
//! carries its name, start and end (ns since the recorder's origin),
//! its parent, and a group id naming the repetition and the seed or
//! phase it belongs to.

use std::time::Instant;

/// The one place the benchmark reads the wall clock.
pub fn now() -> Instant {
    Instant::now() // np-lint: allow(D2) — benchmark timing only; never feeds PaperMetrics or answers
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: usize,
    pub parent: Option<usize>,
    /// Repetition plus seed or phase, e.g. `rep0/seed1`.
    pub group: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans while enabled; costs one branch per call when
/// disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str, group: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.ns(now());
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent: self.open.last().copied(),
            group: group.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.ns(now());
        }
    }

    /// Run `f` as one leaf span and return its result with its wall
    /// time in seconds (measured whether or not tracing is on).
    pub fn timed<R>(&mut self, name: &str, group: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, group);
        let t = now();
        let out = f();
        let secs = secs_since(t);
        self.end(id);
        (out, secs)
    }

    /// Number of spans recorded so far (a mark for [`Tracer::since`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Self time per span name over `spans`: each span's duration minus the
/// durations of its direct children, summed by name. `spans` must hold
/// every child of every span it holds (a whole repetition does).
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let first = spans.first().map_or(0, |s| s.id);
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p >= first) {
            child_secs[p - first] += s.secs();
        }
    }
    let mut out: Vec<(String, f64)> = Vec::new();
    for (s, kids) in spans.iter().zip(&child_secs) {
        let own = (s.secs() - kids).max(0.0);
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += own,
            None => out.push((s.name.clone(), own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            id,
            parent,
            group: "g".into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("rep", 0, None, 0, 100),
            span("seed", 1, Some(0), 10, 90),
            span("a", 2, Some(1), 10, 40),
            span("b", 3, Some(1), 40, 80),
            span("a", 4, Some(0), 90, 95),
        ];
        let st = self_times(&spans);
        let get = |n: &str| st.iter().find(|(k, _)| k == n).expect("present").1;
        assert!((get("rep") - 15e-9).abs() < 1e-15);
        assert!((get("seed") - 10e-9).abs() < 1e-15);
        assert!((get("a") - 35e-9).abs() < 1e-15);
        assert!((get("b") - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new();
        let (v, secs) = t.timed("x", "g", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let outer = t.begin("outer", "g");
        t.timed("inner", "g", || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
