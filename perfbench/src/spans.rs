//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records one call: its name, the layer (workspace crate) it
//! entered, start and end, and the span that caused it. Spans of one run
//! share the run id. They stay in memory while the run is measured and
//! are written out once it ends, so writing them never lands inside a
//! timed interval. Nothing here reaches a sealed or hashed artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
}

/// The span recorder of one run. A disabled tracer records nothing, so
/// the untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, run: u64) -> Self {
        Tracer {
            on,
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn secs(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, layer: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` (and any left open inside it).
    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.secs(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, layer);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (used for the engine slices between two observer calls).
    pub fn record(&mut self, name: &'static str, layer: &'static str, from: Instant, to: Instant) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let (start, end) = (self.secs(from), self.secs(to));
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            start,
            end,
        });
    }

    /// Appends the spans another tracer recorded on another thread,
    /// re-based onto this epoch. They ran beside this thread's spans, not
    /// inside them, so they stay roots and subtract from no self time.
    pub fn adopt(&mut self, other: Tracer) {
        if !self.on {
            return;
        }
        let shift = other
            .epoch
            .saturating_duration_since(self.epoch)
            .as_secs_f64();
        let base = self.spans.len();
        for s in other.spans {
            self.spans.push(Span {
                id: base + s.id,
                parent: s.parent.map(|p| base + p),
                start: s.start + shift,
                end: s.end + shift,
                ..s
            });
        }
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its children cover, summed over the spans of that name.
    pub fn self_time(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end - s.start - child[s.id]).max(0.0);
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                self.run, s.id, s.name, s.layer, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 1);
        let root = t.open("root", "bench");
        std::thread::sleep(Duration::from_millis(5));
        t.span("child", "core", || {
            std::thread::sleep(Duration::from_millis(20))
        });
        t.close(root);
        let own = t.self_time();
        assert!(own["child"] >= 0.019);
        assert!(own["root"] < own["child"]);
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let v = t.span("x", "core", || 7);
        assert_eq!(v, 7);
        assert!(t.self_time().is_empty());
    }
}
