//! In-memory spans recorded around the calls into each layer, written as
//! JSON lines when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Scenario leg the span belongs to (empty for the pipeline).
    pub leg: &'static str,
    pub sample: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time direct children cover.
    pub fn self_ns(&self) -> u64 {
        self.ns().saturating_sub(self.child_ns)
    }
}

/// A span recorder. A disabled recorder does nothing, so the timed samples
/// and the traced samples run the same code.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub sample: usize,
    pub leg: &'static str,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sample: 0,
            leg: "",
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            leg: self.leg,
            sample: self.sample,
            start_ns: self.now_ns(),
            end_ns: 0,
            child_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end_ns = now;
        if let Some(parent) = self.spans[id].parent {
            self.spans[parent].child_ns += self.spans[id].ns();
        }
    }

    /// Closes every open span, after a sample that failed part-way.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"leg\":\"{}\",\"sample\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.leg,
                s.sample,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Trace::new(true);
        t.begin("e2e");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let children = spans[1].ns() + spans[2].ns();
        assert_eq!(spans[0].self_ns(), spans[0].ns() - children);
        assert_eq!(t.to_jsonl("w").lines().count(), 3);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
