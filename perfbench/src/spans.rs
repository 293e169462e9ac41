//! The benchmark's own spans: one per call into a layer, recorded only in
//! the traced run, kept in memory and written out when the run ends.
//!
//! A span has a name (`layer.operation`), start and end offsets from the
//! run's start, the span that caused it and the identifier of the
//! request (query or serve step) it belongs to. Self time is the span's
//! duration minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Span recorder; a disabled recorder does nothing and reads no clock.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span ([`Spans::exit`] closes it).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time per span name, in ns, sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some(t) => t.1 += own,
                None => totals.push((s.name, own)),
            }
        }
        totals.sort();
        totals
    }

    /// Every span as one JSON object per line, then one line per span
    /// name with its total self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        for (name, ns) in self.self_times() {
            let _ = writeln!(out, "{{\"name\":\"{name}\",\"self_ns\":{ns}}}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let outer = spans.enter("outer", 0);
        spans.time("inner", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        spans.exit(outer);
        let times = spans.self_times();
        let inner = times.iter().find(|t| t.0 == "inner").unwrap().1;
        let outer = times.iter().find(|t| t.0 == "outer").unwrap().1;
        assert!(inner >= 2_000_000);
        assert!(outer < inner);
        assert_eq!(spans.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut spans = Spans::new(false);
        let id = spans.enter("x", 0);
        spans.exit(id);
        assert!(spans.self_times().is_empty());
    }
}
