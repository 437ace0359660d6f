//! In-memory spans around calls into each layer, written out when the
//! run ends, and the per-layer self-time table derived from them.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the request (or pipeline pass) it belongs to. Self time is a
//! span's duration minus the part of its interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and only runs the
/// wrapped calls, so the same code path serves untraced runs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span whose interval was measured by the caller; returns
    /// its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Writes the per-layer self-time table as aligned text.
    pub fn write_self_times(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{:<28} {:>9} {:>14} {:>14} {:>12}",
            "span", "count", "total_ms", "self_ms", "self_us_avg"
        )?;
        for (name, t) in self.layer_times() {
            writeln!(
                out,
                "{:<28} {:>9} {:>14.3} {:>14.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / t.count.max(1) as f64
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per span name: duration minus the union of its children's
/// intervals inside it.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur - covered(kids, s.start_ns, s.end_ns).min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps `a`: the union, not the sum, is subtracted.
            span("b", Some(0), 30, 60),
            // Sticks out of the parent: only the inside part counts.
            span("c", Some(0), 90, 120),
            span("leaf", Some(1), 15, 20),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["request"].self_ns, 100 - 50 - 10);
        assert_eq!(t["a"].self_ns, 30 - 5);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].total_ns, 30);
        assert_eq!(t["leaf"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let v = tracer.span("x", None, 1, || 42);
        assert_eq!(v, 42);
        assert!(tracer.spans().is_empty());
    }
}
