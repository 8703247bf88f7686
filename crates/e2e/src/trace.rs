//! Outside-in spans: the benchmark wraps each call it makes into a layer of
//! the program in a span, keeps the spans in memory, and writes them out as
//! Chrome-trace JSON when the traced child ends. Spans *inside* the program
//! are a later change (ROADMAP items 1 and 3); until then a layer's time is
//! what its public entry points cost when called from here.
//!
//! A disabled tracer makes `begin`/`end` one branch each, so the timed
//! rounds and the traced child run the same loop code.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dbs3_engine.submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one query (0 = set-up and probes).
    pub query: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::new(false, Instant::now())
    }

    /// A recording tracer whose timestamps count from `origin` (threads of
    /// one run share an origin so their spans line up in the trace file).
    pub fn enabled(origin: Instant) -> Self {
        Tracer::new(true, origin)
    }

    fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, query: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        self.begin_at(name, query, Instant::now())
    }

    /// Like [`Self::begin`] with an explicit start (an open-loop request
    /// starts when it was *due*, which may be before the generator got to
    /// it).
    pub fn begin_at(&mut self, name: &'static str, query: u64, at: Instant) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span (and any span left open inside it).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children of one parent never overlap (one thread, strictly nested
/// begin/end), so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, c)| span.duration_ns().saturating_sub(c))
        .collect()
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Renders per-thread span lists as Chrome-trace JSON (`chrome://tracing`,
/// Perfetto): one complete (`"ph": "X"`) event per span, `tid` = position
/// in `threads`, and the span's query id, parent index and self time under
/// `args`.
pub fn chrome_trace_json(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        let self_ns = self_times_ns(spans);
        for (index, span) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = span.parent.map_or(-1, |p| p as i64);
            // Span names are `&'static str` identifiers from this crate —
            // no characters that need JSON escaping.
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"query\": {}, \"index\": {}, \"parent\": {}, \
                 \"self_us\": {:.3}}}}}",
                span.name,
                tid,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.query,
                index,
                parent,
                self_ns[index] as f64 / 1e3,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("query", 0, 1_000, None),
            span("dbs3_engine.submit", 100, 300, Some(0)),
            span("dbs3_engine.wait", 300, 900, Some(0)),
            // A grandchild shortens its parent's self time, not the root's.
            span("inner", 400, 500, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 200, 500, 100]);
        assert_eq!(durations_ms(&spans, "dbs3_engine.wait"), vec![0.0006]);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::enabled(Instant::now());
        let q = t.begin("query", 7);
        let s = t.begin("dbs3_engine.submit", 7);
        t.end(s);
        let w = t.begin("dbs3_engine.wait", 7);
        t.end(w);
        t.end(q);
        let probe = t.begin("probe", 0);
        t.end(probe);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Children never exceed their parent, so self time is well defined.
        let selfs = self_times_ns(spans);
        assert!(selfs[0] <= spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let q = t.begin("query", 1);
        t.end(q);
        assert!(t.spans().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn closing_a_parent_closes_forgotten_children() {
        let mut t = Tracer::enabled(Instant::now());
        let q = t.begin("query", 1);
        let _leaked = t.begin("dbs3_engine.submit", 1);
        t.end(q);
        let next = t.begin("query", 2);
        t.end(next);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let threads = vec![
            vec![span("query", 0, 2_000, None), span("a", 0, 500, Some(0))],
            vec![span("query", 10, 20, None)],
        ];
        let json = chrome_trace_json(&threads);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"self_us\": 1.500"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
