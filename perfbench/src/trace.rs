//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out when the run ends.
//!
//! A span names its layer (the crate whose public function it wraps),
//! the call, and the span that caused it. Self time is a span's
//! duration minus the time its children account for:
//!
//! - an *in-place* child ran inside its cause's interval (the benchmark
//!   wrapped a call made from within another wrapped region); the union
//!   of those intervals, clipped to the cause, is subtracted;
//! - a *replayed* child stands for work the program does inside the
//!   cause where the benchmark cannot put a span (PageRank inside
//!   `GraphEncoder::encode`), so the same call was repeated on the same
//!   input and timed on its own; its duration is subtracted.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span; children name their cause by it.
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub cause: Option<SpanId>,
    pub layer: &'static str,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; when disabled every method runs the
/// wrapped call and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `call` inside a span. `call` receives the span's id (`None`
    /// when disabled) so calls it makes can name it as their cause.
    pub fn span<T>(
        &self,
        cause: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let open = self.open(cause, layer, name);
        let out = call(open.id());
        open.close(self);
        out
    }

    /// Opens a span; close it with [`OpenSpan::close`]. Its id is
    /// reserved now, so children recorded while it is open can name it.
    pub fn open(&self, cause: Option<SpanId>, layer: &'static str, name: &'static str) -> OpenSpan {
        self.open_span(cause, layer, name, false)
    }

    fn open_span(
        &self,
        cause: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        replayed: bool,
    ) -> OpenSpan {
        if !self.enabled {
            return OpenSpan { id: None };
        }
        let mut spans = self.spans.lock().expect("no span recorder panics");
        let id = spans.len() as SpanId;
        let start_ns = self.now_ns();
        spans.push(Span {
            id,
            cause,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            replayed,
        });
        OpenSpan { id: Some(id) }
    }

    /// Runs `call` as a replayed child of `cause` (see the module docs).
    pub fn replay<T>(
        &self,
        cause: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let open = self.open_span(cause, layer, name, true);
        let out = call();
        open.close(self);
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span recorder panics").clone()
    }
}

/// A span opened with [`Tracer::open`].
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct OpenSpan {
    id: Option<SpanId>,
}

impl OpenSpan {
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    pub fn close(self, tracer: &Tracer) {
        if let Some(id) = self.id {
            let end_ns = tracer.now_ns();
            tracer.spans.lock().expect("no span recorder panics")[id as usize].end_ns = end_ns;
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// in-place children's intervals (clipped to it) minus its replayed
/// children's durations, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if let Some(cause) = span.cause {
            children.entry(cause).or_default().push(span);
        }
    }
    spans
        .iter()
        .map(|span| {
            let Some(kids) = children.get(&span.id) else {
                return span.duration_ns();
            };
            let replayed: u64 = kids
                .iter()
                .filter(|k| k.replayed)
                .map(|k| k.duration_ns())
                .sum();
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .filter(|k| !k.replayed)
                .map(|k| (k.start_ns.max(span.start_ns), k.end_ns.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration_ns()
                .saturating_sub(covered)
                .saturating_sub(replayed)
        })
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer).or_insert(0) += own;
    }
    by_layer
}

/// The trace as JSON lines: one summary object (`header` merged with
/// per-layer self time), then one object per span.
pub fn render(spans: &[Span], header: &str) -> String {
    let mut out = String::new();
    let layers: Vec<String> = self_time_by_layer(spans)
        .iter()
        .map(|(layer, ns)| format!("\"{layer}\": {}", *ns as f64 / 1e6))
        .collect();
    let _ = writeln!(
        out,
        "{{{header}, \"spans\": {}, \"self_ms_by_layer\": {{{}}}}}",
        spans.len(),
        layers.join(", ")
    );
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let cause = span
            .cause
            .map_or_else(|| "null".to_string(), |c| c.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"cause\": {cause}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"replayed\": {}}}",
            span.id, span.layer, span.name, span.start_ns, span.end_ns, span.replayed
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        cause: Option<SpanId>,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        replayed: bool,
    ) -> Span {
        Span {
            id,
            cause,
            layer,
            name: "call",
            start_ns,
            end_ns,
            replayed,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_in_place_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (two client
        // threads), 90..120 sticks out past the parent's end.
        let spans = vec![
            span(0, None, "bench", 0, 100, false),
            span(1, Some(0), "netserve", 10, 40, false),
            span(2, Some(0), "netserve", 30, 60, false),
            span(3, Some(0), "netserve", 90, 120, false),
        ];
        // Covered: 10..60 (50) + 90..100 (10) = 60.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 40);
        assert_eq!(by_layer["netserve"], 90);
    }

    #[test]
    fn self_time_subtracts_replayed_children_by_duration() {
        // encode took 100 ns; its PageRank, replayed outside it, took 30.
        let spans = vec![
            span(0, None, "graphhd", 0, 100, false),
            span(1, Some(0), "graphcore", 100, 130, true),
        ];
        assert_eq!(self_times(&spans), vec![70, 30]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![
            span(0, None, "graphhd", 0, 10, false),
            span(1, Some(0), "graphcore", 20, 50, true),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_records_causes_and_nothing_when_disabled() {
        let tracer = Tracer::new(true);
        let root = tracer.open(None, "bench", "root");
        let child = tracer.span(root.id(), "graphhd", "encode", |id| id);
        let value = tracer.replay(child, "graphcore", "pagerank", || 5);
        root.close(&tracer);
        assert_eq!(value, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].cause, Some(0));
        assert_eq!(spans[2].cause, child);
        assert!(spans[2].replayed);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let off = Tracer::new(false);
        let root = off.open(None, "bench", "root");
        assert_eq!(root.id(), None);
        let id = off.span(None, "graphhd", "encode", |id| id);
        root.close(&off);
        assert_eq!(id, None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn render_writes_a_summary_then_one_line_per_span() {
        let spans = vec![
            span(0, None, "bench", 0, 1_000_000, false),
            span(1, Some(0), "engine", 0, 250_000, false),
        ];
        let text = render(&spans, "\"workload\": \"w\"");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            crate::json::parse(line).expect("every line is JSON");
        }
        assert!(lines[0].contains("\"bench\": 0.75"));
        assert!(lines[0].contains("\"engine\": 0.25"));
    }
}
