//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (name, start, end, parent, request id), kept
//! in memory, and written once at the end as Chrome `trace_event` JSON.
//! A layer's self time is its span minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// Index of an open span, handed back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Collects spans against one host-clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            req,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Wall time of a closed span in nanoseconds.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id.0];
        s.end_ns - s.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over the spans in `range`: `(spans, total self ns)`,
/// given every span's self time from [`self_times`].
pub fn totals_by_name(
    spans: &[Span],
    self_ns: &[u64],
    range: Range<usize>,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for i in range {
        let e = out.entry(spans[i].name).or_default();
        e.0 += 1;
        e.1 += self_ns[i];
    }
    out
}

/// Chrome `trace_event` JSON (complete `X` events, microsecond times).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
            sp.name,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
        );
        if let Some(p) = sp.parent {
            let _ = write!(s, ",\"parent\":{p}");
        }
        if let Some(r) = sp.req {
            let _ = write!(s, ",\"req\":{r}");
        }
        s.push_str("}}");
    }
    s.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, req: None }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("stage.a", 10, 30, Some(0)),
            span("stage.b", 30, 70, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),  // overhangs the start
            span("b", 120, 160, Some(0)), // overlaps a
            span("c", 190, 230, Some(0)), // overhangs the end
        ];
        // covered: [100,160) + [190,200) = 70 → self 30
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn self_time_totals_by_name() {
        let spans = vec![
            span("request", 0, 100, None),
            span("stage", 0, 40, Some(0)),
            span("request", 100, 150, None),
            span("stage", 100, 150, Some(2)),
        ];
        let self_ns = self_times(&spans);
        let by = totals_by_name(&spans, &self_ns, 0..spans.len());
        assert_eq!(by["request"], (2, 60));
        assert_eq!(by["stage"], (2, 90));
        // A sub-range aggregates only its own spans.
        let second = totals_by_name(&spans, &self_ns, 2..4);
        assert_eq!(second["request"], (1, 0));
        assert_eq!(second["stage"], (1, 50));
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, None);
        let v = t.scope("child", Some(root), Some(7), || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = chrome_trace(t.spans());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"req\":7"));
        assert!(json.contains("\"parent\":0"));
    }
}
