//! In-memory spans around the calls this benchmark makes into each layer.
//!
//! A span is `{name, start, end, parent, request}`; spans of one request share
//! its id. Nothing is written until the run ends. A layer's **self time** is
//! its span's duration minus the part of that interval its child spans cover
//! (children may overlap each other; the union is subtracted once). The spans
//! are recorded from this package only — spans inside the program under test
//! are a later change — so a disabled tracer must cost nothing: it never reads
//! the clock.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Spans written to the trace file; the per-name totals always cover all of
/// them, the file keeps the first this many so it stays reviewable.
pub const MAX_SPANS_WRITTEN: usize = 20_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle to an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Vec<Span>>> {
        // A panic while holding the lock cannot tear a Vec push; keep tracing.
        self.spans
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now. Close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        self.record(name, request, parent, Instant::now(), None)
    }

    /// Record a span whose start (and, with `end`, whole extent) the caller
    /// timed itself — e.g. a request span that starts at its due time.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        start: Instant,
        end: Option<Instant>,
    ) -> SpanId {
        let Some(mut spans) = self.lock() else {
            return SpanId::NONE;
        };
        let start_ns = self.ns(start);
        spans.push(Span {
            name,
            start_ns,
            end_ns: end.map_or(start_ns, |e| self.ns(e)),
            parent: parent.0,
            request,
        });
        SpanId(Some(spans.len() - 1))
    }

    pub fn close(&self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_ns = self.ns(Instant::now());
        if let Some(mut spans) = self.lock() {
            spans[index].end_ns = end_ns;
        }
    }

    /// Time `f` under a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent's own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    by_name
}

/// The trace file body: per-name totals over all spans, then the first
/// [`MAX_SPANS_WRITTEN`] spans themselves. `header` is a list of already
/// rendered `"key": value` JSON members (host descriptor, ladder, ...).
pub fn to_json(spans: &[Span], header: &[String]) -> String {
    let mut out = String::from("{\n");
    for member in header {
        out.push_str(&format!("  {member},\n"));
    }
    out.push_str(&format!(
        "  \"spans_total\": {},\n  \"spans_written\": {},\n  \"by_name\": {{\n",
        spans.len(),
        spans.len().min(MAX_SPANS_WRITTEN)
    ));
    let totals = totals_by_name(spans);
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "    \"{name}\": {{\"count\": {}, \"total_us\": {:.3}, \"self_us\": {:.3}}}",
                t.count,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n  \"spans\": [\n");
    let rows: Vec<String> = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .enumerate()
        .map(|(i, s)| {
            format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // request [0,100] ⊃ wire [10,90] ⊃ kernel [30,50]
        let spans = vec![
            span("request", 0, 100, None),
            span("wire", 10, 90, Some(0)),
            span("kernel", 30, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 60, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        // children [10,40] and [30,60] overlap by 10; [70,80] is disjoint;
        // [90,130] runs past the parent and is clipped to [90,100].
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 70, 80, Some(0)),
            span("d", 90, 130, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - (50 + 10 + 10));
        assert_eq!(&selfs[1..], &[30, 30, 10, 40]);
        // A child recorded before its sibling but starting later changes nothing.
        let mut shuffled = spans.clone();
        shuffled.swap(1, 3);
        assert_eq!(self_times_ns(&shuffled)[0], selfs[0]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("request", 0, 100, None),
            span("kernel", 10, 30, Some(0)),
            span("request", 100, 150, None),
            span("kernel", 110, 120, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["request"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 120
            }
        );
        assert_eq!(totals["kernel"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        let id = off.open("x", 1, SpanId::NONE);
        off.close(id);
        assert_eq!(off.span("y", 1, id, |_| 7), 7);
        assert!(off.snapshot().is_empty());

        let on = Tracer::new(true);
        on.span("outer", 9, SpanId::NONE, |outer| {
            on.span("inner", 9, outer, |_| ());
        });
        let spans = on.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(
            to_json(&spans, &["\"workload\": \"t\"".to_string()]).contains("\"spans_total\": 2")
        );
    }
}
