//! Folding the program's own telemetry, recorded into an in-memory
//! `obs::MemorySink`, into per-layer busy times.

use mfgcp::obs::{Event, Kind, Value};

/// One closed span: name and its `[start, end]` interval in the
/// recorder's monotonic nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl SpanRec {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }

    fn contains(&self, other: &SpanRec) -> bool {
        other.start >= self.start && other.end <= self.end
    }
}

/// Every closed span in `events`, in closing order.
pub fn closed_spans(events: &[Event]) -> Vec<SpanRec> {
    events
        .iter()
        .filter(|e| e.kind == Kind::SpanClose)
        .map(|e| {
            let nanos = e.nanos.unwrap_or(0);
            SpanRec {
                name: e.name,
                start: e.t_nanos.saturating_sub(nanos),
                end: e.t_nanos,
            }
        })
        .collect()
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e6)
        .collect()
}

/// Spans called `name` that lie inside `outer`.
pub fn inside<'a>(
    spans: &'a [SpanRec],
    outer: &'a SpanRec,
    name: &'a str,
) -> impl Iterator<Item = &'a SpanRec> {
    spans
        .iter()
        .filter(move |s| s.name == name && outer.contains(s))
}

/// Self time of the spans called `parent`: their total duration minus
/// the union of the intervals of their `children` spans (spans nest by
/// time; the solver runs one solve at a time on the calling thread).
/// Returns `(self_nanos, total_nanos)`.
pub fn self_time(spans: &[SpanRec], parent: &str, children: &[&str]) -> (u64, u64) {
    let mut self_ns = 0u64;
    let mut total_ns = 0u64;
    for p in spans.iter().filter(|s| s.name == parent) {
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| children.contains(&s.name) && p.contains(s))
            .map(|s| (s.start, s.end))
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        total_ns += p.nanos();
        self_ns += p.nanos().saturating_sub(covered);
    }
    (self_ns, total_ns)
}

/// Sum of the unsigned field `field` over events called `name`.
pub fn field_sum(events: &[Event], name: &str, field: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| match e.field(field) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        })
        .sum()
}
