//! Span recording for the traced pass. Spans are taken from the
//! benchmark's side of each layer boundary — around the calls into a
//! crate's public functions; there is no span inside the program yet.
//! They stay in memory until the pass ends.
//!
//! Timing does not depend on recording: [`Tracer::begin`]/[`Tracer::end`]
//! always read the clock and return the duration, and only keep a
//! [`Span`] when the tracer is on. Running the same operations with the
//! tracer off and on is therefore exactly the tracing overhead.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one operation.
    pub op_id: u64,
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &str, parent: Option<&Open>, op_id: u64) -> Open {
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: parent.and_then(|p| p.slot),
                op_id,
            });
            self.spans.len() - 1
        });
        // Clock read last, so recording cost lands outside the span.
        Open {
            slot,
            start: Instant::now(),
        }
    }

    /// Closes the span and returns its duration in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.slot {
            self.spans[i].start_ns = (open.start - self.origin).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64() * 1e3
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<&Open>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, op_id);
        let out = std::hint::black_box(f());
        (out, self.end(open))
    }
}

/// Per span name: how often it ran and its self time — its duration
/// minus the part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// The span file: every span plus the per-name self-time summary.
pub fn to_json(spans: &[Span]) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    Json::obj([
        (
            "self_time_ns",
            Json::Obj(
                self_times(spans)
                    .into_iter()
                    .map(|(name, (count, ns))| {
                        let body = Json::obj([("count", num(count)), ("self_ns", num(ns))]);
                        (name, body)
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        Json::obj([
                            ("id", num(id as u64)),
                            ("name", Json::str(&s.name)),
                            ("start_ns", num(s.start_ns)),
                            ("end_ns", num(s.end_ns)),
                            ("parent", s.parent.map_or(Json::Null, |p| num(p as u64))),
                            ("op_id", num(s.op_id)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name: &str, start_ns, end_ns, parent| Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op_id: 7,
        };
        let spans = vec![
            span("statement", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("eval", 15, 90, Some(0)),
            span("statement", 200, 260, None),
            span("eval", 210, 250, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["statement"], (2, 15 + 20));
        assert_eq!(t["eval"], (2, 75 + 40));
        assert_eq!(t["parse"], (1, 10));
        let file = to_json(&spans);
        assert_eq!(file.get("spans").unwrap().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn an_off_tracer_times_but_keeps_nothing() {
        let mut off = Tracer::new(false);
        let op = off.begin("op", None, 1);
        let (v, ms) = off.span("inner", Some(&op), 1, || 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0 && off.end(op) >= ms);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true);
        let op = on.begin("op", None, 1);
        on.span("inner", Some(&op), 1, || ());
        on.end(op);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.spans[0].end_ns >= on.spans[1].end_ns);
    }
}
