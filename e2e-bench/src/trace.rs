//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as a chrome://tracing file when the run ends.
//!
//! A span has a name, start, end, parent and request id. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover, so nested layers are never counted twice.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Where a new span hangs: its parent span (if any), request and thread.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub parent: Option<u32>,
    pub request: u64,
    pub thread: u32,
}

impl Ctx {
    /// A root context for one request.
    pub fn root(request: u64, thread: u32) -> Ctx {
        Ctx {
            parent: None,
            request,
            thread,
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn span<T>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, self.id(), ctx, start, end);
        out
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(&self, name: &'static str, id: u32, ctx: Ctx, start: Instant, end: Instant) {
        let span = Span {
            name,
            id,
            parent: ctx.parent,
            request: ctx.request,
            thread: ctx.thread,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// A fresh span id, for spans recorded with [`Tracer::record`].
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Self time of every span in nanoseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let own = s.end_ns.saturating_sub(s.start_ns);
            (
                s.id,
                own.saturating_sub(covered(s.start_ns, s.end_ns, kids)),
            )
        })
        .collect()
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self times grouped by span name, in microseconds.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let ns = selfs.get(&s.id).copied().unwrap_or(0);
        out.entry(s.name).or_default().push(ns as f64 / 1e3);
    }
    out
}

/// For each span named `root`: the milliseconds its child spans cover,
/// i.e. its duration minus its own self time.
pub fn covered_ms(spans: &[Span], root: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| {
            let own = s.end_ns.saturating_sub(s.start_ns);
            own.saturating_sub(selfs.get(&s.id).copied().unwrap_or(0)) as f64 / 1e6
        })
        .collect()
}

/// chrome://tracing (Perfetto) JSON: one complete (`"X"`) event per span.
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Json::Num(f64::from(s.id))),
                ("request".to_string(), Json::Num(s.request as f64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::Num(f64::from(p))));
            }
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(f64::from(s.thread))),
                ("args".into(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 1,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 1, None, 0, 100),
            span("a", 2, Some(1), 10, 30),
            span("b", 3, Some(1), 20, 50), // overlaps a: union is 10..50
            span("c", 4, Some(1), 90, 120), // runs past the parent: clipped
            span("leaf", 5, Some(2), 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 2);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 2);
        let by_name = self_us_by_name(&spans);
        assert_eq!(by_name["request"], vec![0.05]);
    }

    #[test]
    fn tracer_links_children_to_parents_and_exports_chrome_json() {
        let t = Tracer::new();
        let outer_id = t.id();
        let start = Instant::now();
        let child = Ctx {
            parent: Some(outer_id),
            ..Ctx::root(7, 0)
        };
        t.span("inner", child, || std::hint::black_box(1 + 1));
        t.record("outer", outer_id, Ctx::root(7, 0), start, Instant::now());
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.request, outer.parent), (7, None));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = Json::parse(&chrome_json(&spans)).expect("valid JSON");
        assert_eq!(
            json.get("traceEvents")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
