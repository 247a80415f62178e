//! Spans recorded by the benchmark's own code around its calls into
//! the layers. Spans stay in memory and are written once, at exit.
//!
//! A span is (name, start, end, parent, request id). A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover, so nested calls are never counted twice.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name (`"store.append_batch"`, `"probe.roundtrip"`, …).
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Request identifier shared by the spans of one request (frame
    /// sequence, query sequence, tick number).
    pub req: u64,
}

/// An in-memory span recorder for one thread. When off, `span` runs
/// the closure and records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`; threads of one run share
    /// the epoch so their spans line up after [`Tracer::absorb`].
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Is recording enabled?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span; its parent is the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            req,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Record a span whose endpoints were clocked by the caller (a
    /// round trip measured across a socket, say).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent,
            req,
        });
    }

    /// Take another thread's spans, re-basing their parent indexes.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: call count, summed duration, summed self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> Json {
        obj([
            ("schema", Json::Str("cwxbench-trace-v1".into())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            obj([
                                ("name", Json::Str(s.name.into())),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("req", Json::Num(s.req as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Count, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it (children may nest, touch or
/// overlap; covered time is counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in k.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children() {
        let spans = vec![
            sp("tick", 0, 100, None),      // 0
            sp("gather", 10, 30, Some(0)), // 1: child
            sp("encode", 30, 50, Some(0)), // 2: adjacent to 1
            sp("varint", 35, 45, Some(2)), // 3: nested grandchild
            sp("flush", 45, 70, Some(0)),  // 4: overlaps 2 by 5
            sp("late", 95, 120, Some(0)),  // 5: sticks out past parent
        ];
        let own = self_times(&spans);
        // tick: 100 - (10..30 + 30..50 + 50..70 + 95..100) = 100 - 65
        assert_eq!(own[0], 35);
        assert_eq!(own[1], 20);
        // encode: 20 - nested 10
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 25);
        assert_eq!(own[5], 25);
        // without overlap or leak, a tree's self times sum to its root
        let tree = &spans[..4];
        assert_eq!(self_times(tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].req), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let totals = t.totals();
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].self_ns,
            totals["outer"].total_ns
        );

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("outer", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", 0, |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("b", 1, |t| t.span("b.child", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let json = a.to_json().render();
        assert!(json.contains("\"b.child\""));
    }
}
