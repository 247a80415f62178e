//! The aggregation query engine (paper §5.1's "charts over a selected
//! time interval", grown into a real read path).
//!
//! Three layers live here:
//!
//! * **The canonical windowed fold** — [`aggregate`], [`merge_buckets`]
//!   and the incremental [`fold_sample`]/[`fold_bucket`] primitives.
//!   Merge rollups, `range_agg` and the query engine all go
//!   through these; there is exactly one aggregation code path in the
//!   crate.
//! * **Query evaluation** — [`QuerySpec`] (windowed function over a
//!   time range, evaluated per [`QueryGroup`] of nodes) is answered by
//!   k-way **merge iterators** (`SampleMerge`/`BucketMerge`) that
//!   stream time-ordered over per-series sources (decoded segment
//!   blocks held by `Arc`, memtable snapshots) instead of
//!   materializing and re-sorting whole ranges. Windows are
//!   epoch-aligned and *complete*: `from`/`to` widen to window
//!   boundaries so a tier-served answer and a raw-served answer see
//!   the same samples. [`select_tier`] picks the coarsest stored tier
//!   whose buckets nest exactly inside the window; percentiles and
//!   `rate` need individual samples and always scan raw.
//! * **Admission control** — [`QueryExecutor`], a bounded worker pool
//!   with a queue-depth cap and a per-query scanned-samples budget so
//!   N dashboard-shaped clients cannot starve ingest. Over-budget or
//!   over-queue queries fail fast with [`QueryError`] instead of
//!   piling onto the shard locks.
//!
//! Memory bounds: a raw-path query holds the `Arc`s of the blocks its
//! cursors point into plus, for percentile functions, the values of
//! the *single open window* (the merged stream is time-ordered, so
//! windows close in order). A tier-path query holds one small
//! accumulator per output window. The scanned-samples budget caps both.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

use cwx_util::time::SimTime;

use crate::segment::SeriesData;
use crate::{AggBucket, Resolution, Sample, Store};

// ---------------------------------------------------------------------
// the canonical windowed fold

/// Floor a time to an epoch-aligned window start.
pub fn floor_to(t: SimTime, width_nanos: u64) -> SimTime {
    let w = width_nanos.max(1);
    SimTime::from_nanos(t.as_nanos() / w * w)
}

/// A one-sample bucket (its own window start; callers re-floor).
pub fn bucket_of(s: Sample) -> AggBucket {
    AggBucket {
        start: s.time,
        count: 1,
        min: s.value,
        mean: s.value,
        max: s.value,
        last: s.value,
    }
}

/// Merge one sample into a bucket accumulator (incremental mean).
pub fn bucket_add_sample(b: &mut AggBucket, value: f64) {
    b.count += 1;
    b.min = b.min.min(value);
    b.max = b.max.max(value);
    b.mean += (value - b.mean) / b.count as f64;
    b.last = value;
}

/// Merge a finer bucket into a wider accumulator (count-weighted mean;
/// `fine` must be at or after `w` in time so `last` stays the newest).
pub fn bucket_add_bucket(w: &mut AggBucket, fine: &AggBucket) {
    let total = w.count + fine.count;
    w.mean = (w.mean * w.count as f64 + fine.mean * fine.count as f64) / total as f64;
    w.count = total;
    w.min = w.min.min(fine.min);
    w.max = w.max.max(fine.max);
    w.last = fine.last;
}

/// Fold one sample into epoch-aligned buckets; `out` must be fed
/// time-ordered input (the bucket merged into is always the last).
pub fn fold_sample(out: &mut Vec<AggBucket>, s: Sample, width_nanos: u64) {
    let start = floor_to(s.time, width_nanos);
    match out.last_mut() {
        Some(b) if b.start == start => bucket_add_sample(b, s.value),
        _ => out.push(AggBucket {
            start,
            ..bucket_of(s)
        }),
    }
}

/// Fold one (finer) bucket into epoch-aligned wider buckets; means are
/// combined count-weighted. Like [`fold_sample`], expects time order.
pub fn fold_bucket(out: &mut Vec<AggBucket>, b: &AggBucket, width_nanos: u64) {
    let start = floor_to(b.start, width_nanos);
    match out.last_mut() {
        Some(w) if w.start == start => bucket_add_bucket(w, b),
        _ => out.push(AggBucket { start, ..*b }),
    }
}

/// Aggregate time-ordered samples into fixed-width buckets aligned to
/// the epoch (so buckets from different flushes line up).
pub fn aggregate(samples: &[Sample], width_nanos: u64) -> Vec<AggBucket> {
    let mut out = Vec::new();
    for &s in samples {
        fold_sample(&mut out, s, width_nanos);
    }
    out
}

/// Combine fine buckets into wider epoch-aligned buckets.
pub fn merge_buckets(fine: &[AggBucket], width_nanos: u64) -> Vec<AggBucket> {
    let mut out = Vec::new();
    for b in fine {
        fold_bucket(&mut out, b, width_nanos);
    }
    out
}

// ---------------------------------------------------------------------
// query model

/// Aggregation function applied per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Per-window rate of change: `(last - first) / seconds-spanned`.
    Rate,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum of values.
    Sum,
    /// Sample count.
    Count,
    /// 50th percentile (nearest-rank).
    P50,
    /// 95th percentile (nearest-rank).
    P95,
    /// 99th percentile (nearest-rank).
    P99,
}

impl AggFunc {
    /// Parse a CLI/wire name (`"p99"`, `"avg"`, …).
    pub fn parse(s: &str) -> Option<AggFunc> {
        Some(match s {
            "rate" => AggFunc::Rate,
            "avg" | "mean" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "sum" => AggFunc::Sum,
            "count" => AggFunc::Count,
            "p50" => AggFunc::P50,
            "p95" => AggFunc::P95,
            "p99" => AggFunc::P99,
            _ => return None,
        })
    }

    /// Canonical name (inverse of [`AggFunc::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Rate => "rate",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::P50 => "p50",
            AggFunc::P95 => "p95",
            AggFunc::P99 => "p99",
        }
    }

    /// Can this function be computed from stored min/mean/max/count
    /// buckets? Percentiles and `rate` need the individual samples.
    pub fn tier_serveable(self) -> bool {
        matches!(
            self,
            AggFunc::Avg | AggFunc::Min | AggFunc::Max | AggFunc::Sum | AggFunc::Count
        )
    }

    fn percentile(self) -> Option<f64> {
        match self {
            AggFunc::P50 => Some(50.0),
            AggFunc::P95 => Some(95.0),
            AggFunc::P99 => Some(99.0),
            _ => None,
        }
    }
}

/// One group of nodes aggregated together (e.g. a rack).
#[derive(Debug, Clone)]
pub struct QueryGroup {
    /// Display key (`"rack3"`, `"node17"`, `"all"`, …).
    pub key: String,
    /// Member nodes; their series merge into one windowed result.
    pub nodes: Vec<u32>,
}

/// A windowed aggregation query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Monitor name (`"cpu.util"`, …).
    pub monitor: String,
    /// Range start; widened down to the containing window boundary.
    pub from: SimTime,
    /// Range end; widened up to the containing window's last nanosecond.
    pub to: SimTime,
    /// Output window width in nanoseconds.
    pub window_nanos: u64,
    /// Function evaluated per window per group.
    pub agg: AggFunc,
    /// Node groups; each yields one series in the result.
    pub groups: Vec<QueryGroup>,
    /// Per-query scanned-entries budget (samples + buckets); `0`
    /// means "no explicit budget" (the executor fills in its default).
    pub max_scan: u64,
}

impl QuerySpec {
    /// The complete-window bounds actually evaluated.
    pub fn window_bounds(&self) -> (SimTime, SimTime) {
        let w = self.window_nanos.max(1);
        let from = floor_to(self.from, w);
        let to = SimTime::from_nanos((self.to.as_nanos() / w * w).saturating_add(w - 1));
        (from, to)
    }

    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        if self.window_nanos == 0 {
            return Err(QueryError::BadQuery("window must be non-zero".into()));
        }
        if self.monitor.is_empty() {
            return Err(QueryError::BadQuery("empty monitor name".into()));
        }
        if self.from > self.to {
            return Err(QueryError::BadQuery("from > to".into()));
        }
        Ok(())
    }
}

/// One output window of one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggPoint {
    /// Window start.
    pub start: SimTime,
    /// The aggregated value.
    pub value: f64,
    /// Samples that contributed.
    pub count: u64,
}

/// One group's windowed series.
#[derive(Debug, Clone)]
pub struct GroupSeries {
    /// The group key from the spec.
    pub key: String,
    /// Windows in time order (empty windows are omitted).
    pub points: Vec<AggPoint>,
}

/// How a query was answered (the E17 bench attributes tier wins here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// The tier selected for the window ([`Resolution::Raw`] when the
    /// function or window forced a raw scan).
    pub tier: Resolution,
    /// Raw samples folded (un-tiered segments and memtables included).
    pub scanned_raw: u64,
    /// Pre-aggregated buckets folded.
    pub scanned_buckets: u64,
    /// Shards with no companion at the selected tier (finer/raw served).
    pub fallback_shards: u64,
}

impl Default for QueryStats {
    fn default() -> Self {
        QueryStats {
            tier: Resolution::Raw,
            scanned_raw: 0,
            scanned_buckets: 0,
            fallback_shards: 0,
        }
    }
}

/// A complete query answer.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// One series per requested group, in spec order.
    pub groups: Vec<GroupSeries>,
    /// Evaluation counters.
    pub stats: QueryStats,
}

/// Why a query was refused or aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Admission control: the executor queue is full.
    Overloaded {
        /// Queries already waiting when this one was shed.
        queued: usize,
    },
    /// The query would scan more entries than its budget allows.
    BudgetExceeded {
        /// Entries the query wanted to scan when it tripped.
        scanned: u64,
        /// The budget it tripped over.
        budget: u64,
    },
    /// Malformed query.
    BadQuery(String),
    /// The executor is shutting down.
    Closed,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Overloaded { queued } => {
                write!(f, "query shed: executor queue full ({queued} waiting)")
            }
            QueryError::BudgetExceeded { scanned, budget } => {
                write!(f, "query over scan budget ({scanned} > {budget} entries)")
            }
            QueryError::BadQuery(why) => write!(f, "bad query: {why}"),
            QueryError::Closed => write!(f, "query executor closed"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Coarsest stored tier that can answer `agg` over `window_nanos`
/// exactly: bucket width must divide the window so tier buckets nest
/// inside output windows. Returns [`Resolution::Raw`] when no tier
/// qualifies (sub-10s windows, percentiles, `rate`).
pub fn select_tier(window_nanos: u64, agg: AggFunc) -> Resolution {
    if !agg.tier_serveable() {
        return Resolution::Raw;
    }
    for res in Resolution::TIERS.iter().rev() {
        let w = res.bucket_nanos().expect("tiers have widths");
        if window_nanos >= w && window_nanos.is_multiple_of(w) {
            return *res;
        }
    }
    Resolution::Raw
}

// ---------------------------------------------------------------------
// merge iterators

/// A time-ordered cursor over one series' samples from one source —
/// either a decoded segment block (kept alive by its `Arc`, so the
/// block cache can evict underneath) or an owned snapshot (memtable).
#[derive(Debug)]
pub(crate) struct SampleCursor {
    block: Option<Arc<SeriesData>>,
    owned: Vec<Sample>,
    pos: usize,
    end: usize,
}

impl SampleCursor {
    pub(crate) fn from_block(block: Arc<SeriesData>, from: SimTime, to: SimTime) -> SampleCursor {
        let (pos, end) = match &*block {
            SeriesData::Raw(s) => bounds(s, from, to),
            SeriesData::Buckets(_) => (0, 0),
        };
        SampleCursor {
            block: Some(block),
            owned: Vec::new(),
            pos,
            end,
        }
    }

    pub(crate) fn from_owned(samples: Vec<Sample>, from: SimTime, to: SimTime) -> SampleCursor {
        let (pos, end) = bounds(&samples, from, to);
        SampleCursor {
            block: None,
            owned: samples,
            pos,
            end,
        }
    }

    fn samples(&self) -> &[Sample] {
        match &self.block {
            Some(b) => match &**b {
                SeriesData::Raw(s) => s,
                SeriesData::Buckets(_) => &[],
            },
            None => &self.owned,
        }
    }

    /// In-range samples left to stream (the scan-budget contribution).
    pub(crate) fn remaining(&self) -> u64 {
        (self.end - self.pos) as u64
    }

    fn peek(&self) -> Option<Sample> {
        (self.pos < self.end).then(|| self.samples()[self.pos])
    }
}

fn bounds(samples: &[Sample], from: SimTime, to: SimTime) -> (usize, usize) {
    let pos = samples.partition_point(|s| s.time < from);
    let end = samples.partition_point(|s| s.time <= to);
    (pos, end.max(pos))
}

/// K-way merge over [`SampleCursor`]s, yielding samples in time order
/// (ties broken by source index, preserving segment-then-memtable
/// order within a series).
#[derive(Debug)]
pub(crate) struct SampleMerge {
    cursors: Vec<SampleCursor>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl SampleMerge {
    pub(crate) fn new(cursors: Vec<SampleCursor>) -> SampleMerge {
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter().enumerate() {
            if let Some(s) = c.peek() {
                heap.push(Reverse((s.time.as_nanos(), i)));
            }
        }
        SampleMerge { cursors, heap }
    }
}

impl Iterator for SampleMerge {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        let Reverse((_, i)) = self.heap.pop()?;
        let c = &mut self.cursors[i];
        let s = c.peek().expect("heap entry implies a peekable cursor");
        c.pos += 1;
        if let Some(n) = c.peek() {
            self.heap.push(Reverse((n.time.as_nanos(), i)));
        }
        Some(s)
    }
}

/// Bucket equivalent of [`SampleCursor`] over a tier block.
#[derive(Debug)]
pub(crate) struct BucketCursor {
    block: Arc<SeriesData>,
    pos: usize,
    end: usize,
}

impl BucketCursor {
    pub(crate) fn from_block(block: Arc<SeriesData>, from: SimTime, to: SimTime) -> BucketCursor {
        let (pos, end) = match &*block {
            SeriesData::Buckets(b) => {
                let pos = b.partition_point(|x| x.start < from);
                let end = b.partition_point(|x| x.start <= to);
                (pos, end.max(pos))
            }
            SeriesData::Raw(_) => (0, 0),
        };
        BucketCursor { block, pos, end }
    }

    fn buckets(&self) -> &[AggBucket] {
        match &*self.block {
            SeriesData::Buckets(b) => b,
            SeriesData::Raw(_) => &[],
        }
    }

    /// In-range buckets left to stream.
    pub(crate) fn remaining(&self) -> u64 {
        (self.end - self.pos) as u64
    }

    fn peek(&self) -> Option<AggBucket> {
        (self.pos < self.end).then(|| self.buckets()[self.pos])
    }
}

/// K-way merge over [`BucketCursor`]s by bucket start.
#[derive(Debug)]
pub(crate) struct BucketMerge {
    cursors: Vec<BucketCursor>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl BucketMerge {
    pub(crate) fn new(cursors: Vec<BucketCursor>) -> BucketMerge {
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter().enumerate() {
            if let Some(b) = c.peek() {
                heap.push(Reverse((b.start.as_nanos(), i)));
            }
        }
        BucketMerge { cursors, heap }
    }
}

impl Iterator for BucketMerge {
    type Item = AggBucket;

    fn next(&mut self) -> Option<AggBucket> {
        let Reverse((_, i)) = self.heap.pop()?;
        let c = &mut self.cursors[i];
        let b = c.peek().expect("heap entry implies a peekable cursor");
        c.pos += 1;
        if let Some(n) = c.peek() {
            self.heap.push(Reverse((n.start.as_nanos(), i)));
        }
        Some(b)
    }
}

// ---------------------------------------------------------------------
// window accumulation

/// Accumulator for one output window.
#[derive(Debug)]
struct WinAcc {
    bucket: AggBucket,
    sum: f64,
    first: f64,
    first_time: SimTime,
    last_time: SimTime,
    /// Individual values, kept only for percentile functions.
    values: Vec<f64>,
}

impl WinAcc {
    fn from_sample(start: SimTime, s: Sample, keep_values: bool) -> WinAcc {
        WinAcc {
            bucket: AggBucket {
                start,
                ..bucket_of(s)
            },
            sum: s.value,
            first: s.value,
            first_time: s.time,
            last_time: s.time,
            values: if keep_values {
                vec![s.value]
            } else {
                Vec::new()
            },
        }
    }

    fn push_sample(&mut self, s: Sample, keep_values: bool) {
        bucket_add_sample(&mut self.bucket, s.value);
        self.sum += s.value;
        self.last_time = s.time;
        if keep_values {
            self.values.push(s.value);
        }
    }

    fn finish(mut self, agg: AggFunc) -> AggPoint {
        let b = self.bucket;
        let value = match agg {
            AggFunc::Avg => b.mean,
            AggFunc::Min => b.min,
            AggFunc::Max => b.max,
            AggFunc::Sum => self.sum,
            AggFunc::Count => b.count as f64,
            AggFunc::Rate => {
                let dt = self
                    .last_time
                    .as_nanos()
                    .saturating_sub(self.first_time.as_nanos());
                if b.count < 2 || dt == 0 {
                    0.0
                } else {
                    (b.last - self.first) / (dt as f64 / 1e9)
                }
            }
            AggFunc::P50 | AggFunc::P95 | AggFunc::P99 => {
                let p = agg.percentile().expect("percentile func");
                self.values
                    .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let n = self.values.len();
                if n == 0 {
                    0.0
                } else {
                    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
                    self.values[rank - 1]
                }
            }
        };
        AggPoint {
            start: b.start,
            value,
            count: b.count,
        }
    }
}

/// Fold a time-ordered sample stream into windowed points. Only the
/// current window's accumulator (and, for percentiles, its values) is
/// held at any moment.
pub(crate) fn fold_stream<I: Iterator<Item = Sample>>(
    stream: I,
    agg: AggFunc,
    width_nanos: u64,
) -> Vec<AggPoint> {
    let keep_values = agg.percentile().is_some();
    let mut out = Vec::new();
    let mut open: Option<WinAcc> = None;
    for s in stream {
        let start = floor_to(s.time, width_nanos);
        match &mut open {
            Some(acc) if acc.bucket.start == start => acc.push_sample(s, keep_values),
            _ => {
                if let Some(done) = open.take() {
                    out.push(done.finish(agg));
                }
                open = Some(WinAcc::from_sample(start, s, keep_values));
            }
        }
    }
    if let Some(done) = open {
        out.push(done.finish(agg));
    }
    out
}

/// Windowed accumulation keyed by window start, for tier-served
/// queries whose contributions (tier buckets from several segments,
/// per-shard raw samples of un-tiered segments and memtables) do not
/// arrive globally time-ordered. Only
/// tier-serveable functions use this, so no per-value buffering.
#[derive(Debug)]
pub(crate) struct WindowMap {
    width: u64,
    map: BTreeMap<u64, (AggBucket, f64)>,
}

impl WindowMap {
    pub(crate) fn new(width_nanos: u64) -> WindowMap {
        WindowMap {
            width: width_nanos.max(1),
            map: BTreeMap::new(),
        }
    }

    pub(crate) fn fold_bucket(&mut self, b: &AggBucket) {
        let start = floor_to(b.start, self.width);
        match self.map.get_mut(&start.as_nanos()) {
            Some((w, sum)) => {
                bucket_add_bucket(w, b);
                *sum += b.mean * b.count as f64;
            }
            None => {
                self.map.insert(
                    start.as_nanos(),
                    (AggBucket { start, ..*b }, b.mean * b.count as f64),
                );
            }
        }
    }

    pub(crate) fn fold_sample(&mut self, s: Sample) {
        self.fold_bucket(&bucket_of(s));
    }

    pub(crate) fn finish(self, agg: AggFunc) -> Vec<AggPoint> {
        self.map
            .into_values()
            .map(|(b, sum)| AggPoint {
                start: b.start,
                value: match agg {
                    AggFunc::Avg => b.mean,
                    AggFunc::Min => b.min,
                    AggFunc::Max => b.max,
                    AggFunc::Sum => sum,
                    AggFunc::Count => b.count as f64,
                    _ => unreachable!("non-tier-serveable func in WindowMap"),
                },
                count: b.count,
            })
            .collect()
    }
}

/// Evaluate `spec` against any `fetch(node, monitor, from, to)` range
/// reader — the default [`Store::query`] path for backends without
/// stored tiers.
pub fn run_over_ranges<F>(spec: &QuerySpec, fetch: F) -> Result<QueryResult, QueryError>
where
    F: Fn(u32, &str, SimTime, SimTime) -> Vec<Sample>,
{
    spec.validate()?;
    let (from, to) = spec.window_bounds();
    let budget = if spec.max_scan == 0 {
        u64::MAX
    } else {
        spec.max_scan
    };
    let mut stats = QueryStats::default();
    let mut groups = Vec::with_capacity(spec.groups.len());
    for g in &spec.groups {
        let cursors: Vec<SampleCursor> = g
            .nodes
            .iter()
            .map(|&n| SampleCursor::from_owned(fetch(n, &spec.monitor, from, to), from, to))
            .collect();
        let scan: u64 = cursors.iter().map(|c| c.remaining()).sum();
        stats.scanned_raw += scan;
        if stats.scanned_raw + stats.scanned_buckets > budget {
            return Err(QueryError::BudgetExceeded {
                scanned: stats.scanned_raw + stats.scanned_buckets,
                budget,
            });
        }
        let points = fold_stream(SampleMerge::new(cursors), spec.agg, spec.window_nanos);
        groups.push(GroupSeries {
            key: g.key.clone(),
            points,
        });
    }
    Ok(QueryResult { groups, stats })
}

// ---------------------------------------------------------------------
// admission-controlled executor

/// Admission-control knobs for a [`QueryExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct QueryLimits {
    /// Worker threads evaluating queries.
    pub workers: usize,
    /// Queries allowed to wait; one more is shed with
    /// [`QueryError::Overloaded`].
    pub max_queue: usize,
    /// Default per-query scanned-entries budget applied when a spec
    /// does not set its own.
    pub max_scanned_samples: u64,
}

impl Default for QueryLimits {
    fn default() -> Self {
        QueryLimits {
            workers: 2,
            max_queue: 32,
            max_scanned_samples: 8_000_000,
        }
    }
}

/// Executor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries evaluated (errors included).
    pub completed: u64,
    /// Queries refused by admission control.
    pub shed: u64,
    /// Completed queries that returned an error.
    pub errors: u64,
    /// Queries waiting right now.
    pub queued_now: usize,
    /// Queries evaluating right now.
    pub active_now: usize,
}

struct Job {
    spec: QuerySpec,
    done: Box<dyn FnOnce(Result<QueryResult, QueryError>) + Send>,
}

struct ExecShared {
    store: Arc<dyn Store>,
    limits: QueryLimits,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    active: AtomicUsize,
}

/// A bounded worker pool evaluating [`QuerySpec`]s against a shared
/// store, with queue-depth admission control so dashboard fan-in
/// degrades by shedding queries instead of starving ingest.
pub struct QueryExecutor {
    shared: Arc<ExecShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for QueryExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryExecutor")
            .field("limits", &self.shared.limits)
            .finish_non_exhaustive()
    }
}

impl QueryExecutor {
    /// Spawn `limits.workers` threads over `store`.
    pub fn new(store: Arc<dyn Store>, limits: QueryLimits) -> QueryExecutor {
        let limits = QueryLimits {
            workers: limits.workers.max(1),
            max_queue: limits.max_queue,
            ..limits
        };
        let shared = Arc::new(ExecShared {
            store,
            limits,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        });
        let workers = (0..limits.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cwx-query-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn query worker")
            })
            .collect();
        QueryExecutor {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Non-blocking admission: queue the query and invoke `done` from a
    /// worker thread, or refuse with [`QueryError::Overloaded`] /
    /// [`QueryError::Closed`] without invoking `done`.
    pub fn try_submit(
        &self,
        spec: QuerySpec,
        done: impl FnOnce(Result<QueryResult, QueryError>) + Send + 'static,
    ) -> Result<(), QueryError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(QueryError::Closed);
        }
        let mut q = self.shared.queue.lock().unwrap();
        if q.len() >= self.shared.limits.max_queue {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(QueryError::Overloaded { queued: q.len() });
        }
        q.push_back(Job {
            spec,
            done: Box::new(done),
        });
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Submit and block for the answer (CLI / bench convenience).
    pub fn execute(&self, spec: QuerySpec) -> Result<QueryResult, QueryError> {
        let (tx, rx) = mpsc::channel();
        self.try_submit(spec, move |r| {
            let _ = tx.send(r);
        })?;
        rx.recv().map_err(|_| QueryError::Closed)?
    }

    /// Counters so far.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            queued_now: self.shared.queue.lock().unwrap().len(),
            active_now: self.shared.active.load(Ordering::Relaxed),
        }
    }

    /// The configured limits.
    pub fn limits(&self) -> QueryLimits {
        self.shared.limits
    }
}

impl Drop for QueryExecutor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        // answer anything still queued so waiters unblock
        let mut q = self.shared.queue.lock().unwrap();
        for job in q.drain(..) {
            (job.done)(Err(QueryError::Closed));
        }
    }
}

fn worker_loop(shared: Arc<ExecShared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        shared.active.fetch_add(1, Ordering::Relaxed);
        let mut spec = job.spec;
        if spec.max_scan == 0 {
            spec.max_scan = shared.limits.max_scanned_samples;
        }
        let result = shared.store.query(&spec);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        (job.done)(result);
        shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;
    use cwx_util::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn tier_selection_prefers_coarsest_dividing_tier() {
        assert_eq!(select_tier(3_600 * SEC, AggFunc::Avg), Resolution::OneHour);
        assert_eq!(
            select_tier(2 * 3_600 * SEC, AggFunc::Max),
            Resolution::OneHour
        );
        assert_eq!(
            select_tier(600 * SEC, AggFunc::Avg),
            Resolution::FiveMinutes
        );
        assert_eq!(select_tier(30 * SEC, AggFunc::Sum), Resolution::TenSeconds);
        assert_eq!(select_tier(5 * SEC, AggFunc::Avg), Resolution::Raw);
        // 90s is not a multiple of 300s but is of 10s
        assert_eq!(
            select_tier(90 * SEC, AggFunc::Count),
            Resolution::TenSeconds
        );
        // percentiles and rate always need raw samples
        assert_eq!(select_tier(3_600 * SEC, AggFunc::P99), Resolution::Raw);
        assert_eq!(select_tier(3_600 * SEC, AggFunc::Rate), Resolution::Raw);
    }

    #[test]
    fn fold_stream_merges_multi_series_windows() {
        let a: Vec<Sample> = (0..20)
            .map(|i| Sample {
                time: t(i),
                value: i as f64,
            })
            .collect();
        let b: Vec<Sample> = (0..20)
            .map(|i| Sample {
                time: t(i),
                value: 100.0 + i as f64,
            })
            .collect();
        let merge = SampleMerge::new(vec![
            SampleCursor::from_owned(a, SimTime::ZERO, SimTime::MAX),
            SampleCursor::from_owned(b, SimTime::ZERO, SimTime::MAX),
        ]);
        let points = fold_stream(merge, AggFunc::Max, 10 * SEC);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].count, 20);
        assert_eq!(points[0].value, 109.0);
        assert_eq!(points[1].value, 119.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s: Vec<Sample> = (1..=100)
            .map(|i| Sample {
                time: t(i),
                value: i as f64,
            })
            .collect();
        let merge = |agg| fold_stream(s.iter().copied(), agg, 1_000_000 * SEC)[0].value;
        assert_eq!(merge(AggFunc::P50), 50.0);
        assert_eq!(merge(AggFunc::P95), 95.0);
        assert_eq!(merge(AggFunc::P99), 99.0);
    }

    #[test]
    fn rate_is_delta_over_seconds() {
        let s = vec![
            Sample {
                time: t(0),
                value: 10.0,
            },
            Sample {
                time: t(5),
                value: 20.0,
            },
            Sample {
                time: t(10),
                value: 40.0,
            },
        ];
        let p = fold_stream(s.into_iter(), AggFunc::Rate, 60 * SEC);
        assert_eq!(p.len(), 1);
        assert!((p[0].value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_map_matches_stream_fold_for_tier_funcs() {
        let samples: Vec<Sample> = (0..100)
            .map(|i| Sample {
                time: t(i),
                value: (i * 7 % 13) as f64,
            })
            .collect();
        for agg in [
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Sum,
            AggFunc::Count,
        ] {
            let streamed = fold_stream(samples.iter().copied(), agg, 30 * SEC);
            let mut wm = WindowMap::new(30 * SEC);
            // feed out of order to prove ordering independence
            for s in samples.iter().rev() {
                wm.fold_sample(*s);
            }
            let mapped = wm.finish(agg);
            assert_eq!(streamed.len(), mapped.len());
            for (a, b) in streamed.iter().zip(&mapped) {
                assert_eq!(a.start, b.start);
                assert_eq!(a.count, b.count);
                assert!((a.value - b.value).abs() < 1e-9, "{agg:?}");
            }
        }
    }

    fn mem_with_two_nodes() -> Arc<MemStore> {
        let m = Arc::new(MemStore::new(4096));
        for i in 0..60u64 {
            m.append(0, "cpu", t(i), i as f64);
            m.append(1, "cpu", t(i), 1000.0 + i as f64);
        }
        m
    }

    fn spec(agg: AggFunc, groups: Vec<QueryGroup>) -> QuerySpec {
        QuerySpec {
            monitor: "cpu".into(),
            from: SimTime::ZERO,
            to: t(59),
            window_nanos: 30 * SEC,
            agg,
            groups,
            max_scan: 0,
        }
    }

    #[test]
    fn store_default_query_groups_nodes() {
        let m = mem_with_two_nodes();
        let r = m
            .query(&spec(
                AggFunc::Max,
                vec![
                    QueryGroup {
                        key: "g0".into(),
                        nodes: vec![0],
                    },
                    QueryGroup {
                        key: "both".into(),
                        nodes: vec![0, 1],
                    },
                ],
            ))
            .unwrap();
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[0].points[0].value, 29.0);
        assert_eq!(r.groups[1].points[0].value, 1029.0);
        assert_eq!(r.groups[1].points[0].count, 60);
        assert_eq!(r.stats.tier, Resolution::Raw);
        assert_eq!(r.stats.scanned_raw, 60 + 120);
    }

    #[test]
    fn budget_refuses_oversized_scans() {
        let m = mem_with_two_nodes();
        let mut s = spec(
            AggFunc::Avg,
            vec![QueryGroup {
                key: "all".into(),
                nodes: vec![0, 1],
            }],
        );
        s.max_scan = 10;
        match m.query(&s) {
            Err(QueryError::BudgetExceeded { budget: 10, .. }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn executor_answers_and_sheds() {
        let m = mem_with_two_nodes();
        let exec = QueryExecutor::new(
            m,
            QueryLimits {
                workers: 1,
                max_queue: 1,
                max_scanned_samples: 1_000_000,
            },
        );
        // hold the single worker in a gated callback; the queue then
        // fills to its cap of 1 and further submissions must shed
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        exec.try_submit(
            QuerySpec {
                monitor: "cpu".into(),
                from: SimTime::ZERO,
                to: t(59),
                window_nanos: SEC,
                agg: AggFunc::Avg,
                groups: vec![QueryGroup {
                    key: "g".into(),
                    nodes: vec![0],
                }],
                max_scan: 0,
            },
            move |_| {
                let _ = gate_rx.recv();
            },
        )
        .unwrap();
        let mut shed = false;
        for _ in 0..1000 {
            match exec.try_submit(
                spec(
                    AggFunc::Avg,
                    vec![QueryGroup {
                        key: "g".into(),
                        nodes: vec![0],
                    }],
                ),
                |_| {},
            ) {
                Err(QueryError::Overloaded { .. }) => {
                    shed = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        drop(gate_tx);
        assert!(shed, "queue-depth admission control never shed");
        assert!(exec.stats().shed >= 1);
    }

    #[test]
    fn executor_executes_after_load() {
        let m = mem_with_two_nodes();
        let exec = QueryExecutor::new(m, QueryLimits::default());
        let r = exec
            .execute(spec(
                AggFunc::Count,
                vec![QueryGroup {
                    key: "all".into(),
                    nodes: vec![0, 1],
                }],
            ))
            .unwrap();
        assert_eq!(r.groups[0].points.iter().map(|p| p.count).sum::<u64>(), 120);
        let st = exec.stats();
        assert_eq!(st.completed, 1);
        assert_eq!(st.errors, 0);
    }

    #[test]
    fn bad_specs_rejected() {
        let m = mem_with_two_nodes();
        let mut s = spec(AggFunc::Avg, vec![]);
        s.window_nanos = 0;
        assert!(matches!(m.query(&s), Err(QueryError::BadQuery(_))));
        let mut s = spec(AggFunc::Avg, vec![]);
        s.from = t(10);
        s.to = t(1);
        assert!(matches!(m.query(&s), Err(QueryError::BadQuery(_))));
    }
}
