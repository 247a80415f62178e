//! The aggregation query engine (paper §5.1's "charts over a selected
//! time interval", grown into a real read path).
//!
//! Three layers live here:
//!
//! * **The stored rollup** — [`aggregate`] and [`merge_buckets`]: the
//!   time-ordered fold that merges write into tier companions and
//!   `range_agg` returns (min / sum / max / last buckets; a decimal
//!   series' sums are exact).
//! * **Query evaluation** — [`QuerySpec`] (windowed function over a
//!   time range, evaluated per [`QueryGroup`] of nodes) is answered by
//!   one order-independent accumulator, `WindowFold`: every in-range
//!   slice of every source (decoded segment blocks held by `Arc`,
//!   memtable snapshots; raw samples and tier buckets alike) is folded
//!   in place into a dense vector of per-window accumulators. Nothing
//!   is merged, re-sorted or copied, so a query costs what the entries
//!   it folds cost; `DiskStore::query` and [`run_over_ranges`]
//!   (`MemStore`, the tests' raw-only reference) both end in it.
//!   Windows are epoch-aligned and *complete*: `from`/`to` widen to
//!   window boundaries so a tier-served answer and a raw-served answer
//!   see the same samples. [`select_tier`] picks the coarsest stored
//!   tier whose buckets nest exactly inside the window; percentiles
//!   and `rate` need individual samples and always scan raw.
//! * **Admission control** — [`QueryExecutor`], a bounded worker pool
//!   with a queue-depth cap and a per-query scanned-samples budget so
//!   N dashboard-shaped clients cannot starve ingest. Over-budget or
//!   over-queue queries fail fast with [`QueryError`] instead of
//!   piling onto the shard locks.
//!
//! Memory bounds: a query holds 80 B per window of its span, empty
//! windows included, so the span is charged to the scan budget: more
//! windows than `max_scan` and the query is refused before the vector
//! grows. Through a [`QueryExecutor`] that budget is the operator's,
//! not the client's: a spec may lower it below
//! [`QueryLimits::max_scanned_samples`], never raise it. A query pins
//! the blocks of the shard it is folding (16 B a raw sample, 48 B a
//! bucket) and lets go of them shard by shard — except a percentile
//! query, which pins every raw block of its range to the end and then
//! holds each in-range value once more, 8 B each, to select the rank
//! from. The budget is checked as each block is collected: an
//! over-budget query stops reading at the block that trips it.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

use cwx_util::time::SimTime;

use crate::codec::decimal_sum;
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
        sum: s.value,
        max: s.value,
        last: s.value,
    }
}

/// Aggregate time-ordered samples into fixed-width buckets aligned to
/// the epoch (so buckets from different flushes line up).
pub fn aggregate(samples: &[Sample], width_nanos: u64) -> Vec<AggBucket> {
    rollup(samples, width_nanos, |s| bucket_of(*s))
}

/// Combine time-ordered fine buckets into wider epoch-aligned buckets.
pub fn merge_buckets(fine: &[AggBucket], width_nanos: u64) -> Vec<AggBucket> {
    rollup(fine, width_nanos, |b| *b)
}

/// The one rollup behind [`aggregate`] and [`merge_buckets`]: each run
/// of `rows` in one epoch-aligned bucket becomes that bucket. Its sum is
/// the parts' [`decimal_sum`], exact and a decimal itself, so a coarser
/// tier summing these sums again is as exact; where that fails (a
/// non-decimal part, |Σm| ≥ 2^53) it is their `f64` sum in time order.
/// A bucket of one part keeps that part's sum, which either would be.
fn rollup<T>(rows: &[T], width_nanos: u64, part: impl Fn(&T) -> AggBucket) -> Vec<AggBucket> {
    let sum_of = |run: &[T]| {
        let sums = run.iter().map(|r| part(r).sum);
        decimal_sum(sums.clone()).unwrap_or_else(|| sums.sum())
    };
    let mut out: Vec<AggBucket> = Vec::new();
    // where the last bucket's run of rows starts
    let mut first = 0;
    for (i, row) in rows.iter().enumerate() {
        let p = part(row);
        let start = floor_to(p.start, width_nanos);
        match out.last_mut() {
            Some(b) if b.start == start => {
                b.count += p.count;
                b.min = b.min.min(p.min);
                b.max = b.max.max(p.max);
                b.last = p.last;
            }
            last => {
                if let Some(b) = last.filter(|_| i - first > 1) {
                    b.sum = sum_of(&rows[first..i]);
                }
                first = i;
                out.push(AggBucket { start, ..p });
            }
        }
    }
    if let Some(b) = out.last_mut().filter(|_| rows.len() - first > 1) {
        b.sum = sum_of(&rows[first..]);
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

    /// Can this function be computed from stored min/sum/max/count
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
    /// means "no explicit budget". An executor caps it at its
    /// [`QueryLimits::max_scanned_samples`].
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// The tier selected for the window ([`Resolution::Raw`] when the
    /// function or window forced a raw scan).
    pub tier: Resolution,
    /// Raw samples folded (un-tiered segments and memtables included).
    pub scanned_raw: u64,
    /// Pre-aggregated buckets folded.
    pub scanned_buckets: u64,
    /// Shards with no companion file at the selected tier (finer/raw
    /// served). A series a merge left out of a companion (its block
    /// would not fold 2× fewer entries) is read from a finer companion
    /// or raw by design, and does not count here.
    pub fallback_shards: u64,
    /// Blocks the index promised that could not be read back (damaged
    /// or gone since open): each is a gap in the answer.
    pub unreadable_blocks: u64,
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
// the windowed accumulator

/// The in-range part of one source of one series: a decoded segment
/// block (kept alive by its `Arc`, so the block cache can evict
/// underneath) or a memtable snapshot wrapped the same way.
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    block: Arc<SeriesData>,
    range: Range<usize>,
    /// Where the source stands in the query's canonical order — node
    /// position in the group, then offer order within the node. `rate`
    /// breaks equal timestamps by it, so its answer does not depend on
    /// the order slices are folded in.
    source: u64,
}

/// The part of time-ordered `rows` whose times lie in `from..=to`.
fn in_range<T>(
    rows: &[T],
    time: impl Fn(&T) -> SimTime,
    from: SimTime,
    to: SimTime,
) -> Range<usize> {
    match (rows.first(), rows.last()) {
        (Some(a), Some(b)) if time(a) >= from && time(b) <= to => 0..rows.len(),
        _ => {
            let lo = rows.partition_point(|r| time(r) < from);
            lo..rows.partition_point(|r| time(r) <= to).max(lo)
        }
    }
}

impl Slice {
    fn new(block: Arc<SeriesData>, source: u64, from: SimTime, to: SimTime) -> Slice {
        let range = match &*block {
            SeriesData::Raw(s) => in_range(s, |s| s.time, from, to),
            SeriesData::Buckets(b) => in_range(b, |b| b.start, from, to),
        };
        Slice {
            block,
            range,
            source,
        }
    }

    /// First and last time held (bucket starts for a tier block).
    fn time_bounds(&self) -> Option<(u64, u64)> {
        let (a, b) = (self.range.start, self.range.end.checked_sub(1)?);
        (a <= b).then(|| match &*self.block {
            SeriesData::Raw(s) => (s[a].time.as_nanos(), s[b].time.as_nanos()),
            SeriesData::Buckets(r) => (r[a].start.as_nanos(), r[b].start.as_nanos()),
        })
    }
}

/// One window's accumulator. `rate` is computed from `first`/`last`,
/// `(time, source, value)` of the smallest and largest `(time, source)`
/// seen: the ends of a time-ordered merge of the sources.
#[derive(Debug, Clone, Copy)]
struct WinAcc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    first: (u64, u64, f64),
    last: (u64, u64, f64),
}

impl WinAcc {
    const EMPTY: WinAcc = WinAcc {
        count: 0,
        sum: 0.0,
        min: 0.0,
        max: 0.0,
        first: (u64::MAX, u64::MAX, 0.0),
        last: (0, 0, 0.0),
    };

    fn add(&mut self, count: u64, sum: f64, min: f64, max: f64) {
        // the first entry sets the extremes: `f64::min` would drop a NaN
        if self.count == 0 {
            (self.min, self.max) = (min, max);
        } else {
            (self.min, self.max) = (self.min.min(min), self.max.max(max));
        }
        self.count += count;
        self.sum += sum;
    }

    /// A slice is folded front to back: among equal times of one source
    /// the first sample keeps `first` and the last takes `last`.
    fn add_ends(&mut self, time: u64, source: u64, value: f64) {
        if (time, source) < (self.first.0, self.first.1) {
            self.first = (time, source, value);
        }
        if (time, source) >= (self.last.0, self.last.1) {
            self.last = (time, source, value);
        }
    }
}

/// The one windowed aggregation of the query path, for every
/// [`AggFunc`] and every kind of source: a dense vector of per-window
/// accumulators indexed by `(time − first window) ÷ width`, which each
/// entry of each [`Slice`] goes straight into. The order slices are
/// folded in does not change the answer (bit for bit for min, max,
/// count, percentiles and `rate`; `avg` and `sum` add in a different
/// order). The vector grows to cover a slice's span before the slice
/// is folded, and a span of more than `max_windows` is refused.
/// Percentiles need a second look at the samples, so they alone keep
/// their slices: `finish` writes each window's values to its stretch
/// of one flat vector and selects (not sorts) the rank.
#[derive(Debug)]
pub(crate) struct WindowFold {
    agg: AggFunc,
    width: u64,
    max_windows: u64,
    /// Start of window 0 and end of the last one (both 0 while empty).
    base: u64,
    end: u64,
    accs: Vec<WinAcc>,
    /// The slices folded so far, for percentile functions only.
    kept: Vec<Slice>,
}

impl WindowFold {
    pub(crate) fn new(agg: AggFunc, width_nanos: u64, max_windows: u64) -> WindowFold {
        WindowFold {
            agg,
            width: width_nanos.max(1),
            max_windows,
            base: 0,
            end: 0,
            accs: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Grow the accumulators to cover times `lo..=hi` too.
    fn cover(&mut self, lo: u64, hi: u64) -> Result<(), QueryError> {
        let w = self.width;
        let held = self.accs.len() as u64;
        let old_first = if held == 0 { lo / w } else { self.base / w };
        let first = old_first.min(lo / w);
        let n = (hi / w).max(old_first + held.saturating_sub(1)) - first + 1;
        if n > self.max_windows {
            return Err(QueryError::BudgetExceeded {
                scanned: n,
                budget: self.max_windows,
            });
        }
        let in_front = (old_first - first) as usize;
        self.accs
            .splice(0..0, std::iter::repeat_n(WinAcc::EMPTY, in_front));
        self.accs.resize(n as usize, WinAcc::EMPTY);
        self.base = first * w;
        self.end = self.base.saturating_add(n.saturating_mul(w));
        Ok(())
    }

    /// The window `t` falls in. Clamped: a source that breaks its time
    /// order misfiles an entry, it does not index out of bounds.
    fn window_of(&self, t: u64) -> usize {
        ((t.saturating_sub(self.base) / self.width) as usize).min(self.accs.len() - 1)
    }

    pub(crate) fn fold(&mut self, slice: Slice) -> Result<(), QueryError> {
        let Some((lo, hi)) = slice.time_bounds() else {
            return Ok(());
        };
        if lo < self.base || hi >= self.end {
            self.cover(lo, hi)?;
        }
        match &*slice.block {
            SeriesData::Raw(samples) => {
                let rate = self.agg == AggFunc::Rate;
                for s in &samples[slice.range.clone()] {
                    let w = self.window_of(s.time.as_nanos());
                    self.accs[w].add(1, s.value, s.value, s.value);
                    if rate {
                        self.accs[w].add_ends(s.time.as_nanos(), slice.source, s.value);
                    }
                }
            }
            SeriesData::Buckets(buckets) => {
                debug_assert!(self.agg.tier_serveable(), "{:?} needs samples", self.agg);
                for b in &buckets[slice.range.clone()] {
                    let w = self.window_of(b.start.as_nanos());
                    self.accs[w].add(b.count, b.sum, b.min, b.max);
                }
            }
        }
        if self.agg.percentile().is_some() {
            self.kept.push(slice);
        }
        Ok(())
    }

    /// The non-empty windows, in time order.
    pub(crate) fn finish(self) -> Vec<AggPoint> {
        // percentiles: each window's values side by side in one vector
        let mut values = Vec::new();
        let mut stretch = Vec::new();
        if self.agg.percentile().is_some() {
            let mut total = 0usize;
            stretch.extend(self.accs.iter().map(|a| {
                total += a.count as usize;
                total - a.count as usize
            }));
            values.resize(total, 0.0f64);
            let mut next = stretch.clone();
            for slice in &self.kept {
                if let SeriesData::Raw(samples) = &*slice.block {
                    for s in &samples[slice.range.clone()] {
                        let at = &mut next[self.window_of(s.time.as_nanos())];
                        values[*at] = s.value;
                        *at += 1;
                    }
                }
            }
        }
        let mut points = Vec::new();
        for (w, acc) in self.accs.iter().enumerate().filter(|(_, a)| a.count > 0) {
            let value = match self.agg {
                AggFunc::Avg => acc.sum / acc.count as f64,
                AggFunc::Min => acc.min,
                AggFunc::Max => acc.max,
                AggFunc::Sum => acc.sum,
                AggFunc::Count => acc.count as f64,
                AggFunc::Rate => {
                    let dt = acc.last.0.saturating_sub(acc.first.0);
                    if acc.count < 2 || dt == 0 {
                        0.0
                    } else {
                        (acc.last.2 - acc.first.2) / (dt as f64 / 1e9)
                    }
                }
                AggFunc::P50 | AggFunc::P95 | AggFunc::P99 => {
                    let p = self.agg.percentile().expect("percentile func");
                    let n = acc.count as usize;
                    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
                    let held = &mut values[stretch[w]..stretch[w] + n];
                    *held.select_nth_unstable_by(rank - 1, f64::total_cmp).1
                }
            };
            points.push(AggPoint {
                start: SimTime::from_nanos(self.base + w as u64 * self.width),
                value,
                count: acc.count,
            });
        }
        points
    }
}

/// The executor's default scan budget, and the window span a query
/// without a budget may still allocate accumulators for.
const DEFAULT_MAX_SCAN: u64 = 8_000_000;

/// Gathers a query's [`Slice`]s group by group and refuses the query
/// the moment their entries pass its budget — before the next block is
/// read, let alone folded.
#[derive(Debug)]
pub(crate) struct Collector {
    /// The complete-window bounds sources are cut to.
    pub(crate) from: SimTime,
    pub(crate) to: SimTime,
    budget: u64,
    /// Sources offered since the last fold, and how many in the group.
    pending: Vec<Slice>,
    offered: u64,
    fold: WindowFold,
    /// Counters of the whole query so far.
    pub(crate) stats: QueryStats,
}

impl Collector {
    /// Offer one source of the group's `node_pos`-th node (a node's
    /// sources oldest segment first, memtable last).
    pub(crate) fn push(
        &mut self,
        node_pos: usize,
        block: Arc<SeriesData>,
    ) -> Result<(), QueryError> {
        let slice = Slice::new(block, self.source(node_pos), self.from, self.to);
        let held = slice.range.len() as u64;
        match &*slice.block {
            SeriesData::Raw(_) => self.charge(held, 0)?,
            SeriesData::Buckets(_) => self.charge(0, held)?,
        }
        self.pending.push(slice);
        Ok(())
    }

    /// Count entries about to be offered against the budget, and
    /// refuse the query once they pass it.
    pub(crate) fn charge(&mut self, raw: u64, buckets: u64) -> Result<(), QueryError> {
        self.stats.scanned_raw += raw;
        self.stats.scanned_buckets += buckets;
        let scanned = self.stats.scanned_raw + self.stats.scanned_buckets;
        if scanned > self.budget {
            return Err(QueryError::BudgetExceeded {
                scanned,
                budget: self.budget,
            });
        }
        Ok(())
    }

    /// Offer `(node_pos, range)` parts of one shared block, each
    /// already cut to `from..=to`, time-ordered and [`charged`].
    ///
    /// [`charged`]: Collector::charge
    pub(crate) fn push_ranges(
        &mut self,
        block: &Arc<SeriesData>,
        ranges: Vec<(usize, Range<usize>)>,
    ) {
        self.pending.reserve(ranges.len());
        for (node_pos, range) in ranges {
            let source = self.source(node_pos);
            self.pending.push(Slice {
                block: Arc::clone(block),
                range,
                source,
            });
        }
    }

    /// The next source number of the `node_pos`-th node.
    fn source(&mut self, node_pos: usize) -> u64 {
        self.offered += 1;
        (node_pos as u64) << 32 | (self.offered - 1)
    }

    /// Fold what has been offered and let go of it: called wherever a
    /// backend has released the lock it collected under, so no more
    /// than one lock's worth of blocks is pinned at a time.
    pub(crate) fn fold_pending(&mut self) -> Result<(), QueryError> {
        self.pending.drain(..).try_for_each(|s| self.fold.fold(s))
    }
}

/// Evaluate `spec`: `collect` offers each group's sources, the
/// [`WindowFold`] turns them into the group's points. Every backend's
/// [`Store::query`] ends here.
pub(crate) fn evaluate(
    spec: &QuerySpec,
    tier: Resolution,
    mut collect: impl FnMut(&QueryGroup, &mut Collector) -> Result<(), QueryError>,
) -> Result<QueryResult, QueryError> {
    spec.validate()?;
    let (from, to) = spec.window_bounds();
    let (budget, max_windows) = match spec.max_scan {
        0 => (u64::MAX, DEFAULT_MAX_SCAN),
        n => (n, n),
    };
    let new_fold = || WindowFold::new(spec.agg, spec.window_nanos, max_windows);
    let mut collector = Collector {
        from,
        to,
        budget,
        pending: Vec::new(),
        offered: 0,
        fold: new_fold(),
        stats: QueryStats {
            tier,
            ..QueryStats::default()
        },
    };
    let mut groups = Vec::with_capacity(spec.groups.len());
    for g in &spec.groups {
        collector.offered = 0;
        collect(g, &mut collector)?;
        collector.fold_pending()?;
        groups.push(GroupSeries {
            key: g.key.clone(),
            points: std::mem::replace(&mut collector.fold, new_fold()).finish(),
        });
    }
    Ok(QueryResult {
        groups,
        stats: collector.stats,
    })
}

/// Evaluate `spec` against any `fetch(node, monitor, from, to)` range
/// reader (samples oldest first) — the default [`Store::query`] path
/// for backends without stored tiers, and the raw-only reference the
/// tier tests compare against.
pub fn run_over_ranges<F>(spec: &QuerySpec, fetch: F) -> Result<QueryResult, QueryError>
where
    F: Fn(u32, &str, SimTime, SimTime) -> Vec<Sample>,
{
    evaluate(spec, Resolution::Raw, |g, out| {
        for (pos, &node) in g.nodes.iter().enumerate() {
            let samples = fetch(node, &spec.monitor, out.from, out.to);
            out.push(pos, Arc::new(SeriesData::Raw(samples)))?;
        }
        Ok(())
    })
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
    /// Cap on a query's scanned-entries budget: a spec's own
    /// `max_scan` may lower it, never raise it (`0` means the cap).
    pub max_scanned_samples: u64,
}

impl Default for QueryLimits {
    fn default() -> Self {
        QueryLimits {
            workers: 2,
            max_queue: 32,
            max_scanned_samples: DEFAULT_MAX_SCAN,
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
        let cap = shared.limits.max_scanned_samples;
        spec.max_scan = match spec.max_scan {
            0 => cap,
            n => n.min(cap),
        };
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

    fn slice(source: u64, data: SeriesData) -> Slice {
        Slice::new(Arc::new(data), source, SimTime::ZERO, SimTime::MAX)
    }

    fn series(secs: impl IntoIterator<Item = u64>, value: impl Fn(u64) -> f64) -> SeriesData {
        let sample = |i| Sample {
            time: t(i),
            value: value(i),
        };
        SeriesData::Raw(secs.into_iter().map(sample).collect())
    }

    /// Fold `slices` in the order given.
    fn fold(slices: &[Slice], agg: AggFunc, width: u64) -> Vec<AggPoint> {
        let mut fold = WindowFold::new(agg, width, u64::MAX);
        for s in slices {
            fold.fold(s.clone()).unwrap();
        }
        fold.finish()
    }

    #[test]
    fn percentiles_nearest_rank() {
        let slices = [slice(0, series(1..101, |i| i as f64))];
        let one = |agg| fold(&slices, agg, 1_000_000 * SEC)[0].value;
        assert_eq!(one(AggFunc::P50), 50.0);
        assert_eq!(one(AggFunc::P95), 95.0);
        assert_eq!(one(AggFunc::P99), 99.0);
    }

    #[test]
    fn rate_is_delta_over_seconds_and_breaks_equal_times_by_source() {
        let values = |i| [10.0, 20.0, 40.0][i as usize / 5];
        let p = fold(
            &[slice(0, series([0, 5, 10], values))],
            AggFunc::Rate,
            60 * SEC,
        );
        assert_eq!(p.len(), 1);
        assert!((p[0].value - 3.0).abs() < 1e-12);
        // three sources starting and ending at the same instants: a
        // merge would deliver source 3's first sample first and source
        // 9's second t=10 sample last
        let ends = |a: f64| series([0, 10, 10], move |i| a * (i + 1) as f64);
        let slices = [
            slice(7, ends(1.0)),
            slice(3, ends(2.0)),
            slice(9, ends(3.0)),
        ];
        let SeriesData::Raw(nine) = &*slices[2].block else {
            unreachable!()
        };
        assert_eq!(nine[2].value, 33.0);
        let p = fold(&slices, AggFunc::Rate, 60 * SEC);
        assert_eq!(p[0].value, (33.0 - 2.0) / 10.0);
    }

    #[test]
    fn the_order_slices_are_offered_in_does_not_change_the_answer() {
        // overlapping spans, equal timestamps across sources, a stretch
        // of windows nobody has samples in, each source offered raw or
        // as the 10 s buckets a merge would have stored for it
        let raw: Vec<Slice> = (0..6u64)
            .map(|k| {
                let from = if k == 5 { 900 } else { 40 * k };
                slice(
                    k,
                    series(from..from + 90, |i| ((i * 7 + k) % 13) as f64 - 6.0),
                )
            })
            .collect();
        let tiered = |s: &Slice| match &*s.block {
            SeriesData::Raw(samples) => {
                slice(s.source, SeriesData::Buckets(aggregate(samples, 10 * SEC)))
            }
            SeriesData::Buckets(_) => unreachable!(),
        };
        let mixed: Vec<Slice> = raw
            .iter()
            .map(|s| {
                if s.source % 2 == 0 {
                    s.clone()
                } else {
                    tiered(s)
                }
            })
            .collect();
        for name in [
            "rate", "avg", "min", "max", "sum", "count", "p50", "p95", "p99",
        ] {
            let agg = AggFunc::parse(name).unwrap();
            for width in [SEC, 10 * SEC, 30 * SEC, 70 * SEC, 3_600 * SEC] {
                let want = fold(&raw, agg, width);
                let tier_ok = agg.tier_serveable() && width % (10 * SEC) == 0;
                let mut order = if tier_ok { mixed.clone() } else { raw.clone() };
                for turn in 0..order.len() {
                    // the latest source first, then every rotation
                    order.rotate_right(1);
                    order.swap(1, turn.max(1));
                    let got = fold(&order, agg, width);
                    assert_eq!(got.len(), want.len(), "{agg:?} {width}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!((g.start, g.count), (w.start, w.count));
                        match agg {
                            AggFunc::Avg | AggFunc::Sum => {
                                assert!((g.value - w.value).abs() < 1e-9, "{agg:?}")
                            }
                            _ => assert_eq!(g.value.to_bits(), w.value.to_bits(), "{agg:?}"),
                        }
                    }
                }
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
    fn a_client_cannot_raise_the_executor_budget() {
        // two samples 2e17 ns apart, asked for in 1 ns windows: only the
        // executor's cap stands between the span and the window vector
        let far = SimTime::from_nanos(200_000_000_000_000_000);
        let m = Arc::new(MemStore::new(16));
        m.append(0, "cpu", SimTime::ZERO, 1.0);
        m.append(0, "cpu", far, 2.0);
        let exec = QueryExecutor::new(
            m,
            QueryLimits {
                workers: 1,
                max_queue: 4,
                max_scanned_samples: 1_000_000,
            },
        );
        let mut ordinary = spec(
            AggFunc::Max,
            vec![QueryGroup {
                key: "g".into(),
                nodes: vec![0],
            }],
        );
        ordinary.to = far;
        ordinary.window_nanos = far.as_nanos() / 2;
        let mut huge = ordinary.clone();
        huge.window_nanos = 1;
        huge.max_scan = u64::MAX;
        match exec.execute(huge) {
            Err(QueryError::BudgetExceeded { budget, .. }) => assert_eq!(budget, 1_000_000),
            other => panic!("expected the executor's budget to hold, got {other:?}"),
        }
        // the only worker is still alive
        let r = exec.execute(ordinary).unwrap();
        assert_eq!(r.groups[0].points.len(), 2);
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
