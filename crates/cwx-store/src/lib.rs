//! `cwx-store` — the embedded time-series storage engine behind
//! historical graphing (paper §5.1).
//!
//! The paper's ClusterWorX server "charts monitoring values over time
//! ... over a selected time interval"; an operations tool needs that
//! history to survive restarts and to absorb writes from hundreds of
//! agents at once. This crate is the durable backend:
//!
//! * [`wal`] — an append-only write-ahead log; every record carries a
//!   CRC32 and recovery replays the log, truncating a torn tail.
//! * [`segment`] — immutable on-disk segment files flushed from
//!   in-memory memtables, with delta-of-delta timestamp compression and
//!   tagged value columns: scaled-integer deltas for decimal readings,
//!   an XOR chain otherwise ([`codec`]).
//! * size-tiered merges — runs of similar-sized raw segments are merged
//!   and downsampled into 10-second, 5-minute and 1-hour
//!   min/sum/max/last companions, so charts over long windows read
//!   pre-aggregated data and a sample is rewritten O(log N) times.
//! * [`disk::DiskStore`] — shard-per-node-group write paths: each
//!   shard owns its own WAL, memtable and segments behind its own lock,
//!   so many agent threads ingest in parallel without a global lock.
//! * [`mem::MemStore`] — the volatile ring-buffer backend: the
//!   simulator's, Lite's, and a storeless ingest server's history.
//!
//! Durability contract: a sample is *acknowledged* once `append`
//! returns, at which point it lives in the shard WAL (OS page cache;
//! the engine does not fsync). A crash loses nothing acknowledged:
//! memtables are rebuilt by WAL replay, segments are immutable and
//! checksummed (the rename of a raw segment file commits a flush or a
//! merge), and a torn WAL tail is truncated at the last record whose
//! CRC32 verifies. What is rebuilt rather than stored: memtables
//! and the series registry (from segment headers + WAL records).

#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod disk;
pub mod mem;
pub mod query;
pub mod segment;
pub mod wal;

pub use query::{
    AggFunc, AggPoint, GroupSeries, QueryError, QueryExecutor, QueryGroup, QueryLimits,
    QueryResult, QuerySpec, QueryStats,
};

use cwx_util::time::SimTime;

/// One stored sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample time.
    pub time: SimTime,
    /// Numeric value.
    pub value: f64,
}

/// Pre-aggregated bucket stored in the downsampled tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggBucket {
    /// Bucket start time.
    pub start: SimTime,
    /// Samples aggregated into the bucket.
    pub count: u64,
    /// Minimum value.
    pub min: f64,
    /// Sum of the values: exact for decimal readings while it stays
    /// under 2^53 scaled (see [`codec::decimal_sum`]), an `f64` sum in
    /// time order otherwise.
    pub sum: f64,
    /// Maximum value.
    pub max: f64,
    /// Last (most recent) value — charts draw step lines from this.
    pub last: f64,
}

impl AggBucket {
    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// Storage resolution tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// Every sample as ingested.
    #[default]
    Raw,
    /// 10-second min/sum/max/last buckets.
    TenSeconds,
    /// 5-minute min/sum/max/last buckets.
    FiveMinutes,
    /// 1-hour min/sum/max/last buckets (dashboard-range queries).
    OneHour,
}

impl Resolution {
    /// Every stored downsampled tier, finest first.
    pub const TIERS: [Resolution; 3] = [
        Resolution::TenSeconds,
        Resolution::FiveMinutes,
        Resolution::OneHour,
    ];

    /// Bucket width; `None` for raw.
    pub fn bucket_nanos(self) -> Option<u64> {
        match self {
            Resolution::Raw => None,
            Resolution::TenSeconds => Some(10 * 1_000_000_000),
            Resolution::FiveMinutes => Some(300 * 1_000_000_000),
            Resolution::OneHour => Some(3_600 * 1_000_000_000),
        }
    }

    /// The tier tag used in segment files and file names.
    pub fn tag(self) -> u8 {
        match self {
            Resolution::Raw => 0,
            Resolution::TenSeconds => 1,
            Resolution::FiveMinutes => 2,
            Resolution::OneHour => 3,
        }
    }

    /// Inverse of [`Resolution::tag`].
    pub fn from_tag(tag: u8) -> Option<Resolution> {
        match tag {
            0 => Some(Resolution::Raw),
            1 => Some(Resolution::TenSeconds),
            2 => Some(Resolution::FiveMinutes),
            3 => Some(Resolution::OneHour),
            _ => None,
        }
    }
}

/// Errors surfaced by the persistent store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A segment file failed validation (bad magic or checksum).
    CorruptSegment {
        /// Offending file.
        path: std::path::PathBuf,
        /// What failed.
        reason: &'static str,
    },
    /// A segment file in a format this release no longer reads. The
    /// store refuses to open rather than set the file aside.
    RetiredSegment {
        /// Offending file.
        path: std::path::PathBuf,
        /// The format its magic names, e.g. `CWXSEG3`.
        format: &'static str,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::CorruptSegment { path, reason } => {
                write!(f, "corrupt segment {}: {reason}", path.display())
            }
            StoreError::RetiredSegment { path, format } => write!(
                f,
                "segment {} is {format}, which this release no longer reads: open the store \
                 once under a release that still reads it, run compact_all, then upgrade",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One sample in an ingest batch handed to [`Store::append_batch`].
///
/// Borrows the monitor name so callers can batch straight out of decoded
/// reports without interning or cloning strings per sample.
#[derive(Debug, Clone, Copy)]
pub struct BatchSample<'a> {
    /// Node index.
    pub node: u32,
    /// Monitor name.
    pub monitor: &'a str,
    /// Sample time.
    pub time: SimTime,
    /// Numeric value.
    pub value: f64,
}

/// The history interface: the management server, its ingest lanes, Lite,
/// the dashboard and the CLI all hold an `Arc<dyn Store>`.
///
/// Methods take `&self`: backends use interior locking (per-shard for
/// the disk store), which is what lets many ingest threads write
/// concurrently.
pub trait Store: std::fmt::Debug + Send + Sync {
    /// Record a batch of samples; every sample is durable (per the
    /// crate's durability contract) when this returns. Backends amortize
    /// locking and WAL writes across the whole batch.
    fn append_batch(&self, batch: &[BatchSample<'_>]);

    /// Record one sample: a batch of one.
    fn append(&self, node: u32, monitor: &str, time: SimTime, value: f64) {
        self.append_batch(&[BatchSample {
            node,
            monitor,
            time,
            value,
        }]);
    }

    /// Latest sample of a series.
    fn latest(&self, node: u32, monitor: &str) -> Option<Sample>;

    /// Samples within `[from, to]`, oldest first.
    fn range(&self, node: u32, monitor: &str, from: SimTime, to: SimTime) -> Vec<Sample>;

    /// Pre-aggregated buckets within `[from, to]` at a fixed tier.
    /// Backends without stored tiers aggregate raw samples on the fly.
    fn range_agg(
        &self,
        node: u32,
        monitor: &str,
        from: SimTime,
        to: SimTime,
        res: Resolution,
    ) -> Vec<AggBucket> {
        let Some(width) = res.bucket_nanos() else {
            return self
                .range(node, monitor, from, to)
                .into_iter()
                .map(query::bucket_of)
                .collect();
        };
        aggregate(&self.range(node, monitor, from, to), width)
    }

    /// Every `(node, monitor)` series known to the store.
    fn series(&self) -> Vec<(u32, String)>;

    /// Drop all series of a node (node removed from the cluster).
    fn forget_node(&self, node: u32);

    /// Total samples ever appended (evicted/compacted ones included).
    fn total_samples(&self) -> u64;

    /// Flush buffered state to durable storage (no-op for volatile
    /// backends).
    fn flush(&self) {}

    /// Run an aggregation query (windowed, multi-series, grouped).
    ///
    /// The default implementation folds each group's member series,
    /// read with [`Store::range`], through the query layer's windowed
    /// accumulator; backends with stored tiers override it to answer
    /// from the coarsest tier that satisfies the window.
    fn query(&self, spec: &QuerySpec) -> Result<QueryResult, QueryError> {
        query::run_over_ranges(spec, |node, monitor, from, to| {
            self.range(node, monitor, from, to)
        })
    }
}

// The windowed fold lives in [`query`] now (one aggregation code path
// for merge rollups, `range_agg` and the query engine);
// re-exported here because PR 1 published it at the crate root.
pub use query::aggregate;

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn aggregate_builds_epoch_aligned_buckets() {
        let samples: Vec<Sample> = (0..30)
            .map(|i| Sample {
                time: t(i),
                value: i as f64,
            })
            .collect();
        let buckets = aggregate(&samples, 10 * 1_000_000_000);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].start, t(0));
        assert_eq!(buckets[1].start, t(10));
        assert_eq!(buckets[0].count, 10);
        assert_eq!(buckets[0].min, 0.0);
        assert_eq!(buckets[0].max, 9.0);
        assert_eq!(buckets[0].last, 9.0);
        assert_eq!(buckets[0].sum, 45.0);
        assert_eq!(buckets[0].mean(), 4.5);
    }

    #[test]
    fn aggregate_single_timestamp_bucket() {
        let samples = vec![
            Sample {
                time: t(7),
                value: 1.0,
            },
            Sample {
                time: t(7),
                value: 3.0,
            },
        ];
        let b = aggregate(&samples, 10 * 1_000_000_000);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].count, 2);
        assert_eq!((b[0].min, b[0].max, b[0].last), (1.0, 3.0, 3.0));
        assert_eq!(b[0].mean(), 2.0);
    }

    #[test]
    fn resolution_tags_round_trip() {
        for r in [
            Resolution::Raw,
            Resolution::TenSeconds,
            Resolution::FiveMinutes,
            Resolution::OneHour,
        ] {
            assert_eq!(Resolution::from_tag(r.tag()), Some(r));
        }
        assert_eq!(Resolution::from_tag(9), None);
    }
}
