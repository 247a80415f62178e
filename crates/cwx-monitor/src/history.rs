//! Server-side time-series storage for historical graphing.
//!
//! "Historical graphing allows the administrator to chart monitoring
//! values over time. The administrator can view cluster use and
//! performance trends over a selected time interval, analyze the
//! relationships between monitored values, or compare performance
//! between nodes." (paper §5.1)
//!
//! [`HistoryStore`] is a façade over a [`cwx_store::Store`] backend: the
//! volatile in-memory ring (`HistoryStore::new`, what the deterministic
//! simulation uses) or the persistent sharded engine
//! (`HistoryStore::with_backend` over a `cwx_store::disk::DiskStore`,
//! what real deployments use so history survives a server restart). The
//! chart-facing API — range queries, latest-value queries, fixed-bucket
//! downsampling — is identical either way.

use cwx_store::{Resolution, Store};
use cwx_util::time::SimTime;

use crate::monitor::MonitorKey;

pub use cwx_store::{BatchSample, Sample};

/// A downsampled chart bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Bucket start time.
    pub start: SimTime,
    /// Samples that landed in the bucket.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Mean value.
    pub mean: f64,
    /// Maximum value.
    pub max: f64,
    /// Last (most recent) value — step-line charts draw this.
    pub last: f64,
}

/// Time-series store behind the server's charting queries.
#[derive(Debug)]
pub struct HistoryStore {
    backend: Box<dyn Store>,
}

impl HistoryStore {
    /// A volatile store retaining at most `capacity_per_series` samples
    /// per `(node, monitor)` series.
    pub fn new(capacity_per_series: usize) -> Self {
        HistoryStore {
            backend: Box::new(cwx_store::mem::MemStore::new(capacity_per_series)),
        }
    }

    /// A store over any [`Store`] backend — pass an
    /// `Arc<cwx_store::disk::DiskStore>` for durable history.
    pub fn with_backend(backend: Box<dyn Store>) -> Self {
        HistoryStore { backend }
    }

    /// The backend (restart-recovery inspection, tiered queries).
    pub fn backend(&self) -> &dyn Store {
        &*self.backend
    }

    /// Record a sample (volatile backend drops the oldest when a series
    /// is full; the persistent backend acknowledges durability on
    /// return).
    pub fn record(&mut self, node: u32, key: &MonitorKey, time: SimTime, value: f64) {
        self.backend.append(node, key.as_str(), time, value);
    }

    /// Record a batch of samples — a report's worth — in one backend
    /// call: one lock and one node lookup on the volatile backend, one
    /// WAL write on the persistent one.
    pub fn record_batch(&mut self, batch: &[BatchSample<'_>]) {
        self.backend.append_batch(batch);
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.backend.series().len()
    }

    /// Total samples ever recorded (including evicted ones).
    pub fn total_samples(&self) -> u64 {
        self.backend.total_samples()
    }

    /// The latest sample of a series.
    pub fn latest(&self, node: u32, key: &MonitorKey) -> Option<Sample> {
        self.backend.latest(node, key.as_str())
    }

    /// Samples within `[from, to]`, oldest first.
    pub fn range(&self, node: u32, key: &MonitorKey, from: SimTime, to: SimTime) -> Vec<Sample> {
        self.backend.range(node, key.as_str(), from, to)
    }

    /// Pre-aggregated buckets at a storage tier (persistent backends
    /// serve compacted tiers; volatile ones aggregate on the fly).
    pub fn range_agg(
        &self,
        node: u32,
        key: &MonitorKey,
        from: SimTime,
        to: SimTime,
        res: Resolution,
    ) -> Vec<cwx_store::AggBucket> {
        self.backend.range_agg(node, key.as_str(), from, to, res)
    }

    /// Run a windowed, grouped aggregation query against the backend.
    /// Disk-backed stores answer from the coarsest stored tier that
    /// satisfies the window; volatile backends stream raw samples
    /// through the same query layer.
    pub fn query(
        &self,
        spec: &cwx_store::QuerySpec,
    ) -> Result<cwx_store::QueryResult, cwx_store::QueryError> {
        self.backend.query(spec)
    }

    /// Downsample a range into at most `buckets` fixed-width buckets
    /// (chart rendering). Empty buckets are omitted; an empty range, a
    /// zero bucket count or an inverted range yield no buckets, and a
    /// single-timestamp range (`from == to`) buckets whatever sits at
    /// that instant.
    pub fn downsample(
        &self,
        node: u32,
        key: &MonitorKey,
        from: SimTime,
        to: SimTime,
        buckets: usize,
    ) -> Vec<Bucket> {
        if buckets == 0 || to < from {
            return Vec::new();
        }
        let span = to.since(from).as_nanos();
        // a degenerate span still gets a well-defined 1ns bucket width
        let width = (span / buckets as u64).max(1);
        let samples = self.range(node, key, from, to);
        let mut out: Vec<Bucket> = Vec::new();
        for s in samples {
            let idx = ((s.time.since(from).as_nanos()) / width).min(buckets as u64 - 1);
            let start = SimTime::from_nanos(from.as_nanos() + idx * width);
            match out.last_mut() {
                Some(b) if b.start == start => {
                    b.count += 1;
                    b.min = b.min.min(s.value);
                    b.max = b.max.max(s.value);
                    // incremental mean: no count*mean products to overflow
                    b.mean += (s.value - b.mean) / b.count as f64;
                    b.last = s.value;
                }
                _ => out.push(Bucket {
                    start,
                    count: 1,
                    min: s.value,
                    mean: s.value,
                    max: s.value,
                    last: s.value,
                }),
            }
        }
        out
    }

    /// Compare the latest values of one monitor across nodes ("compare
    /// performance between nodes").
    pub fn latest_across_nodes(&self, key: &MonitorKey) -> Vec<(u32, Sample)> {
        self.backend
            .series()
            .into_iter()
            .filter(|(_, k)| k.as_str() == key.as_str())
            .filter_map(|(n, k)| self.backend.latest(n, &k).map(|s| (n, s)))
            .collect()
    }

    /// Drop a node's series (node removed from the cluster).
    pub fn forget_node(&mut self, node: u32) {
        self.backend.forget_node(node);
    }

    /// Flush buffered state to durable storage (no-op for the volatile
    /// backend).
    pub fn flush(&self) {
        self.backend.flush();
    }

    /// Export one series as CSV (`time_secs,value` rows with a header) —
    /// the egress path for external charting tools.
    pub fn export_csv(&self, node: u32, key: &MonitorKey) -> String {
        use std::fmt::Write;
        let mut out = String::from("time_secs,value\n");
        for s in self.range(node, key, SimTime::ZERO, SimTime::MAX) {
            let _ = writeln!(out, "{:.3},{}", s.time.as_secs_f64(), s.value);
        }
        out
    }

    /// Export every series of a node as CSV (`monitor,time_secs,value`).
    pub fn export_node_csv(&self, node: u32) -> String {
        use std::fmt::Write;
        let mut out = String::from("monitor,time_secs,value\n");
        for (n, key) in self.backend.series() {
            if n != node {
                continue;
            }
            for s in self.backend.range(n, &key, SimTime::ZERO, SimTime::MAX) {
                let _ = writeln!(out, "{},{:.3},{}", key, s.time.as_secs_f64(), s.value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn key() -> MonitorKey {
        MonitorKey::new("cpu.util_pct")
    }

    #[test]
    fn record_and_latest() {
        let mut h = HistoryStore::new(100);
        h.record(1, &key(), t(1), 10.0);
        h.record(1, &key(), t(2), 20.0);
        let latest = h.latest(1, &key()).unwrap();
        assert_eq!(latest.time, t(2));
        assert_eq!(latest.value, 20.0);
        assert!(h.latest(2, &key()).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut h = HistoryStore::new(3);
        for i in 0..5 {
            h.record(1, &key(), t(i), i as f64);
        }
        let all = h.range(1, &key(), t(0), t(100));
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].value, 2.0);
        assert_eq!(h.total_samples(), 5);
    }

    #[test]
    fn range_is_inclusive() {
        let mut h = HistoryStore::new(100);
        for i in 0..10 {
            h.record(1, &key(), t(i), i as f64);
        }
        let r = h.range(1, &key(), t(3), t(6));
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].value, 3.0);
        assert_eq!(r[3].value, 6.0);
    }

    #[test]
    fn downsample_buckets_min_mean_max_last() {
        let mut h = HistoryStore::new(1000);
        // 100 samples over 100s, values 0..99
        for i in 0..100 {
            h.record(1, &key(), t(i), i as f64);
        }
        let buckets = h.downsample(1, &key(), t(0), t(100), 10);
        assert_eq!(buckets.len(), 10);
        let b0 = &buckets[0];
        assert_eq!(b0.count, 10);
        assert_eq!(b0.min, 0.0);
        assert_eq!(b0.max, 9.0);
        assert_eq!(b0.last, 9.0);
        assert!((b0.mean - 4.5).abs() < 1e-9);
    }

    #[test]
    fn downsample_edge_cases() {
        let h = HistoryStore::new(10);
        assert!(h.downsample(1, &key(), t(0), t(10), 0).is_empty());
        assert!(h.downsample(1, &key(), t(10), t(0), 5).is_empty());
        assert!(
            h.downsample(1, &key(), t(0), t(10), 5).is_empty(),
            "no data -> no buckets"
        );
    }

    #[test]
    fn downsample_single_timestamp_range() {
        let mut h = HistoryStore::new(10);
        h.record(1, &key(), t(5), 2.0);
        h.record(1, &key(), t(5), 4.0);
        // from == to: degenerate span must neither panic nor divide by
        // zero, and the samples at that instant land in one bucket
        let buckets = h.downsample(1, &key(), t(5), t(5), 8);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].count, 2);
        assert_eq!(
            (buckets[0].min, buckets[0].max, buckets[0].last),
            (2.0, 4.0, 4.0)
        );
        assert!((buckets[0].mean - 3.0).abs() < 1e-9);
    }

    #[test]
    fn downsample_more_buckets_than_span_nanos() {
        let mut h = HistoryStore::new(10);
        h.record(1, &key(), t(0), 1.0);
        let a = SimTime::from_nanos(t(0).as_nanos());
        let b = SimTime::from_nanos(t(0).as_nanos() + 3);
        // span of 3ns into 10 buckets: width clamps to 1ns, no panic
        let buckets = h.downsample(1, &key(), a, b, 10);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].count, 1);
    }

    #[test]
    fn cross_node_comparison() {
        let mut h = HistoryStore::new(10);
        h.record(1, &key(), t(1), 10.0);
        h.record(2, &key(), t(1), 90.0);
        h.record(2, &MonitorKey::new("mem.free"), t(1), 5.0);
        let rows = h.latest_across_nodes(&key());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|(n, s)| *n == 2 && s.value == 90.0));
    }

    #[test]
    fn csv_export_round_trips_visually() {
        let mut h = HistoryStore::new(10);
        h.record(1, &key(), t(5), 42.5);
        h.record(1, &key(), t(10), 43.0);
        h.record(1, &MonitorKey::new("mem.free"), t(5), 1000.0);
        let csv = h.export_csv(1, &key());
        assert_eq!(csv, "time_secs,value\n5.000,42.5\n10.000,43\n");
        let all = h.export_node_csv(1);
        assert!(all.starts_with("monitor,time_secs,value\n"));
        assert!(all.contains("cpu.util_pct,5.000,42.5"));
        assert!(all.contains("mem.free,5.000,1000"));
        assert_eq!(h.export_csv(9, &key()), "time_secs,value\n");
    }

    #[test]
    fn forget_node_removes_series() {
        let mut h = HistoryStore::new(10);
        h.record(1, &key(), t(1), 1.0);
        h.record(2, &key(), t(1), 2.0);
        h.forget_node(1);
        assert!(h.latest(1, &key()).is_none());
        assert!(h.latest(2, &key()).is_some());
        assert_eq!(h.series_count(), 1);
    }

    #[test]
    fn persistent_backend_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("cwx-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cwx_store::disk::StoreConfig::default();
        {
            let disk = cwx_store::disk::DiskStore::open(&dir, cfg.clone()).unwrap();
            let mut h = HistoryStore::with_backend(Box::new(disk));
            for i in 0..10 {
                h.record(1, &key(), t(i), i as f64);
            }
        }
        let disk = cwx_store::disk::DiskStore::open(&dir, cfg).unwrap();
        let h = HistoryStore::with_backend(Box::new(disk));
        assert_eq!(h.range(1, &key(), t(0), t(100)).len(), 10);
        assert_eq!(h.latest(1, &key()).unwrap().value, 9.0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
