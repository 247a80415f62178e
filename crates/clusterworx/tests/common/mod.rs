//! Test doubles shared by the integration tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use clusterworx::ingest::IngestStats;
use cwx_store::{BatchSample, Sample, Store};
use cwx_util::time::SimTime;

/// The ingest plane's ledger, from its final counters: every frame it
/// read is a `CWQ1` query, an arrival a flush worker committed, or one
/// a dead worker left uncommitted — none is lost between the socket and
/// the store.
pub fn assert_ledger_balances(s: &IngestStats) {
    assert_eq!(
        s.frames,
        s.queries + s.committed + s.stranded,
        "frames read = queries + committed + stranded: {s:?}"
    );
}

/// A history store that is slow to take writes: an `append_batch`
/// carrying a stalled node's samples sleeps `per_report` for each report
/// in it (until [`SlowStore::release`]), then hands the batch to the
/// inner store. Put behind the ingest
/// lanes, it is the slow consumer the backpressure tests need; reads go
/// straight through.
#[derive(Debug)]
#[allow(dead_code)] // each test binary compiles this module; not all use it
pub struct SlowStore {
    inner: Box<dyn Store>,
    per_report_nanos: AtomicU64,
    /// The one node whose batches stall; `None` stalls every batch.
    node: Option<u32>,
}

#[allow(dead_code)]
impl SlowStore {
    /// Stall every batch that carries `node`'s samples (`None`: every
    /// batch).
    pub fn new(inner: impl Store + 'static, per_report: Duration, node: Option<u32>) -> Self {
        SlowStore {
            inner: Box::new(inner),
            per_report_nanos: AtomicU64::new(per_report.as_nanos() as u64),
            node,
        }
    }

    /// Stall no more: the consumer catches up at full speed.
    pub fn release(&self) {
        self.per_report_nanos.store(0, Ordering::Relaxed);
    }
}

impl Store for SlowStore {
    fn append_batch(&self, batch: &[BatchSample<'_>]) {
        if self.node.is_none_or(|n| batch.iter().any(|s| s.node == n)) {
            // a report's samples are adjacent and share node and time
            let reports = batch
                .chunk_by(|a, b| a.node == b.node && a.time == b.time)
                .count()
                .max(1);
            let stall = Duration::from_nanos(self.per_report_nanos.load(Ordering::Relaxed));
            let until = Instant::now() + stall * reports as u32;
            // in naps of at most 5 ms, so a release cuts even a long
            // stall short
            while self.per_report_nanos.load(Ordering::Relaxed) != 0 {
                match until.checked_duration_since(Instant::now()) {
                    Some(left) => std::thread::sleep(left.min(Duration::from_millis(5))),
                    None => break,
                }
            }
        }
        self.inner.append_batch(batch);
    }

    fn latest(&self, node: u32, monitor: &str) -> Option<Sample> {
        self.inner.latest(node, monitor)
    }

    fn range(&self, node: u32, monitor: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        self.inner.range(node, monitor, from, to)
    }

    fn series(&self) -> Vec<(u32, String)> {
        self.inner.series()
    }

    fn forget_node(&self, node: u32) {
        self.inner.forget_node(node)
    }

    fn total_samples(&self) -> u64 {
        self.inner.total_samples()
    }
}

/// A history store with a fatal bug for one node: an `append_batch`
/// carrying `node`'s samples panics, killing the flush worker that
/// called it. Every other batch goes through to the inner store.
#[derive(Debug)]
#[allow(dead_code)] // each test binary compiles this module; not all use it
pub struct PanickingStore {
    inner: Box<dyn Store>,
    node: u32,
}

#[allow(dead_code)]
impl PanickingStore {
    /// Panic on every batch that carries `node`'s samples.
    pub fn new(inner: impl Store + 'static, node: u32) -> Self {
        PanickingStore {
            inner: Box::new(inner),
            node,
        }
    }
}

impl Store for PanickingStore {
    fn append_batch(&self, batch: &[BatchSample<'_>]) {
        assert!(
            batch.iter().all(|s| s.node != self.node),
            "store bug: a batch carrying node {} cannot be written",
            self.node
        );
        self.inner.append_batch(batch);
    }

    fn latest(&self, node: u32, monitor: &str) -> Option<Sample> {
        self.inner.latest(node, monitor)
    }

    fn range(&self, node: u32, monitor: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        self.inner.range(node, monitor, from, to)
    }

    fn series(&self) -> Vec<(u32, String)> {
        self.inner.series()
    }

    fn forget_node(&self, node: u32) {
        self.inner.forget_node(node)
    }

    fn total_samples(&self) -> u64 {
        self.inner.total_samples()
    }
}
