//! What a query over fresh, still-buffered data allocates.
//!
//! A counting `#[global_allocator]` wraps the system allocator (the
//! pattern of `cwx-monitor`'s `alloc_regression.rs`). The same `max`
//! query runs over 100 and over 1,000 nodes of a memtable-only disk
//! store: the memtable is copied out once per shard, so the two runs
//! allocate the same, give or take a constant. A read path that pays a
//! lookup buffer, a copy or an `Arc` per node shows up here as
//! thousands of counted allocations, without a wall clock.
//!
//! The counter is thread-local so the libtest harness's own
//! allocations on other threads stay out of the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::{AggFunc, BatchSample, QueryGroup, QuerySpec, Store};
use cwx_util::time::{SimDuration, SimTime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is side-effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

const NODES: u32 = 1_000;
const MONITORS: [&str; 4] = ["cpu.util", "load.one", "mem.used", "temp.cpu"];

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Allocations of one `max` probe over the last 10 s of `nodes` nodes.
fn probe(store: &DiskStore, nodes: u32) -> u64 {
    let spec = QuerySpec {
        monitor: "cpu.util".into(),
        from: t(50),
        to: t(59),
        window_nanos: 10_000_000_000,
        agg: AggFunc::Max,
        groups: vec![QueryGroup {
            key: "all".into(),
            nodes: (0..nodes).collect(),
        }],
        max_scan: 0,
    };
    let before = allocs();
    let r = store.query(&spec).unwrap();
    let spent = allocs() - before;
    let points = &r.groups[0].points;
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].count, 10 * nodes as u64);
    assert_eq!(points[0].value, (nodes - 1) as f64 + 59.0);
    assert_eq!(r.stats.scanned_raw, 10 * nodes as u64);
    spent
}

#[test]
fn a_memtable_query_allocates_per_shard_not_per_node() {
    let dir = std::env::temp_dir().join(format!("cwx-memtable-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        // nothing flushes: every sample stays in a memtable
        flush_threshold: 1 << 20,
        ..StoreConfig::default()
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    for i in 0..60u64 {
        let batch: Vec<BatchSample<'_>> = (0..NODES)
            .flat_map(|node| {
                MONITORS.map(|monitor| BatchSample {
                    node,
                    monitor,
                    time: t(i),
                    value: node as f64 + i as f64,
                })
            })
            .collect();
        store.append_batch(&batch);
    }
    assert_eq!(store.write_stats().flushes, 0, "memtable-only");
    // warm up whatever is lazily initialised once per process
    probe(&store, NODES);
    let few = probe(&store, 100);
    let many = probe(&store, NODES);
    assert!(
        many.abs_diff(few) <= 4,
        "100 nodes: {few} allocations, 1000 nodes: {many}"
    );
    // and the constant is small: a few per shard and per query
    assert!(many <= 40, "{many} allocations for one probe");
    let _ = std::fs::remove_dir_all(dir);
}
