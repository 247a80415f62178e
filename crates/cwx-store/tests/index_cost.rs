//! What indexing a segment allocates.
//!
//! A counting `#[global_allocator]` wraps the system allocator (the
//! pattern of `memtable_cost.rs`). Every series header of a segment
//! names its monitor by an index into the segment's name table, and
//! every [`SeriesIndexEntry::monitor`] shares that table's `Arc<str>`:
//! indexing a segment of N series over k monitor names allocates the
//! file buffer, the entry vector and the k names, not a `String` per
//! series. An `ingest_live` flush holds thousands of series over 32
//! names.
//!
//! [`SeriesIndexEntry::monitor`]: cwx_store::segment::SeriesIndexEntry
//!
//! The counter is thread-local so the libtest harness's own
//! allocations on other threads stay out of the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cwx_store::segment::{Segment, SegmentIndex, SeriesData};
use cwx_store::{Resolution, Sample};
use cwx_util::time::SimTime;

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

/// A raw segment of `nodes` × `names` series, four samples each, written
/// to `dir`: its path and the index the write returned.
fn write_segment(dir: &Path, nodes: u32, names: usize) -> (PathBuf, SegmentIndex) {
    let monitors: Vec<Arc<str>> = (0..names)
        .map(|m| format!("bench.m{m:02}").into())
        .collect();
    let mut series = Vec::new();
    for node in 0..nodes {
        for monitor in &monitors {
            let samples = (0..4)
                .map(|i| Sample {
                    time: SimTime::from_nanos(1_700_000_000_000_000_000 + i * 2_000_000_000),
                    value: (node as u64 + i) as f64 / 100.0,
                })
                .collect();
            series.push(((node, monitor.clone()), SeriesData::Raw(samples)));
        }
    }
    let path = dir.join(format!("seg-{nodes:08}-r0.seg"));
    let written = Segment {
        resolution: Resolution::Raw,
        series,
    }
    .write_to(&path)
    .unwrap();
    (path, written)
}

/// The allocations of indexing [`write_segment`]'s segment.
fn index_allocs(dir: &Path, nodes: u32, names: usize) -> u64 {
    let (path, written) = write_segment(dir, nodes, names);
    let before = allocs();
    let index = SegmentIndex::read_from(&path).unwrap();
    let spent = allocs() - before;
    assert_eq!(index, written);
    assert_eq!(index.entries.len(), nodes as usize * names);
    // one name, shared by every entry that names it
    let first = &index.entries[0].monitor;
    assert!(index
        .entries
        .iter()
        .step_by(names)
        .all(|e| Arc::ptr_eq(&e.monitor, first)));
    spent
}

#[test]
fn indexing_allocates_per_name_not_per_series() {
    let dir = std::env::temp_dir().join(format!("cwx-index-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // 32 names, as an `ingest_live` flush holds: 3,200 and 32,000 series
    let few = index_allocs(&dir, 100, 32);
    let many = index_allocs(&dir, 1_000, 32);
    assert!(
        many.abs_diff(few) <= 2,
        "3,200 series: {few} allocations, 32,000 series: {many}"
    );
    // the file, the entry and name vectors, and the 32 names
    assert!(many <= 32 + 8, "{many} allocations to index 32 names");
    // and it is the names that cost: four of them cost 28 fewer
    let four = index_allocs(&dir, 1_000, 4);
    assert!(four + 28 <= many, "4 names: {four}, 32 names: {many}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn decoding_allocates_a_vector_per_series_and_the_names() {
    let dir = std::env::temp_dir().join(format!("cwx-decode-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (nodes, names) = (1_000u32, 32usize);
    let series = nodes as u64 * names as u64;
    let (path, _) = write_segment(&dir, nodes, names);
    let indexing = index_allocs(&dir, nodes, names);
    let before = allocs();
    let segment = Segment::read_from(&path).unwrap();
    let spent = allocs() - before;
    assert_eq!(segment.series.len() as u64, series);
    // the index walk, the series vector, and each series' samples: a
    // key is the name table's `Arc<str>`, not a `String` of its own
    assert!(
        spent <= indexing + 1 + series,
        "{spent} allocations to decode {series} series ({indexing} to index them)"
    );
    let first = &segment.series[0].0 .1;
    assert!(segment
        .series
        .iter()
        .step_by(names)
        .all(|((_, monitor), _)| Arc::ptr_eq(monitor, first)));
    let _ = std::fs::remove_dir_all(dir);
}
