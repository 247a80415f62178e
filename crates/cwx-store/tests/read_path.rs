//! The read path against an oracle that shares none of its code.
//!
//! `tier_query.rs` compares the tier path with the raw path, but both
//! end in the same windowed accumulator; here every function and
//! window shape is checked against a fold written out the slow way
//! (collect, sort by `(time, source)`, group, compute), over the store
//! as ingest leaves it: merged segments with companions, bare flushes,
//! a part-full memtable, late samples, equal timestamps across nodes.
//! A sibling oracle test aims at the series index (an unqueried monitor,
//! unseen and partial nodes, reverse registration order). The rest pins
//! down what a query may cost and must report: a refused query stops
//! reading, an unreadable block is counted, `latest` reads one block
//! and is the end of the whole history, a window span is charged to
//! the budget, and a merge closes the descriptors of the files it
//! replaces. `range_agg` is held to the fold of `range`'s samples at
//! any bounds, wherever the samples sit.

mod common;

use std::path::{Path, PathBuf};

use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::mem::MemStore;
use cwx_store::segment::SegmentIndex;
use cwx_store::{
    query, AggBucket, AggFunc, AggPoint, BatchSample, QueryError, QueryGroup, QuerySpec,
    Resolution, Store,
};
use cwx_util::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cwx-readpath-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

const SEC: u64 = 1_000_000_000;

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

const AGGS: [AggFunc; 9] = [
    AggFunc::Rate,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Sum,
    AggFunc::Count,
    AggFunc::P50,
    AggFunc::P95,
    AggFunc::P99,
];

/// Sub-10 s, the three tier widths, and two that nest in no tier or
/// only in the finest.
const WINDOWS_SECS: [u64; 6] = [7, 10, 45, 90, 300, 3_600];

fn value(seed: u64, i: u64) -> f64 {
    let x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(i.wrapping_mul(1442695040888963407));
    ((x >> 16) % 20_000) as f64 / 7.0 - 1_000.0
}

fn group(nodes: &[u32]) -> Vec<QueryGroup> {
    vec![QueryGroup {
        key: "g".into(),
        nodes: nodes.to_vec(),
    }]
}

/// One appended sample as the oracle sees it: `source` is the node's
/// position in the query group, `arrival` its append order there.
#[derive(Debug, Clone, Copy)]
struct Row {
    time: u64,
    source: usize,
    arrival: usize,
    value: f64,
}

/// The slow, obvious evaluation of `spec` over everything appended.
fn oracle(spec: &QuerySpec, mut rows: Vec<Row>) -> Vec<AggPoint> {
    let w = spec.window_nanos;
    let from = spec.from.as_nanos() / w * w;
    let to = spec.to.as_nanos() / w * w + (w - 1);
    rows.retain(|r| r.time >= from && r.time <= to);
    rows.sort_by_key(|r| (r.time, r.source, r.arrival));
    rows.chunk_by(|a, b| a.time / w == b.time / w)
        .map(|win| {
            let n = win.len();
            let mut sorted: Vec<f64> = win.iter().map(|r| r.value).collect();
            sorted.sort_by(f64::total_cmp);
            let rank = |p: f64| sorted[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1];
            let sum: f64 = win.iter().map(|r| r.value).sum();
            let (first, last) = (win[0], win[n - 1]);
            let value = match spec.agg {
                AggFunc::Avg => sum / n as f64,
                AggFunc::Sum => sum,
                AggFunc::Min => sorted[0],
                AggFunc::Max => sorted[n - 1],
                AggFunc::Count => n as f64,
                AggFunc::P50 => rank(50.0),
                AggFunc::P95 => rank(95.0),
                AggFunc::P99 => rank(99.0),
                AggFunc::Rate if n < 2 || last.time == first.time => 0.0,
                AggFunc::Rate => {
                    (last.value - first.value) / ((last.time - first.time) as f64 / 1e9)
                }
            };
            AggPoint {
                start: SimTime::from_nanos(win[0].time / w * w),
                value,
                count: n as u64,
            }
        })
        .collect()
}

fn assert_matches_oracle(agg: AggFunc, what: &str, got: &[AggPoint], want: &[AggPoint]) {
    assert_eq!(got.len(), want.len(), "{what} {agg:?}: window count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!((g.start, g.count), (w.start, w.count), "{what} {agg:?}");
        match agg {
            AggFunc::Avg | AggFunc::Sum | AggFunc::Rate => assert!(
                close(g.value, w.value),
                "{what} {agg:?} at {:?}: {} vs oracle {}",
                g.start,
                g.value,
                w.value
            ),
            _ => assert_eq!(
                g.value.to_bits(),
                w.value.to_bits(),
                "{what} {agg:?} at {:?}: {} vs oracle {}",
                g.start,
                g.value,
                w.value
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Three nodes on two shards (two of them sharing one), sampled at
    /// the same instants; every `late_every`-th sample arrives up to
    /// `late_by` steps after its neighbours in time, so it sits in a
    /// later segment, or the memtable, than the bucket it belongs to.
    /// The group lists the nodes in an order that is neither the shard
    /// order nor sorted.
    #[test]
    fn every_function_and_window_matches_the_oracle(
        step in 3u64..40,
        flushes in 11usize..20,
        in_memtable in 1usize..41,
        late_every in 2u64..9,
        late_by in 1u64..300,
        seed in any::<u64>(),
        window_idx in 0usize..6,
        agg_idx in 0usize..9,
        from_quarter in 0u64..3,
        to_quarter in 3u64..5,
    ) {
        let agg = AGGS[agg_idx];
        let dir = tmp_dir("oracle");
        let cfg = StoreConfig {
            n_shards: 2,
            nodes_per_group: 2,
            flush_threshold: 41,
            compact_threshold: 3,
            cache_capacity_samples: 1 << 16,
        };
        let store = DiskStore::open(&dir, cfg).unwrap();
        let mem = MemStore::new(1 << 16);
        let nodes = [3u32, 0, 1];
        let per_node = flushes * 41 + in_memtable;
        let time_of = |i: u64| {
            let on_time = 300 * step + i * step + (i % 3);
            if i.is_multiple_of(late_every) { on_time - late_by * step } else { on_time }
        };
        let mut rows = Vec::new();
        let mut newest = 0;
        for i in 0..per_node as u64 {
            newest = newest.max(time_of(i));
            for (source, &node) in nodes.iter().enumerate() {
                let v = value(seed, i * 3 + source as u64);
                store.append(node, "m", t(time_of(i)), v);
                rows.push(Row { time: time_of(i) * SEC, source, arrival: i as usize, value: v });
            }
        }
        // the reference backend keeps append order; it is handed its
        // samples in time order, as `Store::range` promises them
        let mut in_time = rows.clone();
        in_time.sort_by_key(|r| (r.time, r.arrival));
        for r in &in_time {
            mem.append(nodes[r.source], "m", SimTime::from_nanos(r.time), r.value);
        }
        let merged = std::fs::read_dir(dir.join("shard-001")).unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with("-r1.seg"))
            .count();
        prop_assert!(merged > 0, "the one-series shard has merged segments");

        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(newest * from_quarter / 4),
            to: t(newest * to_quarter / 4),
            window_nanos: WINDOWS_SECS[window_idx] * SEC,
            agg,
            groups: group(&nodes),
            max_scan: 0,
        };
        let want = oracle(&spec, rows);
        prop_assert!(!want.is_empty());

        let disk = store.query(&spec).unwrap();
        prop_assert_eq!(disk.stats.tier, query::select_tier(spec.window_nanos, agg));
        prop_assert_eq!(disk.stats.unreadable_blocks, 0);
        let (from, to) = spec.window_bounds();
        let served = nodes.iter().any(|&n| {
            let shard = dir.join(format!("shard-00{}", n / 2 % 2));
            common::companions_serve(&shard, n, "m", disk.stats.tier, from, to)
        });
        prop_assert_eq!(
            disk.stats.scanned_buckets > 0,
            served,
            "companions serve the merged runs where the rule keeps them"
        );
        let scanned = disk.stats.scanned_raw + disk.stats.scanned_buckets;
        prop_assert!(scanned <= want.iter().map(|p| p.count).sum::<u64>());
        assert_matches_oracle(agg, "disk", &disk.groups[0].points, &want);

        let over_ranges =
            query::run_over_ranges(&spec, |n, m, f, to_| store.range(n, m, f, to_)).unwrap();
        assert_matches_oracle(agg, "raw ranges", &over_ranges.groups[0].points, &want);
        let volatile = mem.query(&spec).unwrap();
        assert_matches_oracle(agg, "MemStore", &volatile.groups[0].points, &want);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// What a store's series index can get wrong: both shards also hold
    /// a monitor the query does not ask for (`mm`, sampled on the same
    /// nodes at the same instants with other values, and registered
    /// first), node 2 reports only that one, node 7 of the group was
    /// never seen, and the nodes are registered in descending order, a
    /// shard at a time. Each node's samples sit in segments and in the
    /// memtable.
    #[test]
    fn the_series_index_answers_for_the_queried_monitor_only(
        steps in 60u64..400,
        late_every in 2u64..9,
        seed in any::<u64>(),
        window_idx in 0usize..6,
        agg_idx in 0usize..9,
    ) {
        let agg = AGGS[agg_idx];
        let dir = tmp_dir("index-oracle");
        let cfg = StoreConfig {
            n_shards: 2,
            nodes_per_group: 2,
            flush_threshold: 37,
            compact_threshold: 3,
            cache_capacity_samples: 1 << 16,
        };
        let store = DiskStore::open(&dir, cfg).unwrap();
        // shard 0 holds nodes 0, 1, 4, 5 and shard 1 nodes 2, 3 (and 7)
        let reporting = [5u32, 4, 3, 1, 0];
        let group_nodes = [4u32, 7, 2, 0, 5, 3, 1];
        let mut rows = Vec::new();
        for i in 0..steps {
            let time = 100 + i * 5 - if i % late_every == 1 { 4 } else { 0 };
            store.append(2, "mm", t(time), -1e6);
            for &node in &reporting {
                let v = value(seed, i * 8 + node as u64);
                store.append(node, "mm", t(time), v + 1e6);
                store.append(node, "m", t(time), v);
                let source = group_nodes.iter().position(|&n| n == node).unwrap();
                rows.push(Row { time: time * SEC, source, arrival: i as usize, value: v });
            }
        }
        let shard = |i| files_ending(&dir.join(format!("shard-00{i}")), "-r0.seg").len();
        prop_assert!(shard(0) > 0 && shard(1) > 0, "both shards flushed");
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(100 + steps * 5),
            window_nanos: WINDOWS_SECS[window_idx] * SEC,
            agg,
            groups: group(&group_nodes),
            max_scan: 0,
        };
        let want = oracle(&spec, rows);
        let disk = store.query(&spec).unwrap();
        prop_assert_eq!(disk.stats.unreadable_blocks, 0);
        assert_matches_oracle(agg, "disk", &disk.groups[0].points, &want);
        let over_ranges =
            query::run_over_ranges(&spec, |n, m, f, to_| store.range(n, m, f, to_)).unwrap();
        assert_matches_oracle(agg, "raw ranges", &over_ranges.groups[0].points, &want);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A node's memtable samples are its last source: at a time its
/// segments also hold, the memtable's arrived later, and `rate` takes
/// the later arrival as a window's last sample and the earlier as its
/// first.
#[test]
fn the_memtable_is_each_nodes_last_source() {
    let dir = tmp_dir("mem-last");
    let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
    let nodes = [1u32, 0];
    let mut rows = Vec::new();
    let mut append = |source: usize, time: u64, value: f64| {
        store.append(nodes[source], "m", t(time), value);
        let arrival = rows.len();
        rows.push(Row {
            time: time * SEC,
            source,
            arrival,
            value,
        });
    };
    for i in 0..20 {
        for source in 0..2 {
            append(source, i, (i * 10 + source as u64) as f64);
        }
    }
    store.flush_all().unwrap();
    // both ends of the window again, now in the memtable
    for source in 0..2 {
        append(source, 19, 1_000.0);
        append(source, 0, -1_000.0);
    }
    for agg in AGGS {
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(59),
            window_nanos: 60 * SEC,
            agg,
            groups: group(&nodes),
            max_scan: 0,
        };
        let want = oracle(&spec, rows.clone());
        let got = store.query(&spec).unwrap();
        assert_matches_oracle(agg, "disk", &got.groups[0].points, &want);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// One shard, `nodes` series, `flushes` bare flush segments of eight
/// samples per series each (merging switched off).
fn wide_store(tag: &str, nodes: u32, flushes: u64) -> (PathBuf, DiskStore) {
    let dir = tmp_dir(tag);
    let cfg = StoreConfig {
        n_shards: 1,
        nodes_per_group: nodes,
        flush_threshold: 64,
        compact_threshold: 1_000,
        cache_capacity_samples: 1 << 20,
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    for step in 0..8 * flushes {
        let batch: Vec<BatchSample<'_>> = (0..nodes)
            .map(|node| BatchSample {
                node,
                monitor: "m",
                time: t(step * 5),
                value: (node as u64 * 1_000 + step) as f64,
            })
            .collect();
        store.append_batch(&batch);
    }
    (dir, store)
}

fn files_ending(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    out.sort();
    out
}

fn all_nodes_spec(nodes: u32, agg: AggFunc, window_secs: u64) -> QuerySpec {
    QuerySpec {
        monitor: "m".into(),
        from: t(0),
        to: t(1_000_000),
        window_nanos: window_secs * SEC,
        agg,
        groups: group(&(0..nodes).collect::<Vec<_>>()),
        max_scan: 0,
    }
}

#[test]
fn an_over_budget_query_stops_reading_where_it_trips() {
    let (dir, store) = wide_store("budget", 200, 2);
    assert_eq!(files_ending(&dir.join("shard-000"), "-r0.seg").len(), 2);
    let mut spec = all_nodes_spec(200, AggFunc::P50, 60);
    spec.max_scan = 10;
    match store.query(&spec) {
        Err(QueryError::BudgetExceeded {
            scanned,
            budget: 10,
        }) => {
            assert!(scanned <= 16, "tripped two blocks in, not at {scanned}")
        }
        other => panic!("expected a budget refusal, got {other:?}"),
    }
    // 200 nodes × 2 segments were on offer
    let cs = store.cache_stats();
    assert!(
        cs.misses <= 2,
        "{} blocks read for a refused query",
        cs.misses
    );
    assert_eq!(cs.entries, cs.misses);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_over_budget_query_stops_copying_the_memtable_where_it_trips() {
    let dir = tmp_dir("budget-mem");
    let cfg = StoreConfig {
        n_shards: 1,
        nodes_per_group: 200,
        flush_threshold: 1 << 20,
        compact_threshold: 1_000,
        cache_capacity_samples: 1 << 16,
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    for step in 0..8 {
        for node in 0..200 {
            store.append(node, "m", t(step * 5), 1.0);
        }
    }
    assert_eq!(store.write_stats().flushes, 0, "memtable-only");
    let mut spec = all_nodes_spec(200, AggFunc::Max, 60);
    spec.max_scan = 20;
    match store.query(&spec) {
        Err(QueryError::BudgetExceeded { scanned, budget }) => {
            assert_eq!(budget, 20);
            assert_eq!(scanned, 24, "charged node by node: three nodes in")
        }
        other => panic!("expected a budget refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Flip one payload byte of `series` in the segment file at `path`.
fn damage_payload(path: &Path, series: usize) {
    let index = SegmentIndex::read_from(path).unwrap();
    let mut bytes = std::fs::read(path).unwrap();
    bytes[index.entries[series].offset as usize + 2] ^= 0x20;
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn an_unreadable_block_is_counted_not_silent() {
    let (dir, store) = wide_store("unreadable", 20, 3);
    store.compact_all().unwrap();
    let shard = dir.join("shard-000");
    let total = 20 * 8 * 3;
    let counted =
        |r: &cwx_store::QueryResult| r.groups[0].points.iter().map(|p| p.count).sum::<u64>();

    // a raw block, damaged after open
    damage_payload(&files_ending(&shard, "-r0.seg")[0], 7);
    let raw = store.query(&all_nodes_spec(20, AggFunc::P50, 60)).unwrap();
    assert_eq!(raw.stats.unreadable_blocks, 1);
    assert_eq!(counted(&raw), total - 8 * 3, "the gap is one series' block");
    // the other tiers still answer in full
    let tier = all_nodes_spec(20, AggFunc::Avg, 10);
    let fine = store.query(&tier).unwrap();
    assert_eq!((fine.stats.unreadable_blocks, counted(&fine)), (0, total));

    // a tier block
    store.clear_cache();
    damage_payload(&files_ending(&shard, "-r1.seg")[0], 3);
    let gapped = store.query(&tier).unwrap();
    assert_eq!(gapped.stats.tier, Resolution::TenSeconds);
    assert_eq!(gapped.stats.unreadable_blocks, 1);
    assert_eq!(counted(&gapped), total - 8 * 3);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_forgotten_node_comes_back_with_only_its_new_samples() {
    let dir = tmp_dir("forget");
    let cfg = StoreConfig {
        n_shards: 2,
        nodes_per_group: 2,
        flush_threshold: 40,
        compact_threshold: 3,
        cache_capacity_samples: 1 << 16,
    };
    let count = |store: &DiskStore, node: u32| -> (u64, f64) {
        let spec = QuerySpec {
            groups: group(&[node]),
            ..all_nodes_spec(1, AggFunc::Sum, 3_600)
        };
        let points = store.query(&spec).unwrap().groups[0].points.clone();
        (
            points.iter().map(|p| p.count).sum(),
            points.iter().map(|p| p.value).sum(),
        )
    };
    {
        let store = DiskStore::open(&dir, cfg.clone()).unwrap();
        // node 1's old samples in segments and the memtable, under "m"
        // and a monitor it will not report again
        for i in 0..150 {
            for node in [0, 1] {
                store.append(node, "m", t(i), 1.0);
            }
            store.append(1, "gone", t(i), 1.0);
        }
        assert_eq!(count(&store, 1), (150, 150.0));
        store.forget_node(1);
        assert_eq!(count(&store, 1), (0, 0.0));
        for i in 200..210 {
            store.append(1, "m", t(i), 2.0);
        }
        assert_eq!(count(&store, 1), (10, 20.0));
        assert_eq!(count(&store, 0), (150, 150.0));
        assert_eq!(store.series(), [(0, "m".to_string()), (1, "m".to_string())]);
        assert_eq!(store.latest(1, "m").unwrap().time, t(209));
        assert_eq!(store.latest(1, "gone"), None);
    }
    // and so after a restart (the new samples replay from the WAL)
    let store = DiskStore::open(&dir, cfg).unwrap();
    assert_eq!(count(&store, 1), (10, 20.0));
    assert_eq!(store.range(1, "m", SimTime::ZERO, SimTime::MAX).len(), 10);
    assert_eq!(store.series().len(), 2);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn latest_reads_the_one_block_that_can_hold_it() {
    let dir = tmp_dir("latest");
    let cfg = StoreConfig {
        n_shards: 1,
        nodes_per_group: 4,
        flush_threshold: 16,
        compact_threshold: 3,
        cache_capacity_samples: 1 << 16,
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    // node 0: in order; node 1: its newest sample arrives first, so it
    // sits in the oldest segment; node 2: the newest time twice, in two
    // segments (the later arrival wins)
    let n = 8 * 12; // 12 flushes of 24 samples: two merged runs and two bare flushes
    for i in 0..n {
        store.append(0, "m", t(10 + i), i as f64);
        store.append(
            1,
            "m",
            t(if i == 0 { 5_000 } else { 10 + i }),
            100.0 + i as f64,
        );
        let twice = i == 3 || i == n - 2;
        store.append(
            2,
            "m",
            t(if twice { 9_000 } else { 10 + i }),
            200.0 + i as f64,
        );
    }
    store.flush_all().unwrap();
    let segments = files_ending(&dir.join("shard-000"), "-r0.seg").len();
    assert_eq!(segments, 4, "a layered shard");
    for (node, want) in [(0, (n - 1) as f64), (1, 100.0), (2, 200.0 + (n - 2) as f64)] {
        // what reading the whole history says
        let all = store.range(node, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(all.last().unwrap().value, want);
        store.clear_cache();
        let before = store.cache_stats().misses;
        assert_eq!(store.latest(node, "m"), all.last().copied(), "node {node}");
        assert_eq!(store.cache_stats().misses - before, 1, "node {node}");
    }
    assert_eq!(store.latest(3, "m"), None);
    // a buffered sample newer than every segment wins without touching
    // disk (an older one is `latest_is_not_a_late_sample_behind_a_flushed_one`)
    store.append(0, "m", t(10 + n), -1.0);
    let before = store.cache_stats();
    assert_eq!(store.latest(0, "m").unwrap().value, -1.0);
    assert_eq!(store.cache_stats(), before);
    let _ = std::fs::remove_dir_all(dir);
}

/// `latest` is the last sample `range` returns over all time — the
/// newest time, and the last appended among equal times — wherever the
/// samples sit and whatever order they arrived in. `flush` puts node 0's
/// first sample in a segment before the rest arrive.
fn latest_matches_the_end_of_range(tag: &str, flush: bool) {
    let dir = tmp_dir(tag);
    let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
    let check = |want: f64| {
        let all = store.range(0, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(all.last().unwrap().value, want, "range");
        assert_eq!(store.latest(0, "m"), all.last().copied());
    };
    store.append(0, "m", t(100), 1.0);
    if flush {
        store.flush_all().unwrap();
    }
    // a late sample is the last appended, not the newest
    store.append(0, "m", t(90), 2.0);
    check(1.0);
    // among equal times the later arrival wins, then a late one again
    store.append(0, "m", t(100), 3.0);
    store.append(0, "m", t(50), 4.0);
    check(3.0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn latest_is_not_a_late_sample_behind_a_flushed_one() {
    latest_matches_the_end_of_range("latest-late-flushed", true);
}

#[test]
fn latest_is_not_a_late_sample_in_the_memtable() {
    latest_matches_the_end_of_range("latest-late-buffered", false);
}

#[test]
fn a_window_span_is_charged_to_the_budget() {
    // two samples a year apart under one-second windows
    let far = 365 * 86_400;
    let dir = tmp_dir("span");
    let disk = DiskStore::open(&dir, StoreConfig::default()).unwrap();
    let mem = MemStore::new(8);
    let stores: [&dyn Store; 2] = [&disk, &mem];
    for store in stores {
        store.append(0, "m", t(5), 1.0);
        store.append(0, "m", t(far), 2.0);
        let mut spec = all_nodes_spec(1, AggFunc::Avg, 1);
        spec.to = t(far);
        // with or without a budget of its own: the default stands in
        for max_scan in [0, 100] {
            spec.max_scan = max_scan;
            match store.query(&spec) {
                Err(QueryError::BudgetExceeded { scanned, .. }) => {
                    assert_eq!(scanned, far - 5 + 1, "the span in windows")
                }
                other => panic!("expected a budget refusal, got {other:?}"),
            }
        }
        // the same two samples under windows that fit the same budget
        spec.window_nanos = 30 * 86_400 * SEC;
        assert_eq!(store.query(&spec).unwrap().groups[0].points.len(), 2);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Descriptors of this process that point into `dir`, as link targets.
fn open_under(dir: &Path) -> Vec<String> {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .filter(|target| target.starts_with(&*dir.to_string_lossy()))
        .collect()
}

#[test]
fn a_merge_closes_the_files_it_replaces() {
    let dir = tmp_dir("fds");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.canonicalize().unwrap();
    let cfg = StoreConfig {
        n_shards: 1,
        nodes_per_group: 4,
        flush_threshold: 32,
        compact_threshold: 3,
        cache_capacity_samples: 1 << 16,
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    let raw = all_nodes_spec(2, AggFunc::P95, 60);
    let tier = all_nodes_spec(2, AggFunc::Max, 10);
    let segment_fds = |dir: &Path| -> Vec<String> {
        let held = open_under(dir);
        held.into_iter().filter(|f| f.contains(".seg")).collect()
    };
    let mut appended = 0u64;
    let mut most_held = 0;
    for round in 0..40u64 {
        // short of a flush: `flush_all` below does it, and the merges
        for i in 0..12 {
            for node in 0..2 {
                store.append(node, "m", t(round * 12 + i), (round + i) as f64);
                appended += 1;
            }
        }
        // every file a query touches stays open until a merge drops it
        store.clear_cache();
        let before = store.query(&raw).unwrap();
        store.query(&tier).unwrap();
        most_held = most_held.max(segment_fds(&dir).len());
        store.flush_all().unwrap();
        store.clear_cache();
        let after = store.query(&raw).unwrap();
        assert_eq!(
            before.groups[0].points, after.groups[0].points,
            "round {round}"
        );
        let counted: u64 = after.groups[0].points.iter().map(|p| p.count).sum();
        assert_eq!(counted, appended);
        store.query(&tier).unwrap();

        let on_disk = files_ending(&dir.join("shard-000"), ".seg").len();
        let held = segment_fds(&dir);
        assert!(held.iter().all(|f| !f.ends_with("(deleted)")), "{held:?}");
        assert!(held.len() <= on_disk, "{} open of {on_disk}", held.len());
    }
    assert!(most_held >= 2, "queries keep their files open");
    assert!(store.write_stats().compactions >= 10);
    drop(store);
    assert_eq!(open_under(&dir), Vec::<String>::new());
    let _ = std::fs::remove_dir_all(dir);
}

/// `range_agg`'s buckets against the fold of `range`'s samples: count,
/// min, max and last exactly, the mean within 1e-12 relative.
fn assert_same_buckets(what: &str, got: &[AggBucket], want: &[AggBucket]) {
    assert_eq!(got.len(), want.len(), "{what}: bucket count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (
                g.start,
                g.count,
                g.min.to_bits(),
                g.max.to_bits(),
                g.last.to_bits()
            ),
            (
                w.start,
                w.count,
                w.min.to_bits(),
                w.max.to_bits(),
                w.last.to_bits()
            ),
            "{what} at {:?}",
            g.start
        );
        assert!(
            (g.mean() - w.mean()).abs() <= 1e-12 * g.mean().abs().max(w.mean().abs()),
            "{what} at {:?}: mean {} vs {}",
            g.start,
            g.mean(),
            w.mean()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `range_agg` at every tier is `aggregate(range(from, to), width)`,
    /// whatever the bounds and wherever the samples sit: merged segments
    /// with the companions the rule kept for the cadence, an optional
    /// full merge of the first two thirds, bare flushes, a memtable, and
    /// late samples (some at a time another sample already has). `from`
    /// and `to` fall anywhere, to the nanosecond, so stored buckets
    /// would straddle both edges. `MemStore` answers the same.
    #[test]
    fn range_agg_is_the_fold_of_range_at_any_bounds(
        step in 1u64..40,
        flushes in 4usize..14,
        in_memtable in 0usize..41,
        late_every in 2u64..9,
        late_by in 1u64..300,
        compact in any::<bool>(),
        from_per_mille in 0u64..1000,
        len_per_mille in 0u64..1001,
        res_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let dir = tmp_dir("range-agg");
        let cfg = StoreConfig {
            n_shards: 1,
            nodes_per_group: 2,
            flush_threshold: 41,
            compact_threshold: 3,
            cache_capacity_samples: 1 << 16,
        };
        let store = DiskStore::open(&dir, cfg).unwrap();
        let mem = MemStore::new(1 << 16);
        let per_node = (flushes * 41 + in_memtable) as u64;
        let time_of = |i: u64| {
            let on_time = 300 * step + i * step + (i % 3);
            if i.is_multiple_of(late_every) { on_time - late_by * step } else { on_time }
        };
        let mut newest = 0;
        for i in 0..per_node {
            if compact && i == per_node * 2 / 3 {
                store.compact_all().unwrap();
            }
            newest = newest.max(time_of(i));
            // positive, so the mean's relative error means something
            let v = value(seed, i) + 1_001.0;
            store.append(0, "m", t(time_of(i)), v);
            mem.append(0, "m", t(time_of(i)), v);
        }
        let span = newest * SEC;
        let from = SimTime::from_nanos(span * from_per_mille / 1000);
        let len = (span - from.as_nanos()) * len_per_mille / 1000;
        let to = SimTime::from_nanos(from.as_nanos() + len);
        let res = Resolution::TIERS[res_idx];
        let samples = store.range(0, "m", from, to);
        prop_assert_eq!(&samples, &mem.range(0, "m", from, to));
        let want = query::aggregate(&samples, res.bucket_nanos().unwrap());
        assert_same_buckets("disk", &store.range_agg(0, "m", from, to, res), &want);
        assert_same_buckets("MemStore", &mem.range_agg(0, "m", from, to, res), &want);
        let _ = std::fs::remove_dir_all(dir);
    }
}
