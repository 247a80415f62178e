//! Tier-selection correctness: a query answered from the 10s/5min/1h
//! tiers must be value-identical (within float-merge tolerance) to the
//! same aggregation computed from raw samples — including where part of
//! a window comes from stored buckets and the rest from raw segments
//! and memtables, and where one bucket's samples sit in several
//! segments because they arrived late.

mod common;

use std::path::PathBuf;

use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::segment::{Segment, SegmentIndex, SeriesData};
use cwx_store::{query, AggFunc, QueryGroup, QuerySpec, Resolution, Store};
use cwx_util::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cwx-tierq-{tag}-{}-{:?}",
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

/// Relative comparison: Avg/Sum add stored bucket sums on the tier
/// path (exact for decimal readings) and samples in `f64` on the raw
/// path, so demand closeness, not bit-equality. Min/Max/Count must be
/// exact and are checked exactly.
fn close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-9 * scale
}

/// Window widths exercised: every tier boundary plus multiples.
const WINDOWS_SECS: [u64; 6] = [10, 30, 300, 600, 3_600, 7_200];
/// Tier-serveable functions (percentiles/rate always go raw and are
/// trivially identical, so they prove nothing here).
const AGGS: [AggFunc; 5] = [
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Sum,
    AggFunc::Count,
];

fn value(seed: u64, i: u64) -> f64 {
    // deterministic, sign-varied, non-integral values
    let x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(i.wrapping_mul(1442695040888963407));
    ((x >> 16) % 20_000) as f64 / 7.0 - 1_000.0
}

/// Assert two answers to one spec agree window by window.
fn assert_same_points(
    agg: AggFunc,
    tiered: &cwx_store::QueryResult,
    reference: &cwx_store::QueryResult,
) {
    let a = &tiered.groups[0].points;
    let b = &reference.groups[0].points;
    assert_eq!(a.len(), b.len(), "window count differs");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.start, y.start);
        assert_eq!(x.count, y.count, "per-window counts must be exact");
        match agg {
            AggFunc::Min | AggFunc::Max | AggFunc::Count => {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{agg:?}");
            }
            _ => assert!(
                close(x.value, y.value),
                "{agg:?}: tier {} vs raw {}",
                x.value,
                y.value
            ),
        }
    }
}

fn files_ending(dir: &std::path::Path, suffix: &str) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy().ends_with(suffix)
        })
        .count()
}

/// Flush counts after which the size-tiered policy (fan-in 3) leaves a
/// shard with two merged segments and one or two bare flushes.
const LAYERED_FLUSHES: [usize; 4] = [11, 12, 17, 19];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The store as ingest leaves it: per shard two merged segments
    /// with companions, bare flush segments and a part-full memtable.
    /// Every `late_every`-th sample arrives up to `late_by` steps after
    /// its neighbours in time, so it lands in a later segment (or the
    /// memtable) than the bucket it belongs to, on either side of a
    /// merge; the span is hours, so 10 s, 5 min and 1 h buckets all
    /// straddle files.
    #[test]
    fn tier_answers_match_raw_in_a_layered_store(
        step in 5u64..40,
        flushes_idx in 0usize..4,
        in_memtable in 1usize..41,
        late_every in 2u64..9,
        late_by in 1u64..400,
        seed in any::<u64>(),
        window_idx in 0usize..6,
        agg_idx in 0usize..5,
    ) {
        let window_secs = WINDOWS_SECS[window_idx];
        let agg = AGGS[agg_idx];
        let dir = tmp_dir("layered");
        let cfg = StoreConfig {
            n_shards: 2,
            nodes_per_group: 2,
            flush_threshold: 41,
            compact_threshold: 3,
            cache_capacity_samples: 1 << 16,
        };
        let store = DiskStore::open(&dir, cfg).unwrap();
        // one series per shard, so per-shard counts are exact
        let nodes = [0u32, 3u32];
        let per_node = LAYERED_FLUSHES[flushes_idx] * 41 + in_memtable;
        let time_of = |i: u64| {
            let on_time = 400 * step + i * step + (i % 3);
            if i.is_multiple_of(late_every) { on_time - late_by * step } else { on_time }
        };
        let mut newest = 0;
        for i in 0..per_node as u64 {
            newest = newest.max(time_of(i));
            for (k, &n) in nodes.iter().enumerate() {
                store.append(n, "m", t(time_of(i)), value(seed, i * 2 + k as u64));
            }
        }
        for shard in ["shard-000", "shard-001"] {
            let tiered = files_ending(&dir.join(shard), "-r1.seg");
            let raw = files_ending(&dir.join(shard), "-r0.seg");
            prop_assert_eq!(tiered, 2, "{}: merged segments", shard);
            prop_assert!(raw > tiered, "{}: bare flush segments", shard);
        }

        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(newest),
            window_nanos: window_secs * SEC,
            agg,
            groups: vec![QueryGroup { key: "g".into(), nodes: nodes.to_vec() }],
            max_scan: 0,
        };
        let tiered = store.query(&spec).unwrap();
        prop_assert_eq!(tiered.stats.tier, query::select_tier(spec.window_nanos, agg));
        let reference =
            query::run_over_ranges(&spec, |n, m, f, to_| store.range(n, m, f, to_)).unwrap();
        assert_same_points(agg, &tiered, &reference);
        let total: u64 = tiered.groups[0].points.iter().map(|p| p.count).sum();
        prop_assert_eq!(total, 2 * per_node as u64, "late samples included");
        let (from, to) = spec.window_bounds();
        let served = nodes.iter().any(|&n| {
            let shard = dir.join(format!("shard-00{}", n / 2 % 2));
            common::companions_serve(&shard, n, "m", tiered.stats.tier, from, to)
        });
        prop_assert_eq!(
            tiered.stats.scanned_buckets > 0,
            served,
            "companions serve the merged runs where the rule keeps them"
        );
        prop_assert!(tiered.stats.scanned_raw > 0, "raw serves flushes and memtable");

        // range_agg over the same layout: one bucket per start, each
        // equal to the fold of the raw samples it covers
        let raw = store.range(0, "m", SimTime::ZERO, SimTime::MAX);
        for res in Resolution::TIERS {
            let got = store.range_agg(0, "m", SimTime::ZERO, SimTime::MAX, res);
            let want = query::aggregate(&raw, res.bucket_nanos().unwrap());
            prop_assert_eq!(got.len(), want.len(), "{:?}", res);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(
                    (g.start, g.count, g.min.to_bits(), g.max.to_bits()),
                    (w.start, w.count, w.min.to_bits(), w.max.to_bits()),
                    "{:?}", res
                );
                prop_assert!(close(g.mean(), w.mean()), "{:?}: {} vs {}", res, g.mean(), w.mean());
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tier_answers_match_raw_computation(
        step in 1u64..40,
        compacted in 1usize..400,
        suffix in 0usize..120,
        seed in any::<u64>(),
        window_idx in 0usize..6,
        agg_idx in 0usize..5,
    ) {
        let window_secs = WINDOWS_SECS[window_idx];
        let agg = AGGS[agg_idx];
        let dir = tmp_dir("match");
        let cfg = StoreConfig {
            n_shards: 2,
            nodes_per_group: 2,
            flush_threshold: 97, // off-boundary so memtables stay half full
            compact_threshold: 2,
            cache_capacity_samples: 1 << 16,
        };
        let store = DiskStore::open(&dir, cfg).unwrap();
        // two nodes on different shards, merged into one group
        let nodes = [0u32, 3u32];
        let mut last = 0u64;
        for i in 0..compacted as u64 {
            let ts = i * step + (i % 3); // irregular spacing
            last = ts;
            for (k, &n) in nodes.iter().enumerate() {
                store.append(n, "m", t(ts), value(seed, i * 2 + k as u64));
            }
        }
        store.compact_all().unwrap();
        for j in 0..suffix as u64 {
            let ts = last + 1 + j * step;
            for (k, &n) in nodes.iter().enumerate() {
                store.append(n, "m", t(ts), value(seed ^ 0xdead, j * 2 + k as u64));
            }
        }
        let to = t(last + 1 + suffix as u64 * step);
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to,
            window_nanos: window_secs * SEC,
            agg,
            groups: vec![QueryGroup { key: "g".into(), nodes: nodes.to_vec() }],
            max_scan: 0,
        };
        let expected_tier = query::select_tier(spec.window_nanos, agg);
        prop_assert_ne!(expected_tier, Resolution::Raw, "scenario windows are tier-serveable");

        let tiered = store.query(&spec).unwrap();
        prop_assert_eq!(tiered.stats.tier, expected_tier);
        // reference: the same spec evaluated purely over raw samples
        let reference = query::run_over_ranges(&spec, |n, m, f, to_| store.range(n, m, f, to_)).unwrap();

        assert_same_points(agg, &tiered, &reference);
        // suffix really exercised the boundary when present
        if suffix > 0 {
            prop_assert!(tiered.stats.scanned_raw > 0, "suffix must be raw-scanned");
        }
        let (from, to) = spec.window_bounds();
        let served = nodes.iter().any(|&n| {
            let shard = dir.join(format!("shard-00{}", n / 2 % 2));
            common::companions_serve(&shard, n, "m", expected_tier, from, to)
        });
        prop_assert_eq!(
            tiered.stats.scanned_buckets > 0,
            served,
            "tiers serve the body where the rule keeps them"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One merge, two cadences: the 1 s series earns its 10 s block and the
/// 30 s series (one sample a bucket) does not, so one 10 s query folds
/// the first from `r1` and the second from raw, and matches the raw
/// fold window for window.
#[test]
fn one_query_folds_a_1s_series_from_its_10s_tier_and_a_30s_series_from_raw() {
    let dir = tmp_dir("mixed");
    let cfg = StoreConfig {
        n_shards: 1,
        ..StoreConfig::default()
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    for i in 0..3_600u64 {
        store.append(0, "m", t(i), value(7, i));
        if i.is_multiple_of(30) {
            store.append(1, "m", t(i), value(8, i));
        }
    }
    store.compact_all().unwrap();
    let shard = dir.join("shard-000");
    let r1 = SegmentIndex::read_from(&shard.join("seg-00000001-r1.seg")).unwrap();
    let held: Vec<u32> = r1.entries.iter().map(|e| e.node).collect();
    assert_eq!(held, [0], "the 10 s companion holds the 1 s series only");

    for agg in AGGS {
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(3_599),
            window_nanos: 10 * SEC,
            agg,
            groups: vec![QueryGroup {
                key: "g".into(),
                nodes: vec![0, 1],
            }],
            max_scan: 0,
        };
        let tiered = store.query(&spec).unwrap();
        assert_eq!(tiered.stats.tier, Resolution::TenSeconds);
        assert_eq!(tiered.stats.fallback_shards, 0);
        assert_eq!(tiered.stats.scanned_buckets, 360, "node 0 from r1");
        assert_eq!(tiered.stats.scanned_raw, 120, "node 1 from raw");
        let reference =
            query::run_over_ranges(&spec, |n, m, f, to_| store.range(n, m, f, to_)).unwrap();
        assert_same_points(agg, &tiered, &reference);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A two-decimal reading's stored 5 min and 1 h buckets hold the exact
/// sum of their samples, `Σm / 100` divided once, bit for bit — where
/// adding the readings in `f64` would miss by an ulp or more.
#[test]
fn stored_sums_of_two_decimal_readings_are_exact() {
    let dir = tmp_dir("exact");
    let cfg = StoreConfig {
        n_shards: 1,
        nodes_per_group: 2,
        ..StoreConfig::default()
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    // three hours at 1 s of a walk in hundredths, per node
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut scaled: Vec<Vec<(u64, i64)>> = vec![Vec::new(); 2];
    for secs in 0..3 * 3_600u64 {
        for (node, series) in scaled.iter_mut().enumerate() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let prev = series.last().map_or(5_000, |&(_, m)| m);
            let m = (prev + (state >> 33) as i64 % 101 - 50).clamp(0, 10_000);
            series.push((secs, m));
            store.append(node as u32, "temp.cpu", t(secs), m as f64 / 100.0);
        }
    }
    store.compact_all().unwrap();
    drop(store);
    let mut inexact_in_f64 = 0;
    for (res, buckets) in [(Resolution::FiveMinutes, 36), (Resolution::OneHour, 3)] {
        let width = res.bucket_nanos().unwrap() / SEC;
        let suffix = format!("-r{}.seg", res.tag());
        let files: Vec<_> = std::fs::read_dir(dir.join("shard-000"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(&suffix))
            .collect();
        assert_eq!(files.len(), 1, "{res:?}");
        let segment = Segment::read_from(&files[0]).unwrap();
        assert_eq!(segment.series.len(), 2, "{res:?}");
        for ((node, _), data) in &segment.series {
            let SeriesData::Buckets(stored) = data else {
                panic!("{res:?}: not buckets")
            };
            assert_eq!(stored.len(), buckets, "{res:?}");
            for b in stored {
                let start = b.start.as_nanos() / SEC;
                let ms: Vec<i64> = scaled[*node as usize]
                    .iter()
                    .filter(|&&(secs, _)| secs / width * width == start)
                    .map(|&(_, m)| m)
                    .collect();
                assert_eq!(b.count, ms.len() as u64);
                let exact = ms.iter().sum::<i64>() as f64 / 100.0;
                assert_eq!(b.sum.to_bits(), exact.to_bits(), "{res:?} at {start} s");
                let in_f64: f64 = ms.iter().map(|&m| m as f64 / 100.0).sum();
                inexact_in_f64 += usize::from(in_f64 != exact);
            }
        }
    }
    assert!(
        inexact_in_f64 > 0,
        "every f64 sum was exact: the test shows nothing"
    );
    let _ = std::fs::remove_dir_all(dir);
}
