//! A store directory written by the previous release must open and
//! answer as it did then, and convert to the current segment format as
//! it merges. A release reads its own segment format and the one before
//! it; older segments refuse the open (the unit tests of `disk.rs` and
//! `segment.rs` check that).
//!
//! `fixtures/v4-layout` was written by the `CWXSEG4` writer (2 shards ×
//! {a merged segment `seg-00000001-00000002` with its three companions,
//! the flush segment `seg-00000003`, a WAL holding the tail}): 4 nodes ×
//! 2 monitors × 70 samples, 5 s apart from 1.7 × 10^18 ns, so every
//! companion holds every series. `cpu.util` is a two-decimal reading
//! (decimal columns), `load.one` a ratio (XOR columns). Its `ANSWERS`
//! file holds the tier `avg` and `sum` answers the v4 code gave over it
//! (`monitor tier function window_start count value_bits`), which v5
//! must give bit for bit while the tiers are v4 files: it reads a v4
//! mean as the sum `mean × count` that v4 queries folded.
//!
//! The same directory with each WAL's header replaced by the 8-byte
//! `CWXWAL1\n` of the log format before it must replay the same tail:
//! such a log names no segment it flushes to, so it always replays.
//!
//! A merge rewrites the store as v5, and `compact_all` rewrites a shard
//! that is already one merged v4 set, so the store holds no v4 file
//! when the next release stops reading them.

use std::path::{Path, PathBuf};

use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::segment::{Format, SegmentIndex};
use cwx_store::{query, AggFunc, QueryGroup, QuerySpec, Resolution, Sample, Store};
use cwx_util::time::SimTime;

const MONITORS: [&str; 2] = ["cpu.util", "load.one"];

/// A scratch copy of `fixtures/v4-layout` named by `tag`; with
/// `v1_wal`, each WAL's 16-byte header (`CWXWAL2\n` and the segment it
/// flushes to) replaced by the v1 magic alone.
fn copy_fixture(tag: &str, v1_wal: bool) -> PathBuf {
    let from = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v4-layout");
    let to = std::env::temp_dir().join(format!("cwx-v4-layout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&to);
    for shard in ["shard-000", "shard-001"] {
        std::fs::create_dir_all(to.join(shard)).unwrap();
        for entry in std::fs::read_dir(from.join(shard)).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, to.join(shard).join(path.file_name().unwrap())).unwrap();
        }
        if v1_wal {
            let wal = to.join(shard).join("wal.log");
            let bytes = std::fs::read(&wal).unwrap();
            assert!(bytes.starts_with(b"CWXWAL2\n"), "{shard}");
            std::fs::write(&wal, [b"CWXWAL1\n", &bytes[16..]].concat()).unwrap();
        }
    }
    std::fs::copy(from.join("CONFIG"), to.join("CONFIG")).unwrap();
    to
}

/// Every segment file of both shards, by format: how many series each
/// resolution holds, per shard.
fn segment_formats(dir: &Path) -> Vec<(Format, [usize; 4])> {
    let mut out = Vec::new();
    for shard in ["shard-000", "shard-001"] {
        let mut held = [0usize; 4];
        let mut formats = Vec::new();
        for entry in std::fs::read_dir(dir.join(shard)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "seg") {
                continue;
            }
            let index = SegmentIndex::read_from(&path).unwrap();
            held[index.resolution.tag() as usize] += index.entries.len();
            formats.push(index.format);
        }
        formats.dedup();
        assert_eq!(formats.len(), 1, "{shard}: one format, {formats:?}");
        out.push((formats[0], held));
    }
    out
}

/// Samples a series of the v4 fixture holds.
const LAYOUT_STEPS: u64 = 70;

fn layout_expected(node: u32, monitor: usize) -> Vec<Sample> {
    (0..LAYOUT_STEPS)
        .map(|i| {
            let walk = ((node as u64 * 31 + monitor as u64 * 7 + i * 13) % 997) as f64;
            Sample {
                time: SimTime::from_nanos(1_700_000_000_000_000_000 + i * 5_000_000_000),
                value: if monitor == 0 {
                    walk / 100.0
                } else {
                    walk / 7.0
                },
            }
        })
        .collect()
}

/// Every series' samples, bit for bit, and the answer of a windowed
/// query over all four nodes per monitor, resolution and function.
/// `avg` is left out: its sums fold in block order, so a merge that
/// moves block boundaries moves its last bits, whatever the format.
fn layout_answers(store: &DiskStore) -> Vec<(Resolution, AggFunc, Vec<query::AggPoint>)> {
    assert_eq!(store.total_samples(), 8 * LAYOUT_STEPS);
    for node in 0..4u32 {
        for (m, monitor) in MONITORS.iter().enumerate() {
            let got = store.range(node, monitor, SimTime::ZERO, SimTime::MAX);
            let want = layout_expected(node, m);
            let bits = |s: &[Sample]| -> Vec<(SimTime, u64)> {
                s.iter().map(|s| (s.time, s.value.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "node{node} {monitor}");
            for res in Resolution::TIERS {
                let buckets = store.range_agg(node, monitor, SimTime::ZERO, SimTime::MAX, res);
                assert_eq!(
                    buckets,
                    query::aggregate(&want, res.bucket_nanos().unwrap())
                );
            }
        }
    }
    let resolutions = [Resolution::Raw].into_iter().chain(Resolution::TIERS);
    all_nodes_answers(
        store,
        resolutions,
        &[AggFunc::Min, AggFunc::Max, AggFunc::Count],
    )
}

/// Each monitor's answer over all four nodes, at each of `resolutions`
/// (one window a bucket, a second at raw) and for each of `aggs`.
fn all_nodes_answers(
    store: &DiskStore,
    resolutions: impl Iterator<Item = Resolution> + Clone,
    aggs: &[AggFunc],
) -> Vec<(Resolution, AggFunc, Vec<query::AggPoint>)> {
    let mut answers = Vec::new();
    for monitor in MONITORS {
        for res in resolutions.clone() {
            for &agg in aggs {
                let spec = QuerySpec {
                    monitor: monitor.into(),
                    from: SimTime::ZERO,
                    to: SimTime::MAX,
                    window_nanos: res.bucket_nanos().unwrap_or(1_000_000_000),
                    agg,
                    groups: vec![QueryGroup {
                        key: "all".into(),
                        nodes: (0..4).collect(),
                    }],
                    max_scan: 0,
                };
                let got = store.query(&spec).unwrap();
                assert_eq!(got.stats.tier, res, "{monitor} {agg:?}");
                assert_eq!(got.stats.unreadable_blocks, 0);
                answers.push((res, agg, got.groups[0].points.clone()));
            }
        }
    }
    answers
}

/// Tier `avg` and `sum` answers over all four nodes, one line a window
/// in the fixture's `ANSWERS` format.
fn tier_sum_lines(store: &DiskStore) -> Vec<String> {
    let answers = all_nodes_answers(
        store,
        Resolution::TIERS.into_iter(),
        &[AggFunc::Avg, AggFunc::Sum],
    );
    let per_monitor = answers.len() / MONITORS.len();
    let mut lines = Vec::new();
    for (i, (res, agg, points)) in answers.into_iter().enumerate() {
        for p in points {
            lines.push(format!(
                "{} {} {} {} {} {:016x}",
                MONITORS[i / per_monitor],
                res.tag(),
                agg.name(),
                p.start.as_nanos(),
                p.count,
                p.value.to_bits()
            ));
        }
    }
    lines
}

#[test]
fn v4_written_store_opens_answers_and_merges_to_v5_identically() {
    // as written, and with v1 WAL headers: those name no segment they
    // flush to, so they replay the same tail
    for v1_wal in [false, true] {
        let dir = copy_fixture("answers", v1_wal);
        assert_eq!(segment_formats(&dir), vec![(Format::V4, [8, 4, 4, 4]); 2]);
        let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
        let rec = store.recovery();
        assert_eq!(rec.segments_loaded, 2 * 5, "{rec:?}");
        assert_eq!(rec.segments_quarantined, 0, "{rec:?}");
        assert_eq!(rec.samples_replayed, 2 * 4 * 6, "the WAL tail: {rec:?}");
        let before = layout_answers(&store);
        let v4_sums = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v4-layout/ANSWERS"),
        )
        .unwrap();
        let v4_sums: Vec<&str> = v4_sums.lines().collect();
        assert_eq!(
            tier_sum_lines(&store),
            v4_sums,
            "tier avg/sum as v4 answered"
        );

        store.compact_all().unwrap();
        assert_eq!(segment_formats(&dir), vec![(Format::V5, [4, 4, 4, 4]); 2]);
        assert_eq!(layout_answers(&store), before);
        // the merged tiers hold exact sums: the same windows and counts,
        // the values within the tier tests' bound of the v4 means'
        let parse = |line: &str| {
            let (key, bits) = line.rsplit_once(' ').unwrap();
            (
                key.to_string(),
                f64::from_bits(u64::from_str_radix(bits, 16).unwrap()),
            )
        };
        let merged = tier_sum_lines(&store);
        assert_eq!(merged.len(), v4_sums.len());
        for (got, want) in merged.iter().zip(&v4_sums) {
            let ((got_key, got), (want_key, want)) = (parse(got), parse(want));
            assert_eq!(got_key, want_key);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{got_key}: {got} vs {want}"
            );
        }
        drop(store);
        let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.recovery().segments_loaded, 2 * 4);
        assert_eq!(layout_answers(&store), before);
        assert_eq!(tier_sum_lines(&store), merged);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn compact_all_rewrites_a_shard_already_merged_in_v4() {
    // each shard's merged set alone: no flush segment, no WAL tail
    let dir = copy_fixture("merged", false);
    for shard in ["shard-000", "shard-001"] {
        std::fs::remove_file(dir.join(shard).join("seg-00000003-r0.seg")).unwrap();
        std::fs::remove_file(dir.join(shard).join("wal.log")).unwrap();
    }
    assert_eq!(segment_formats(&dir), vec![(Format::V4, [4, 4, 4, 4]); 2]);
    let every_series = |store: &DiskStore| -> Vec<Vec<Sample>> {
        (0..4)
            .flat_map(|node| MONITORS.map(|m| store.range(node, m, SimTime::ZERO, SimTime::MAX)))
            .collect()
    };
    let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
    let before = every_series(&store);
    assert!(before.iter().all(|samples| !samples.is_empty()));
    store.compact_all().unwrap();
    assert_eq!(segment_formats(&dir), vec![(Format::V5, [4, 4, 4, 4]); 2]);
    assert_eq!(every_series(&store), before);
    drop(store);
    let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(every_series(&store), before);
    let _ = std::fs::remove_dir_all(dir);
}
