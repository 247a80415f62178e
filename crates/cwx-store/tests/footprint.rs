//! What a compacted store costs on disk, per sample and per resolution.
//! A merge writes a series' 10 s / 5 min / 1 h block only where it
//! folds at least 2× fewer entries than the source a query at that tier
//! would otherwise read, so a 30 s series keeps no 10 s block (one
//! sample a bucket) and a 1 s series keeps all three. The readings are
//! two-decimal random walks, as a sensor reports them, so each value
//! column is stored as scaled-integer deltas; one case feeds ratios
//! with no short decimal form instead, which fall back to the XOR
//! chain. The samples are on a fixed tick, so no segment stores their
//! stamps; one case jitters them by up to a millisecond, as wall-clock
//! delivery stamps are, and pays for a delta-of-delta column exactly
//! what the v4 format paid. One case is a young store instead: a flush
//! of a few samples a series, where the series headers are most of the
//! bytes. The sizes are deterministic: the same appends write the same
//! bytes.

use std::path::{Path, PathBuf};

use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::segment::SegmentIndex;
use cwx_store::{BatchSample, Resolution, Store};
use cwx_util::time::{SimDuration, SimTime};

const NODES: u32 = 10;
/// The raw files of `jittered_stamps_cost_what_they_did` as the v4
/// writer wrote them.
const JITTERED_V4_RAW_BYTES: u64 = 20_150;
/// Four hours: a 30 s series has 48 five-minute and 4 one-hour buckets.
const SPAN_SECS: u64 = 4 * 3_600;

/// Bytes and series held per resolution (indexed by tag), and samples.
struct Footprint {
    bytes: [u64; 4],
    series: [usize; 4],
    samples: u64,
}

impl Footprint {
    fn per_sample(&self, res: Resolution) -> f64 {
        self.bytes[res.tag() as usize] as f64 / self.samples as f64
    }

    fn total_per_sample(&self) -> f64 {
        self.bytes.iter().sum::<u64>() as f64 / self.samples as f64
    }
}

/// A two-decimal reading: a walk step of 1 is 0.01.
fn two_decimals(walk: i64) -> f64 {
    walk as f64 / 100.0
}

/// A ratio with no short decimal form, as `cpu.util_pct` reports one.
fn ratio(walk: i64) -> f64 {
    walk as f64 / 7.0
}

/// Up to a millisecond off the tick, in nanoseconds: a splitmix64
/// hash of the sample's step and node.
fn jitter(step: u64, node: u32) -> u64 {
    let mut z = (step << 32 | node as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000
}

/// `NODES` series of `cpu.util` every `cadence_secs` over `SPAN_SECS`,
/// each value `reading(walk)`, each stamp `jittered` or on the tick,
/// compacted, and what its segment files hold.
fn compacted(cadence_secs: u64, reading: fn(i64) -> f64, jittered: bool) -> Footprint {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "cwx-footprint-{cadence_secs}-{}-{jittered}-{}",
        reading(1),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        n_shards: 2,
        nodes_per_group: NODES / 2,
        ..StoreConfig::default()
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut walks = vec![5_000i64; NODES as usize];
    for step in 0..SPAN_SECS / cadence_secs {
        let tick = SimTime::ZERO + SimDuration::from_secs(step * cadence_secs);
        let batch: Vec<BatchSample<'_>> = (0..NODES)
            .map(|node| {
                let time = match jittered {
                    true => tick + SimDuration::from_nanos(jitter(step, node)),
                    false => tick,
                };
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let walk = &mut walks[node as usize];
                *walk = (*walk + (state >> 33) as i64 % 101 - 50).clamp(0, 10_000);
                BatchSample {
                    node,
                    monitor: "cpu.util",
                    time,
                    value: reading(*walk),
                }
            })
            .collect();
        store.append_batch(&batch);
    }
    store.compact_all().unwrap();
    let samples = store.total_samples();
    drop(store);
    let mut out = Footprint {
        bytes: [0; 4],
        series: [0; 4],
        samples,
    };
    for shard in ["shard-000", "shard-001"] {
        for path in segment_files(&dir.join(shard)) {
            let index = SegmentIndex::read_from(&path).unwrap();
            let tag = index.resolution.tag() as usize;
            out.bytes[tag] += std::fs::metadata(&path).unwrap().len();
            out.series[tag] += index.entries.len();
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    eprintln!(
        "{cadence_secs:>2} s{}: {:.2} B/sample (r0 {:.2}, r1 {:.2}, r2 {:.2}, r3 {:.2}), series {:?}",
        if jittered { " jittered" } else { "" },
        out.total_per_sample(),
        out.per_sample(Resolution::Raw),
        out.per_sample(Resolution::TenSeconds),
        out.per_sample(Resolution::FiveMinutes),
        out.per_sample(Resolution::OneHour),
        out.series,
    );
    out
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect()
}

/// Each resolution's bytes a sample stay under `ceiling` (r0, r1, r2,
/// r3, by tag).
fn assert_under(f: &Footprint, ceiling: [f64; 4]) {
    for res in [Resolution::Raw].into_iter().chain(Resolution::TIERS) {
        let got = f.per_sample(res);
        assert!(
            got <= ceiling[res.tag() as usize],
            "{res:?}: {got:.3} B/sample"
        );
    }
}

#[test]
fn a_30s_series_keeps_no_10s_block() {
    let f = compacted(30, two_decimals, false);
    let all = NODES as usize;
    assert_eq!(f.series, [all, 0, all, all]);
    // raw: the value column alone, ≈ 1 B a sample (v4 added ≈ 1 B of
    // zero delta-of-delta stamps); r2: counts and four decimal columns,
    // the sums ≈ 2 B a bucket where v4's means were ≈ 6.5 B chains. The
    // r1 files are bare headers, written so every merge keeps its four
    // files
    assert_under(&f, [1.2, 0.01, 0.9, 0.15]);
    assert!(f.total_per_sample() <= 2.2, "{:?}", f.bytes);
}

#[test]
fn a_5s_series_keeps_every_tier() {
    let f = compacted(5, two_decimals, false);
    let all = NODES as usize;
    // two samples in every 10 s bucket: the block folds exactly half
    // the entries, the rule's edge, and is kept
    assert_eq!(f.series, [all; 4]);
    assert_under(&f, [1.2, 3.2, 0.18, 0.03]);
}

#[test]
fn a_1s_series_keeps_every_tier() {
    let f = compacted(1, two_decimals, false);
    let all = NODES as usize;
    assert_eq!(f.series, [all; 4]);
    assert_under(&f, [1.2, 0.85, 0.05, 0.015]);
}

#[test]
fn ratios_fall_back_to_the_xor_chain() {
    let f = compacted(30, ratio, false);
    let all = NODES as usize;
    assert_eq!(f.series, [all, 0, all, all]);
    // every value column is a tagged XOR chain, sums included: about
    // what an untagged chain cost, and no decimal saving
    assert_under(&f, [7.5, 0.01, 3.3, 0.4]);
    assert!(f.per_sample(Resolution::Raw) >= 6.5, "{:?}", f.bytes);
    assert!(f.total_per_sample() <= 11.0, "{:?}", f.bytes);
}

#[test]
fn jittered_stamps_cost_what_they_did() {
    let f = compacted(30, two_decimals, true);
    let all = NODES as usize;
    assert_eq!(f.series, [all, 0, all, all]);
    // no raw series is evenly spaced, so each keeps its delta-of-delta
    // column: the raw files are the v4 writer's bytes (the count's flag
    // bit is free here), ceiling included. Bucket starts stay on the
    // tick, so the tiers still store none
    assert!(f.bytes[0] <= JITTERED_V4_RAW_BYTES, "{:?}", f.bytes);
    assert!(f.per_sample(Resolution::Raw) >= 3.0, "{:?}", f.bytes);
    assert_under(&f, [4.3, 0.01, 0.9, 0.15]);
}

/// An `ingest_live` flush in miniature: 250 nodes × 4 monitors, four
/// two-decimal samples a series 2 s apart on nanosecond stamps near
/// 1.7 × 10^18, each node's reports 8 ms after the one before, flushed
/// once. Bytes per series, all segment files together.
fn young_bytes_per_series() -> f64 {
    const NODES: u32 = 250;
    const MONITORS: [&str; 4] = ["bench.m0", "bench.m1", "bench.m2", "bench.m3"];
    let dir = std::env::temp_dir().join(format!("cwx-footprint-young-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut walks = vec![5_000i64; NODES as usize * MONITORS.len()];
    for step in 0..4u64 {
        for node in 0..NODES {
            let time = SimTime::from_nanos(
                1_700_000_000_000_000_000 + step * 2_000_000_000 + node as u64 * 8_000_000,
            );
            let batch: Vec<BatchSample<'_>> = MONITORS
                .iter()
                .enumerate()
                .map(|(m, monitor)| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let walk = &mut walks[node as usize * MONITORS.len() + m];
                    *walk = (*walk + (state >> 33) as i64 % 101 - 50).clamp(0, 10_000);
                    BatchSample {
                        node,
                        monitor,
                        time,
                        value: two_decimals(*walk),
                    }
                })
                .collect();
            store.append_batch(&batch);
        }
    }
    store.flush_all().unwrap();
    assert_eq!(store.total_samples(), 4 * 1_000);
    drop(store);
    let (mut bytes, mut series) = (0u64, 0usize);
    for shard in std::fs::read_dir(&dir).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for path in segment_files(&shard) {
            series += SegmentIndex::read_from(&path).unwrap().entries.len();
            bytes += std::fs::metadata(&path).unwrap().len();
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(series, 1_000);
    let per_series = bytes as f64 / series as f64;
    eprintln!("young store: {bytes} B, {per_series:.1} B a series");
    per_series
}

#[test]
fn a_young_store_pays_for_its_samples_not_its_headers() {
    // a series is ≈ 21 B: a ≈ 15 B header and 6 B of values. Its four
    // stamps are 2 s apart, so they cost nothing; v4 spent 8 B on them
    // (the 2 s delta is 5), and the fixed-width v3 header with its name
    // and 8 B time bounds, and a full-nanosecond first stamp, made a
    // series ≈ 64 B
    let per_series = young_bytes_per_series();
    assert!(per_series <= 24.0, "{per_series:.1} B a series");
}
