//! Property tests for the storage codecs and the WAL recovery
//! invariant: whatever bytes survive a crash, recovery never yields a
//! corrupt sample.

use std::path::{Path, PathBuf};

use cwx_store::codec::{crc32, get_timestamps, get_values, put_timestamps, put_values};
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::segment::{Segment, SegmentIndex, SeriesData, SeriesIndexEntry};
use cwx_store::wal::{Wal, WalRecord};
use cwx_store::{
    AggBucket, AggFunc, BatchSample, QueryGroup, QuerySpec, Resolution, Sample, Store, StoreError,
};
use cwx_util::time::SimTime;
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cwx-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn samples_from(raw: &[(u64, u64)]) -> Vec<Sample> {
    // timestamps sorted (the engine appends in time order per series);
    // values decoded from raw bits so NaNs and infinities are covered
    let mut times: Vec<u64> = raw.iter().map(|(t, _)| *t).collect();
    times.sort_unstable();
    times
        .into_iter()
        .zip(raw.iter())
        .map(|(t, (_, bits))| Sample {
            time: SimTime::from_nanos(t),
            value: f64::from_bits(*bits),
        })
        .collect()
}

/// One series' samples as WAL rows.
fn rows(series: u32, samples: &[Sample]) -> Vec<(u32, Sample)> {
    samples.iter().map(|s| (series, *s)).collect()
}

fn eq_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn timestamp_codec_round_trips(raw in collection::vec(any::<u64>(), 0..200)) {
        let mut times = raw.clone();
        times.sort_unstable();
        let mut buf = Vec::new();
        put_timestamps(&mut buf, &times);
        let mut pos = 0;
        let back = get_timestamps(&buf, &mut pos, times.len()).unwrap();
        prop_assert_eq!(back, times);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn value_codec_round_trips_bit_exact(bits in collection::vec(any::<u64>(), 0..200)) {
        let values: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
        let mut buf = Vec::new();
        put_values(&mut buf, &values);
        let mut pos = 0;
        let back = get_values(&buf, &mut pos, values.len()).unwrap();
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn raw_segment_round_trips(
        batch_a in collection::vec((any::<u64>(), any::<u64>()), 0..120),
        batch_b in collection::vec((any::<u64>(), any::<u64>()), 0..120),
        node in 0u32..64,
    ) {
        let seg = Segment {
            resolution: Resolution::Raw,
            series: vec![
                ((node, "load.one".into()), SeriesData::Raw(samples_from(&batch_a))),
                ((node + 1, "mem.used_pct".into()), SeriesData::Raw(samples_from(&batch_b))),
            ],
        };
        let back = Segment::decode(&seg.encode(), Path::new("prop")).unwrap();
        prop_assert_eq!(back.resolution, Resolution::Raw);
        prop_assert_eq!(back.series.len(), seg.series.len());
        for ((ka, da), (kb, db)) in back.series.iter().zip(&seg.series) {
            prop_assert_eq!(ka, kb);
            let (SeriesData::Raw(a), SeriesData::Raw(b)) = (da, db) else {
                panic!("raw segment decoded to a non-raw series");
            };
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.time, y.time);
                prop_assert!(eq_bits(x.value, y.value));
            }
        }
    }

    #[test]
    fn tier_segment_round_trips(starts in collection::vec(any::<u64>(), 0..100)) {
        let mut starts = starts.clone();
        starts.sort_unstable();
        let buckets: Vec<AggBucket> = starts
            .iter()
            .enumerate()
            .map(|(i, s)| AggBucket {
                start: SimTime::from_nanos(*s),
                count: i as u64 + 1,
                min: i as f64 - 1.0,
                sum: i as f64,
                max: i as f64 + 1.5,
                last: i as f64 + 0.5,
            })
            .collect();
        let seg = Segment {
            resolution: Resolution::TenSeconds,
            series: vec![((7, "temp.cpu".into()), SeriesData::Buckets(buckets))],
        };
        let back = Segment::decode(&seg.encode(), Path::new("prop")).unwrap();
        prop_assert_eq!(back, seg);
    }

    #[test]
    fn any_single_byte_corruption_is_detected(
        batch in collection::vec((any::<u64>(), any::<u64>()), 1..60),
        flip_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let seg = Segment {
            resolution: Resolution::Raw,
            series: vec![((1, "m".into()), SeriesData::Raw(samples_from(&batch)))],
        };
        let mut bytes = seg.encode();
        let idx = (flip_seed % bytes.len() as u64) as usize;
        bytes[idx] ^= xor;
        // every byte is covered by magic check or CRC: no silent corruption
        prop_assert!(Segment::decode(&bytes, Path::new("prop")).is_err());
    }

    #[test]
    fn wal_replay_returns_exactly_what_was_written(
        batches in collection::vec(collection::vec((any::<u64>(), any::<u64>()), 0..20), 1..12),
    ) {
        let dir = tmp_dir("replay");
        let path = dir.join("wal.log");
        let mut written = Vec::new();
        {
            let mut wal = Wal::open(&path, 1).unwrap().wal;
            for (i, b) in batches.iter().enumerate() {
                let samples = samples_from(b);
                if samples.is_empty() {
                    continue; // no rows, no frame
                }
                wal.append_samples_multi([], &rows(i as u32, &samples)).unwrap();
                written.push((i as u32, samples));
            }
        }
        let rec = Wal::open(&path, 1).unwrap();
        prop_assert_eq!(rec.truncated_bytes, 0);
        prop_assert_eq!(rec.records.len(), written.len());
        for (record, (series, samples)) in rec.records.iter().zip(&written) {
            let WalRecord::Samples { series: s, samples: got } = record else {
                panic!("replay produced an unexpected record kind: {record:?}");
            };
            prop_assert_eq!(s, series);
            prop_assert_eq!(got.len(), samples.len());
            for (x, y) in got.iter().zip(samples) {
                prop_assert_eq!(x.time, y.time);
                prop_assert!(eq_bits(x.value, y.value));
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The recovery invariant, exhaustively: truncate the WAL at EVERY byte
/// offset and reopen. Recovery must never error, never invent samples,
/// and always return a prefix of what was written with every surviving
/// sample bit-identical.
#[test]
fn wal_truncation_at_every_byte_offset_never_corrupts() {
    let dir = tmp_dir("truncate-sweep");
    let path = dir.join("wal.log");
    let mut written: Vec<(u32, Vec<Sample>)> = Vec::new();
    {
        let mut wal = Wal::open(&path, 1).unwrap().wal;
        wal.append_samples_multi([(0, 3, "load.one"), (1, 3, "temp.cpu")], &[])
            .unwrap();
        for i in 0..12u64 {
            let series = (i % 2) as u32;
            let samples = vec![
                Sample {
                    time: SimTime::from_nanos(i * 1_000_000_007),
                    value: i as f64 * 0.37,
                },
                Sample {
                    time: SimTime::from_nanos(i * 1_000_000_007 + 13),
                    value: f64::NAN,
                },
            ];
            wal.append_samples_multi([], &rows(series, &samples))
                .unwrap();
            written.push((series, samples));
        }
    }
    let pristine = std::fs::read(&path).unwrap();

    for cut in 0..=pristine.len() {
        let trunc_path = dir.join("cut.log");
        std::fs::write(&trunc_path, &pristine[..cut]).unwrap();
        let rec = Wal::open(&trunc_path, 1).expect("recovery must not error");

        // recovered sample records must be a prefix of the written ones
        let recovered: Vec<&WalRecord> = rec
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Samples { .. }))
            .collect();
        assert!(
            recovered.len() <= written.len(),
            "cut at {cut}: more records than written"
        );
        for (record, (series, samples)) in recovered.iter().zip(&written) {
            let WalRecord::Samples {
                series: s,
                samples: got,
            } = record
            else {
                unreachable!()
            };
            assert_eq!(s, series, "cut at {cut}");
            assert_eq!(got.len(), samples.len(), "cut at {cut}");
            for (x, y) in got.iter().zip(samples) {
                assert_eq!(x.time, y.time, "cut at {cut}");
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "cut at {cut}");
            }
        }

        // and the repaired log must append cleanly afterwards
        let mut wal = rec.wal;
        let one = Sample {
            time: SimTime::from_nanos(1),
            value: 1.0,
        };
        wal.append_samples_multi([], &[(0, one)])
            .expect("append after repair");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A v6 flush in miniature: 12 nodes × 5 monitors of four evenly spaced
/// two-decimal samples, each node 8 ms after the one before, and every
/// third node's `m0` 200 samples long: several pages, one series a
/// page of its own.
fn young_segment() -> Segment {
    let mut series = Vec::new();
    for node in 0..12u32 {
        for m in 0..5u64 {
            let n = if m == 0 && node % 3 == 0 { 200 } else { 4 };
            let samples = (0..n)
                .map(|i| Sample {
                    time: SimTime::from_nanos(
                        1_700_000_000_000_000_000 + i * 2_000_000_000 + node as u64 * 8_000_000,
                    ),
                    value: ((node as u64 * 131 + m * 17 + i * 7) % 1_000) as f64 / 100.0,
                })
                .collect();
            series.push(((node, format!("m{m}").into()), SeriesData::Raw(samples)));
        }
    }
    Segment {
        resolution: Resolution::Raw,
        series,
    }
}

/// Whether decoding `bytes` is refused the way damage must be: as a
/// corrupt segment, or, where the damage spells a retired format's
/// magic, as that format (which refuses the open and changes nothing).
fn refused(bytes: &[u8]) -> bool {
    match Segment::decode(bytes, Path::new("prop")) {
        Err(StoreError::CorruptSegment { .. }) => true,
        Err(StoreError::RetiredSegment { .. }) => bytes[..6] == *b"CWXSEG",
        _ => false,
    }
}

#[test]
fn every_byte_flip_and_truncation_of_a_v6_file_is_refused() {
    let pristine = young_segment().encode();
    assert!(pristine.starts_with(b"CWXSEG6\n"));
    for at in 0..pristine.len() {
        // every bit alone and all of them; the magic with every value
        let xors: Vec<u8> = match at < 8 {
            true => (1..=255).collect(),
            false => (0..8).map(|b| 1 << b).chain([0xff]).collect(),
        };
        for xor in xors {
            let mut bytes = pristine.clone();
            bytes[at] ^= xor;
            assert!(refused(&bytes), "byte {at} ^ {xor:#04x}");
        }
    }
    for cut in 0..pristine.len() {
        assert!(refused(&pristine[..cut]), "cut at {cut}");
    }
    // and at open, the damaged file is set aside, the rest of the store
    // kept
    let dir = tmp_dir("v6-damage-open");
    let shard = dir.join("shard-000");
    let cfg = || StoreConfig {
        n_shards: 1,
        ..StoreConfig::default()
    };
    drop(DiskStore::open(&dir, cfg()).unwrap());
    for at in (8..pristine.len()).step_by(23) {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x10;
        let damaged = shard.join("seg-00000001-r0.seg");
        std::fs::write(&damaged, &bytes[..bytes.len() - at % 2]).unwrap();
        let store = DiskStore::open(&dir, cfg()).unwrap();
        assert_eq!(store.recovery().segments_quarantined, 1, "byte {at}");
        drop(store);
        std::fs::remove_file(damaged.with_extension("seg.corrupt")).unwrap();
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resealed_header_damage_is_corrupt_or_decodes_never_a_panic() {
    // damage the file CRC cannot see: every bit of the headers flipped
    // and the file resealed, so the walk itself meets it
    let pristine = young_segment().encode();
    let (_, index) = young_segment().encode_indexed();
    let payloads = (index.entries[0].offset - u64::from(index.entries[0].lead)) as usize;
    for at in 8..payloads {
        for bit in 0..8 {
            let mut bytes = pristine.clone();
            bytes[at] ^= 1 << bit;
            let end = bytes.len() - 4;
            let crc = crc32(&bytes[8..end]);
            bytes[end..].copy_from_slice(&crc.to_le_bytes());
            match Segment::decode(&bytes, Path::new("prop")) {
                Ok(_) | Err(StoreError::CorruptSegment { .. }) => {}
                Err(other) => panic!("byte {at} bit {bit}: {other:?}"),
            }
        }
    }
}

#[test]
fn a_page_damaged_after_open_is_unreadable_and_nothing_is_read_out_of_it() {
    let dir = tmp_dir("v6-page-after-open");
    let cfg = StoreConfig {
        n_shards: 1,
        nodes_per_group: 300,
        flush_threshold: 1 << 20,
        compact_threshold: 1_000,
        cache_capacity_samples: 1 << 20,
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    for i in 0..6u64 {
        let batch: Vec<BatchSample<'_>> = (0..300u32)
            .map(|node| BatchSample {
                node,
                monitor: "m",
                time: SimTime::from_nanos(1_700_000_000_000_000_000 + i * 2_000_000_000),
                value: ((node as u64 * 37 + i) % 500) as f64 / 10.0,
            })
            .collect();
        store.append_batch(&batch);
    }
    store.flush_all().unwrap();
    let path = dir.join("shard-000").join("seg-00000001-r0.seg");
    let index = SegmentIndex::read_from(&path).unwrap();
    let page = |e: &SeriesIndexEntry| e.offset - u64::from(e.lead);
    let mut pages: Vec<u64> = index.entries.iter().map(page).collect();
    pages.dedup();
    assert!(pages.len() >= 3, "{} pages", pages.len());
    // one byte of a middle page's last payload
    let hit = index.entries.iter().rfind(|e| page(e) == pages[1]).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[(hit.offset + u64::from(hit.len)) as usize - 1] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let lost: Vec<u32> = index
        .entries
        .iter()
        .filter(|e| page(e) == pages[1])
        .map(|e| e.node)
        .collect();

    let spec = QuerySpec {
        monitor: "m".into(),
        from: SimTime::ZERO,
        to: SimTime::MAX,
        window_nanos: 1 << 62,
        agg: AggFunc::Count,
        groups: (0..300u32)
            .map(|node| QueryGroup {
                key: node.to_string(),
                nodes: vec![node],
            })
            .collect(),
        max_scan: 0,
    };
    let got = store.query(&spec).unwrap();
    assert_eq!(got.stats.unreadable_blocks, lost.len() as u64);
    for (node, group) in got.groups.iter().enumerate() {
        let counted: u64 = group.points.iter().map(|p| p.count).sum();
        let want = if lost.contains(&(node as u32)) { 0 } else { 6 };
        assert_eq!(counted, want, "node {node}");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}
