//! Acceptance test for the storage engine's durability contract: every
//! acknowledged write survives dropping the store mid-write — no flush,
//! no shutdown — and comes back bit-identical with checksums intact.

use std::sync::Arc;
use std::thread;

use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::{BatchSample, Sample, Store};
use cwx_util::time::SimTime;

const NODES: u32 = 8;
const MONITORS: [&str; 2] = ["cpu.util_pct", "load.one"];
const PER_SERIES: u64 = 6_500; // 8 nodes x 2 monitors x 6500 = 104k samples

fn expected_series(node: u32, monitor: &str) -> Vec<Sample> {
    let m = if monitor == "cpu.util_pct" { 0u64 } else { 1 };
    (0..PER_SERIES)
        .map(|i| Sample {
            time: SimTime::from_nanos(1_000_000_000 + i * 5_000_000_000),
            value: ((node as u64 * 31 + m * 7 + i) % 997) as f64 * 0.25,
        })
        .collect()
}

#[test]
fn kill_and_restart_loses_no_acknowledged_sample() {
    let dir = std::env::temp_dir().join(format!("cwx-recovery-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: concurrent ingest of >100k samples across 16 series,
    // then drop the store abruptly. No flush: whatever the memtables
    // held exists only in the WALs at this point.
    {
        let store = Arc::new(
            DiskStore::open(
                &dir,
                StoreConfig {
                    n_shards: 4,
                    nodes_per_group: 2,
                    flush_threshold: 1024,
                    compact_threshold: 4,
                    ..StoreConfig::default()
                },
            )
            .expect("fresh store"),
        );
        thread::scope(|s| {
            for node in 0..NODES {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for monitor in MONITORS {
                        for sample in expected_series(node, monitor) {
                            // returning from append IS the acknowledgement
                            store.append(node, monitor, sample.time, sample.value);
                        }
                    }
                });
            }
        });
        drop(store); // kill: no flush(), memtables discarded
    }

    // Phase 2: reopen and verify every acknowledged sample is back.
    let store = DiskStore::open(&dir, StoreConfig::default()).expect("recovered store");
    let rec = store.recovery();
    assert_eq!(rec.segments_quarantined, 0, "no checksum failures: {rec:?}");
    assert!(
        rec.samples_replayed > 0,
        "some tail must come from the WAL: {rec:?}"
    );
    assert_eq!(
        store.total_samples(),
        NODES as u64 * MONITORS.len() as u64 * PER_SERIES,
        "recovery: {rec:?}"
    );

    for node in 0..NODES {
        for monitor in MONITORS {
            let expect = expected_series(node, monitor);
            let got = store.range(node, monitor, SimTime::ZERO, SimTime::MAX);
            assert_eq!(got.len(), expect.len(), "node{node} {monitor}");
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.time, e.time, "node{node} {monitor}");
                assert_eq!(g.value.to_bits(), e.value.to_bits(), "node{node} {monitor}");
            }
            // a window query returns exactly the samples inside it
            let (from, to) = (expect[100].time, expect[300].time);
            let window = store.range(node, monitor, from, to);
            assert_eq!(window.len(), 201, "node{node} {monitor} window");
            assert_eq!(window[0].time, from);
            assert_eq!(window[200].time, to);
        }
    }

    // Phase 3: the recovered store keeps working — appends land and a
    // third open sees them too.
    let late = SimTime::from_nanos(1_000_000_000 + PER_SERIES * 5_000_000_000);
    store.append(0, "cpu.util_pct", late, 42.0);
    store.flush();
    drop(store);
    let store = DiskStore::open(&dir, StoreConfig::default()).expect("third open");
    let last = store.latest(0, "cpu.util_pct").expect("series survives");
    assert_eq!((last.time, last.value), (late, 42.0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_batch_preserves_acknowledged_batches() {
    // Batched ingest writes one WAL frame per series per batch, all in a
    // single syscall. A crash can tear that write anywhere; everything
    // before the tear must replay, everything after must vanish cleanly.
    let dir = std::env::temp_dir().join(format!("cwx-recovery-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const BATCHES: u64 = 10;
    const PER_BATCH: u64 = 10;
    let sample = |m: u64, i: u64| Sample {
        time: SimTime::from_nanos(1_000_000_000 * (i + 1)),
        value: (m * 1000 + i) as f64,
    };
    let cfg = || StoreConfig {
        n_shards: 1, // one WAL so the tear point is deterministic to hit
        nodes_per_group: 2,
        flush_threshold: 1_000_000, // never flush: everything stays in the WAL
        compact_threshold: 4,
        ..StoreConfig::default()
    };

    {
        let store = DiskStore::open(&dir, cfg()).expect("fresh store");
        for b in 0..BATCHES {
            let mut batch = Vec::new();
            for (m, monitor) in MONITORS.iter().enumerate() {
                for i in b * PER_BATCH..(b + 1) * PER_BATCH {
                    batch.push(BatchSample {
                        node: 0,
                        monitor,
                        time: sample(m as u64, i).time,
                        value: sample(m as u64, i).value,
                    });
                }
            }
            // returning from append_batch acknowledges the whole batch
            store.append_batch(&batch);
        }
        drop(store); // kill: no flush
    }

    // tear the WAL mid-frame: the final frame of the last batch loses
    // its tail, exactly as if the machine died during the write
    let wal = dir.join("shard-000").join("wal.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 9).unwrap();
    drop(f);

    let store = DiskStore::open(&dir, cfg()).expect("recovered store");
    let rec = store.recovery();
    assert!(
        rec.wal_truncated_bytes > 0,
        "the torn frame was dropped: {rec:?}"
    );

    let total_expected = MONITORS.len() as u64 * BATCHES * PER_BATCH;
    let mut recovered = 0u64;
    for (m, monitor) in MONITORS.iter().enumerate() {
        let got = store.range(0, monitor, SimTime::ZERO, SimTime::MAX);
        // a series lost at most its final-batch frame, never more
        assert!(
            got.len() as u64 >= (BATCHES - 1) * PER_BATCH,
            "{monitor}: acknowledged batches 0..{} must survive, got {}",
            BATCHES - 1,
            got.len()
        );
        assert!(got.len() as u64 <= BATCHES * PER_BATCH);
        // and what survived is a bit-exact prefix, in order
        for (i, s) in got.iter().enumerate() {
            let e = sample(m as u64, i as u64);
            assert_eq!(s.time, e.time, "{monitor}[{i}]");
            assert_eq!(s.value.to_bits(), e.value.to_bits(), "{monitor}[{i}]");
        }
        recovered += got.len() as u64;
    }
    assert!(
        recovered < total_expected,
        "the tear must actually have cost the torn frame"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cwx-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shard, so every file operation of a test is in one directory.
fn one_shard(flush_threshold: usize, compact_threshold: usize) -> StoreConfig {
    StoreConfig {
        n_shards: 1,
        nodes_per_group: 64,
        flush_threshold,
        compact_threshold,
        ..StoreConfig::default()
    }
}

#[test]
fn acknowledged_late_samples_survive_a_restart() {
    // A sample older than what its series already has in a segment is
    // still an acknowledged write. Replay used to drop it as "already
    // flushed" by comparing times; what is flushed is now known exactly.
    let dir = fresh_dir("late");
    {
        let store = DiskStore::open(&dir, one_shard(1024, 4)).unwrap();
        store.append(0, "m", secs(10), 1.0);
        store.flush_all().unwrap();
        store.append(0, "m", secs(5), 2.0); // late, WAL only
    }
    let store = DiskStore::open(&dir, one_shard(1024, 4)).unwrap();
    assert_eq!(store.recovery().samples_replayed, 1);
    let got = store.range(0, "m", SimTime::ZERO, SimTime::MAX);
    assert_eq!(
        got.iter().map(|s| (s.time, s.value)).collect::<Vec<_>>(),
        [(secs(5), 2.0), (secs(10), 1.0)]
    );
    assert_eq!(store.total_samples(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flushed_but_unreadable_segment_does_not_cost_the_wal_its_samples() {
    // Killed between the segment's rename and the WAL checkpoint, and
    // the segment did not survive intact: the log is discarded only for
    // a segment that can be read, so its samples replay.
    let dir = fresh_dir("flushed-corrupt");
    {
        let store = DiskStore::open(&dir, one_shard(1024, 4)).unwrap();
        for i in 0..10 {
            store.append(0, "m", secs(i), i as f64);
        }
        store.inject_kill_after(1); // the segment write, not the checkpoint
        assert!(store.flush_all().is_err());
    }
    let segment = dir.join("shard-000").join("seg-00000001-r0.seg");
    let mut bytes = std::fs::read(&segment).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&segment, bytes).unwrap();

    let store = DiskStore::open(&dir, one_shard(1024, 4)).unwrap();
    let rec = store.recovery();
    assert_eq!((rec.segments_quarantined, rec.samples_replayed), (1, 10));
    assert_eq!(store.range(0, "m", SimTime::ZERO, SimTime::MAX).len(), 10);
    // and the same kill with the segment intact replays nothing twice
    store.inject_kill_after(1);
    assert!(store.flush_all().is_err());
    drop(store);
    let store = DiskStore::open(&dir, one_shard(1024, 4)).unwrap();
    assert_eq!(store.recovery().samples_replayed, 0);
    assert_eq!(store.range(0, "m", SimTime::ZERO, SimTime::MAX).len(), 10);
    assert_eq!(store.total_samples(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copy every regular file of `from` into `to` unless it exists there.
fn restore_missing(from: &std::path::Path, to: &std::path::Path) -> usize {
    let mut restored = 0;
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let target = to.join(path.file_name().unwrap());
        if !target.exists() {
            std::fs::copy(&path, &target).unwrap();
            restored += 1;
        }
    }
    restored
}

/// Four bare flush segments of two series, a copy of them taken, then
/// merged: returns the store dir and the copy. Putting the copy back
/// is the directory a kill between a merge's commit and the removal of
/// its inputs leaves behind.
fn merged_with_inputs_saved(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = fresh_dir(tag);
    let saved = fresh_dir(&format!("{tag}-saved"));
    let store = DiskStore::open(&dir, one_shard(50, 100)).unwrap();
    for i in 0..100u64 {
        store.append(0, "a", secs(i), i as f64);
        store.append(1, "b", secs(i), -(i as f64));
    }
    store.flush_all().unwrap();
    std::fs::create_dir_all(&saved).unwrap();
    assert_eq!(restore_missing(&dir.join("shard-000"), &saved), 5); // 4 segments + wal
    store.compact_all().unwrap();
    (dir, saved)
}

fn assert_two_series_of_100(store: &DiskStore) {
    assert_eq!(store.total_samples(), 200);
    for (node, monitor, sign) in [(0, "a", 1.0), (1, "b", -1.0)] {
        let got = store.range(node, monitor, SimTime::ZERO, SimTime::MAX);
        assert_eq!(got.len(), 100, "{monitor}");
        for (i, s) in got.iter().enumerate() {
            assert_eq!((s.time, s.value), (secs(i as u64), sign * i as f64));
        }
    }
}

#[test]
fn a_kill_between_merge_commit_and_input_removal_does_not_double_count() {
    let (dir, saved) = merged_with_inputs_saved("dup");
    assert_eq!(restore_missing(&saved, &dir.join("shard-000")), 4);
    let store = DiskStore::open(&dir, one_shard(50, 100)).unwrap();
    assert_two_series_of_100(&store);
    // the superseded inputs are gone for good, not just skipped
    drop(store);
    assert_eq!(restore_missing(&dir.join("shard-000"), &saved), 4); // r0..r3 of the merge
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&saved);
}

#[test]
fn a_damaged_merge_output_falls_back_to_its_surviving_inputs() {
    let (dir, saved) = merged_with_inputs_saved("dmg");
    let shard = dir.join("shard-000");
    restore_missing(&saved, &shard);
    let merged = shard.join("seg-00000001-00000004-r0.seg");
    let mut bytes = std::fs::read(&merged).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&merged, bytes).unwrap();

    let store = DiskStore::open(&dir, one_shard(50, 100)).unwrap();
    // the raw file and the three companions that described it
    assert_eq!(store.recovery().segments_quarantined, 4);
    assert_two_series_of_100(&store);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&saved);
}

#[test]
fn a_kill_at_any_file_operation_of_flush_or_merge_keeps_every_sample_once() {
    // Let the store complete n durable file operations (segment writes,
    // WAL checkpoints, input removals), fail everything after — the
    // directory a kill at that instant leaves — and reopen. Sweep n
    // until a run gets through unharmed.
    const SERIES: [(u32, &str); 3] = [(0, "a"), (0, "b"), (7, "a")];
    let value = |k: usize, i: u64| (k as u64 * 1000 + i) as f64 * 0.5;
    let cfg = || one_shard(30, 2);
    let mut kills = 0;
    for n in 0.. {
        let dir = fresh_dir(&format!("sweep-{n}"));
        let store = DiskStore::open(&dir, cfg()).unwrap();
        store.inject_kill_after(n);
        // 8 flushes of 30: merges cascade 2 → 4 → 8 flushes deep
        let mut acknowledged = 0u64;
        while acknowledged < 80 && !store.degraded() {
            for (k, (node, monitor)) in SERIES.iter().enumerate() {
                // returning from append IS the acknowledgement, also for
                // the append whose flush or merge then died
                store.append(*node, monitor, secs(acknowledged), value(k, acknowledged));
            }
            acknowledged += 1;
        }
        let killed = store.degraded();
        drop(store);

        let store = DiskStore::open(&dir, cfg()).unwrap();
        let rec = store.recovery();
        assert_eq!(rec.segments_quarantined, 0, "kill after {n} ops: {rec:?}");
        assert_eq!(
            store.total_samples(),
            3 * acknowledged,
            "kill after {n} ops: {rec:?}"
        );
        let check = |store: &DiskStore, upto: u64| {
            for (k, (node, monitor)) in SERIES.iter().enumerate() {
                let got = store.range(*node, monitor, SimTime::ZERO, SimTime::MAX);
                assert_eq!(
                    got.len() as u64,
                    upto,
                    "kill after {n} ops: {monitor}@{node}"
                );
                for (i, s) in got.iter().enumerate() {
                    assert_eq!((s.time, s.value), (secs(i as u64), value(k, i as u64)));
                }
            }
        };
        check(&store, acknowledged);
        // the survivor keeps working: more appends, a full merge, a third open
        for (k, (node, monitor)) in SERIES.iter().enumerate() {
            store.append(*node, monitor, secs(acknowledged), value(k, acknowledged));
        }
        store.compact_all().unwrap();
        check(&store, acknowledged + 1);
        drop(store);
        check(&DiskStore::open(&dir, cfg()).unwrap(), acknowledged + 1);
        let _ = std::fs::remove_dir_all(&dir);

        if !killed {
            break;
        }
        kills += 1;
    }
    // 8 flushes (2 ops) + 7 merges (4 writes + their input files)
    assert!(kills > 8 * 2 + 7 * 6, "only {kills} kill points swept");
}
