//! `server::commit` hands a report's numeric values to history as one
//! batch stamped at the report's gather time and evaluates events
//! afterwards. This must be unobservable next to the loop it replaced —
//! per value: record at the gather time, then observe at the receive
//! time — on the volatile backend and on the persistent one, including
//! when the network delivers a report twice (the `DuplicatedReports`
//! fault): the channel's decoder refuses the second copy, so the loop
//! stores and observes each report once.

use std::sync::Arc;

use clusterworx::server::{commit, Arrival, Server};
use cwx_monitor::monitor::{MonitorKey, Value};
use cwx_monitor::transmit::{self, Report, WireDecoder};
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::mem::MemStore;
use cwx_store::{Sample, Store};
use cwx_util::time::{SimDuration, SimTime};

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn server(history: Arc<dyn Store>) -> Server {
    Server::with_history(
        "batch",
        SimDuration::from_secs(5),
        history,
        SimDuration::from_secs(30),
    )
}

/// Reports over six nodes and forty ticks: temperatures that cross the
/// overtemp rule and come back (fire, clear, re-fire), a dead fan, load
/// spikes, text values, an all-text report, and every seventh payload
/// delivered twice.
fn traffic() -> Vec<(SimTime, Vec<u8>)> {
    let mut out = Vec::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for tick in 0..40u64 {
        for node in 0..6u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let hot = (tick / 6 + node as u64).is_multiple_of(3);
            let mut values = vec![
                (
                    MonitorKey::new("temp.cpu"),
                    Value::Num(if hot { 81.25 } else { 52.0 + (x % 9) as f64 }),
                ),
                (MonitorKey::new("cpu.type"), Value::Text("PIII".into())),
                (
                    MonitorKey::new("load.one"),
                    Value::Num((x >> 8) as f64 % 12.0),
                ),
                (
                    MonitorKey::new("fan.cpu_rpm"),
                    Value::Num(if node == 4 && tick > 20 { 0.0 } else { 6000.0 }),
                ),
                (MonitorKey::new("mem.free"), Value::Num((x >> 20) as f64)),
            ];
            if tick % 11 == 3 {
                values.retain(|(_, v)| v.as_num().is_none());
            }
            // a monitor first seen mid-run
            if tick > 25 {
                values.push((MonitorKey::new(format!("site.m{node}")), Value::Num(1.5)));
            }
            let report = Report {
                node,
                seq: tick,
                time_secs: tick as f64 * 5.0,
                values,
            };
            let payload = if node % 2 == 0 {
                transmit::encode_compressed(&report)
            } else {
                transmit::encode(&report).into_bytes()
            };
            let at = t(tick * 5 + 1);
            if (tick * 6 + node as u64).is_multiple_of(7) {
                out.push((at, payload.clone()));
            }
            out.push((at, payload));
        }
    }
    out
}

type Stored = (Vec<(u32, String, Vec<Sample>)>, u64);

fn stored(h: &dyn Store) -> Stored {
    let rows = h
        .series()
        .into_iter()
        .map(|(n, k)| {
            let all = h.range(n, &k, SimTime::ZERO, SimTime::MAX);
            (n, k, all)
        })
        .collect();
    (rows, h.total_samples())
}

/// Run the traffic through `commit` and, beside it, through the
/// per-value loop on `reference`/`reference_history`; everything a
/// client could read afterwards must agree.
fn assert_batched_ingest_matches(history: Arc<dyn Store>, reference_history: Arc<dyn Store>) {
    let mut batched = server(Arc::clone(&history));
    let mut reference = server(Arc::new(MemStore::new(1)));
    let mut decoder = WireDecoder::new();
    let mut seen = std::collections::HashSet::new();
    let mut repeats = 0;
    for (now, payload) in traffic() {
        let arrival = Arrival {
            recv: now,
            wire: payload.len(),
            report: decoder.decode_auto(&payload),
        };
        commit(&*history, &[arrival], || &mut batched);
        let report = transmit::decode_auto(&payload).unwrap();
        if !seen.insert((report.node, report.seq)) {
            repeats += 1;
            continue;
        }
        let gathered = SimTime::ZERO + SimDuration::from_secs_f64(report.time_secs);
        for (key, value) in &report.values {
            if let Value::Num(x) = value {
                reference_history.append(report.node, key, gathered, *x);
                reference.observe(now, report.node, key, *x);
            }
        }
        assert_eq!(
            batched.take_actions(),
            reference.take_actions(),
            "at {now:?}"
        );
    }
    assert_eq!(batched.stats().refused, repeats);
    assert!(repeats > 30, "the traffic must repeat reports");
    assert_eq!(batched.take_alarms(), reference.take_alarms());
    assert_eq!(batched.stats().actions, reference.stats().actions);
    assert!(batched.stats().actions > 3, "the traffic must fire rules");
    assert_eq!(batched.housekeeping(t(400)), reference.housekeeping(t(400)));
    assert_eq!(batched.outbox(), reference.outbox());
    assert_eq!(batched.mails_suppressed(), reference.mails_suppressed());
    let (rows, total) = stored(&**batched.history());
    assert_eq!((rows.clone(), total), stored(&*reference_history));
    assert!(total > 800 && rows.len() > 24);
}

#[test]
fn batched_ingest_matches_per_value_loop_on_memstore() {
    // capacity 16 < 40 ticks: the rings wrap
    assert_batched_ingest_matches(Arc::new(MemStore::new(16)), Arc::new(MemStore::new(16)));
}

#[test]
fn batched_ingest_matches_per_value_loop_on_diskstore() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ingest-batch");
    let _ = std::fs::remove_dir_all(&base);
    let open = |name: &str| -> Arc<dyn Store> {
        let cfg = StoreConfig {
            // small enough that flushes and merges happen mid-run
            flush_threshold: 64,
            ..StoreConfig::default()
        };
        Arc::new(DiskStore::open(&base.join(name), cfg).unwrap())
    };
    assert_batched_ingest_matches(open("batched"), open("reference"));
    let _ = std::fs::remove_dir_all(&base);
}
