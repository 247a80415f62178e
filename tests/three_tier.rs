//! The 3-tier claim (paper §5.1): "The 3-tier design allows multiple
//! clients to access the ClusterWorX server at the same time without
//! conflict." Agents push from below while several GUI clients query
//! from above, concurrently.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use clusterworx::server::{commit, Arrival};
use clusterworx::Server;
use cwx_monitor::monitor::{MonitorKey, Value};
use cwx_monitor::transmit::{encode_compressed, Report, WireDecoder};
use cwx_util::time::{SimDuration, SimTime};

fn report(node: u32, seq: u64, load: f64) -> Vec<u8> {
    encode_compressed(&Report {
        node,
        seq,
        time_secs: seq as f64,
        values: vec![
            (MonitorKey::new("load.one"), Value::Num(load)),
            (
                MonitorKey::new("mem.free"),
                Value::Num(500_000.0 - seq as f64),
            ),
        ],
    })
}

#[test]
fn concurrent_clients_and_agents_do_not_conflict() {
    let server = Arc::new(RwLock::new(Server::new(
        "三tier",
        SimDuration::from_secs(10),
        2048,
        SimDuration::from_secs(60),
    )));
    let stop = Arc::new(AtomicBool::new(false));

    // tier 1: sixteen agent feeders
    let mut handles = Vec::new();
    for node in 0..16u32 {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            // each feeder is one agent connection: its own decoder, the
            // server's store, the server lock only inside `commit`
            let store = Arc::clone(server.read().unwrap().history());
            let mut decoder = WireDecoder::new();
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let payload = report(node, seq, (seq % 10) as f64 / 10.0);
                let arrival = Arrival {
                    recv: SimTime::ZERO + SimDuration::from_secs(seq),
                    wire: payload.len(),
                    report: decoder.decode_auto(&payload),
                };
                commit(&*store, &[arrival], || server.write().unwrap());
                seq += 1;
            }
            seq
        }));
    }

    // tier 3: four chart clients reading concurrently
    let mut clients = Vec::new();
    for _ in 0..4 {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = server.read().unwrap();
                let history = s.history();
                for node in 0..16 {
                    if let Some(sample) = history.latest(node, "load.one") {
                        assert!((0.0..=1.0).contains(&sample.value));
                    }
                }
                // the cross-node compare walks the series listing
                let nodes = history
                    .series()
                    .into_iter()
                    .filter(|(_, k)| k == "load.one")
                    .count();
                assert!(nodes <= 16);
                reads += 1;
            }
            reads
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);

    let mut total_reports = 0;
    for h in handles {
        total_reports += h.join().expect("agent thread");
    }
    let mut total_reads = 0;
    for c in clients {
        total_reads += c.join().expect("client thread");
    }
    assert!(total_reports > 100, "agents made progress: {total_reports}");
    assert!(total_reads > 10, "clients made progress: {total_reads}");

    let s = server.read().unwrap();
    assert_eq!(s.stats().decode_errors, 0);
    assert_eq!(s.stats().reports_rx, total_reports);
    for node in 0..16 {
        assert!(s.node_status(node).is_some());
    }
}
