//! The connection-oriented ingest plane, attacked from outside the
//! crate: wire fragmentation, hostile tails, slow consumers, the store
//! contents checked against the scripted traffic, and the same traffic
//! committed through the simulator's delivery path and through a live
//! server, compared store for store.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterworx::actions::{AuditEntry, ControlPlane};
use clusterworx::ingest::{
    drive, scripted_report, IngestConfig, IngestServer, LoadConfig, LANE_CAP_BYTES,
};
use clusterworx::server::Server;
use clusterworx::world::deliver_report;
use clusterworx::{Cluster, ClusterConfig};
use cwx_events::engine::EventId;
use cwx_events::Action;
use cwx_monitor::monitor::{MonitorKey, Value};
use cwx_monitor::transmit::{encode_compressed, Report, WireDecoder, WireEncoder};
use cwx_net::frame::{put_frame, FrameBuffer};
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::mem::MemStore;
use cwx_store::Store;
use cwx_util::time::{SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};
use proptest::prelude::*;

mod common;
use common::{assert_ledger_balances, PanickingStore, SlowStore};

/// Most bytes one pass of the reactor reads off a connection
/// (`FrameConn::read_frames`: 16 reads of 16 KiB), plus room for a frame
/// the pass before left partial: how far past its cap one hand-over can
/// take an inbox.
const ONE_READ: usize = 16 * 16 * 1024 + 1024;

/// Eight-key scripted reports (~100 B each on the wire) that fill an
/// inbox three times over: a flood still trips its lane after the
/// worker's first take, which may hold the cap plus one read.
const FLOOD: u64 = 3 * LANE_CAP_BYTES as u64 / 100;

fn test_server() -> Arc<RwLock<Server>> {
    Arc::new(RwLock::new(Server::new(
        "ingest-plane-test",
        SimDuration::from_secs(5),
        4096,
        SimDuration::from_secs(60),
    )))
}

/// A server whose history is `store`.
fn server_over(store: Arc<impl Store + 'static>) -> Arc<RwLock<Server>> {
    Arc::new(RwLock::new(Server::with_history(
        "ingest-plane-test",
        SimDuration::from_secs(5),
        store,
        SimDuration::from_secs(60),
    )))
}

/// A deterministic report stream for one node, with enough value
/// variety to exercise the delta chains and dictionary machinery.
fn report_stream(node: u32, n: usize) -> Vec<Report> {
    (0..n)
        .map(|i| {
            let mut values = vec![
                (
                    MonitorKey::new("load.one"),
                    Value::Num(node as f64 + i as f64 * 0.25),
                ),
                (
                    MonitorKey::new("mem.free"),
                    Value::Num(1e9 - i as f64 * 4096.0),
                ),
            ];
            if i % 3 == 0 {
                values.push((MonitorKey::new("net.state"), Value::Text(format!("up-{i}"))));
            }
            Report {
                node,
                seq: i as u64,
                time_secs: i as f64 * 0.5,
                values,
            }
        })
        .collect()
}

/// Encode a report stream into framed wire bytes, returning both the
/// wire and the frame payload boundaries.
fn framed_wire(reports: &[Report]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut enc = WireEncoder::new();
    let mut wire = Vec::new();
    let mut payloads = Vec::new();
    let mut payload = Vec::new();
    for r in reports {
        enc.encode_into(r, &mut payload);
        put_frame(&mut wire, &payload);
        payloads.push(payload.clone());
    }
    (wire, payloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: a CWB1 stream chopped at arbitrary byte boundaries
    /// decodes to exactly the same reports as a single-shot decode —
    /// partial frames must survive readiness-event boundaries.
    #[test]
    fn fragmented_stream_decodes_identically(
        node in 0u32..1000,
        n_reports in 1usize..20,
        cuts in proptest::collection::vec(0usize..10_000, 0..40),
    ) {
        let reports = report_stream(node, n_reports);
        let (wire, payloads) = framed_wire(&reports);

        // reference: decode each payload whole, in order
        let mut reference = Vec::new();
        let mut dec = WireDecoder::new();
        for p in &payloads {
            reference.push(dec.decode_auto(p).expect("valid payload"));
        }

        // fragmented: the same bytes through a FrameBuffer in chunks
        // cut at arbitrary positions
        let mut boundaries: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(wire.len());
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut fb = FrameBuffer::new(1 << 20);
        let mut dec = WireDecoder::new();
        let mut decoded = Vec::new();
        for w in boundaries.windows(2) {
            fb.extend(&wire[w[0]..w[1]]);
            while let Some(frame) = fb.next_frame().expect("no oversize in valid stream") {
                decoded.push(dec.decode_auto(frame).expect("valid frame"));
            }
        }
        prop_assert_eq!(decoded, reference);
    }

    /// Satellite: truncating the stream mid-frame and corrupting the
    /// tail never panics; every frame before the damage still decodes.
    #[test]
    fn corrupt_or_truncated_tail_never_panics(
        node in 0u32..1000,
        n_reports in 1usize..12,
        cut_at in 0usize..10_000,
        flip_pos in 0usize..10_000,
        flip_xor in 0u8..=255, // 0 = no corruption, just truncation
    ) {
        let reports = report_stream(node, n_reports);
        let (wire, payloads) = framed_wire(&reports);
        let cut = cut_at % (wire.len() + 1);
        let mut mangled = wire[..cut].to_vec();
        let mut damage_from = cut;
        if flip_xor != 0 && !mangled.is_empty() {
            let p = flip_pos % mangled.len();
            mangled[p] ^= flip_xor;
            damage_from = damage_from.min(p);
        }

        // frames wholly before the damage must still decode; nothing
        // may panic after it
        let mut intact = 0usize;
        {
            let mut off = 0;
            for p in &payloads {
                let end = off + 4 + p.len();
                if end <= damage_from {
                    intact += 1;
                    off = end;
                } else {
                    break;
                }
            }
        }
        let mut fb = FrameBuffer::new(1 << 20);
        fb.extend(&mangled);
        let mut dec = WireDecoder::new();
        let mut ok = 0usize;
        loop {
            match fb.next_frame() {
                Ok(Some(frame)) => {
                    // errors allowed (the reactor audits + counts them);
                    // panics are not
                    if let Ok(r) = dec.decode_auto(frame) {
                        if ok < intact {
                            prop_assert_eq!(&r, &reports[ok]);
                        }
                        ok += 1;
                    }
                }
                Ok(None) => break,
                Err(_) => break, // corrupt length prefix: framing lost, conn dies
            }
        }
        prop_assert!(ok >= intact, "frames before the damage decoded");
    }
}

/// Satellite: a slow consumer trips lane backpressure (audited) once a
/// cap's worth of frames waits in its inbox, gets evicted after the
/// pause bound, and never stalls traffic on other lanes.
#[test]
fn slow_consumer_is_evicted_while_other_lanes_flow() {
    let control = Arc::new(Mutex::new(ControlPlane::new(8)));
    // one report wedges the lane-1 flusher until released: a genuinely
    // stuck consumer, not a slow one, whose first slice never lands
    let store = Arc::new(SlowStore::new(
        MemStore::new(4096),
        Duration::from_secs(60),
        Some(1),
    ));
    let server = server_over(Arc::clone(&store));
    let cfg = IngestConfig {
        n_lanes: 2,
        nodes_per_group: 1, // node 0 → lane 0, node 1 → lane 1
        evict_pause: Duration::from_millis(100),
        ..IngestConfig::default()
    };
    let ingest = IngestServer::start(
        cfg,
        Arc::clone(&server),
        None,
        Arc::clone(&control),
        Instant::now(),
    )
    .unwrap();
    let addr = ingest.addr();

    // node 1: floods the stalled lane past its cap; a paused connection
    // is never read to EOF, so only eviction may close it
    let flood = std::thread::spawn(move || drip(addr, 1, FLOOD, Duration::ZERO));
    // node 0: steady traffic on the healthy lane
    let healthy = std::thread::spawn(move || drip(addr, 0, 60, Duration::from_millis(2)));

    let healthy_sent = healthy.join().unwrap();
    flood.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while ingest.stats().evicted == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = ingest.stats();
    store.release();
    assert_ledger_balances(&ingest.stop());

    assert_eq!(healthy_sent, 60, "healthy lane never blocked the sender");
    assert!(
        stats.backpressure_trips >= 1,
        "stalled lane tripped backpressure: {stats:?}"
    );
    assert_eq!(stats.evicted, 1, "slow consumer was evicted: {stats:?}");
    let srv = server.read();
    assert_eq!(
        srv.node_status(0).map(|s| s.reports),
        Some(60),
        "every healthy-lane report was ingested despite the stalled lane"
    );
    let control = control.lock();
    let audit = control.audit();
    assert!(
        audit
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::IngestBackpressure { lane: 1, .. })),
        "backpressure audited for the stalled lane"
    );
    assert!(
        audit.iter().any(|r| matches!(
            &r.entry,
            AuditEntry::ConnectionEvicted { reason } if reason.contains("slow consumer")
        )),
        "eviction audited"
    );
}

/// Send `n` scripted reports as `node` on a new connection, `gap` apart
/// (back to back when zero), and count those written; an eviction ends
/// the stream early.
fn drip(addr: std::net::SocketAddr, node: u32, n: u64, gap: Duration) -> u64 {
    let mut s = TcpStream::connect(addr).unwrap();
    let mut enc = WireEncoder::new();
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    let mut sent = 0;
    for seq in 0..n {
        let report = scripted_report(node, seq, Duration::from_millis(10), 8);
        enc.encode_into(&report, &mut payload);
        frame.clear();
        put_frame(&mut frame, &payload);
        if s.write_all(&frame).is_err() {
            break;
        }
        sent += 1;
        if !gap.is_zero() {
            std::thread::sleep(gap);
        }
    }
    sent
}

/// The cap counts frame bytes, not values: a stalled lane fed reports
/// that carry no numeric value trips backpressure with its row, its
/// inbox holding no more than the cap plus the read that crossed it,
/// and every report lands once the store catches up.
#[test]
fn a_stalled_lane_fed_valueless_reports_trips_backpressure() {
    let control = Arc::new(Mutex::new(ControlPlane::new(8)));
    // every commit sleeps 200 ms however little it carries: the worker
    // lands a few KiB of empty reports a tick, far behind the sender
    let store = Arc::new(SlowStore::new(
        MemStore::new(64),
        Duration::from_millis(200),
        None,
    ));
    let server = server_over(Arc::clone(&store));
    let ingest = IngestServer::start(
        IngestConfig::default(),
        Arc::clone(&server),
        None,
        Arc::clone(&control),
        Instant::now(),
    )
    .unwrap();
    let (mut enc, mut payload, mut wire) = (WireEncoder::new(), Vec::new(), Vec::new());
    let mut sent = 0;
    while wire.len() < 2 * LANE_CAP_BYTES {
        enc.encode_into(
            &scripted_report(0, sent, Duration::from_millis(10), 0),
            &mut payload,
        );
        put_frame(&mut wire, &payload);
        sent += 1;
    }
    let addr = ingest.addr();
    let sender = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire).unwrap();
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while ingest.stats().backpressure_trips == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let tripped = ingest.stats().backpressure_trips;
    store.release();
    sender.join().unwrap();
    let end = ingest.stop();
    assert_ledger_balances(&end);

    assert!(
        tripped >= 1,
        "the valueless stream tripped the cap: {end:?}"
    );
    assert_eq!(end.reports, sent, "every report landed: {end:?}");
    assert_eq!((end.samples, end.evicted), (0, 0), "{end:?}");
    let control = control.lock();
    let trips: Vec<usize> = control
        .audit()
        .iter()
        .filter_map(|r| match r.entry {
            AuditEntry::IngestBackpressure { lane: 0, bytes } => Some(bytes),
            _ => None,
        })
        .collect();
    assert!(!trips.is_empty(), "the trip left its row");
    for bytes in trips {
        assert!(
            (LANE_CAP_BYTES..=LANE_CAP_BYTES + ONE_READ).contains(&bytes),
            "the inbox held {bytes} B at the trip, cap {LANE_CAP_BYTES}"
        );
    }
}

/// A flush worker that dies does not cost its lane reports in silence:
/// the lane's inbox fills to its cap, trips backpressure, its
/// connection is evicted after the pause bound — and so is the one the
/// agent reconnects on, so the inbox stays near its cap — and shutdown
/// audits the dead worker, while the other lane stores every report.
#[test]
fn a_dead_flush_worker_backpressures_and_evicts_its_lane() {
    let control = Arc::new(Mutex::new(ControlPlane::new(8)));
    let store = Arc::new(PanickingStore::new(MemStore::new(4096), 1));
    let server = server_over(Arc::clone(&store));
    let cfg = IngestConfig {
        n_lanes: 2,
        nodes_per_group: 1, // node 0 → lane 0, node 1 → lane 1
        evict_pause: Duration::from_millis(100),
        ..IngestConfig::default()
    };
    let ingest = IngestServer::start(
        cfg,
        Arc::clone(&server),
        None,
        Arc::clone(&control),
        Instant::now(),
    )
    .unwrap();
    let addr = ingest.addr();
    // node 1 kills its worker with its first report, then floods the
    // lane past its cap: a paused connection is never read to EOF, so
    // only eviction may close it. Then it reconnects, as a realtime
    // agent does, and does the same.
    let doomed = std::thread::spawn(move || {
        for _ in 0..2 {
            drip(addr, 1, FLOOD, Duration::ZERO);
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    let healthy = std::thread::spawn(move || drip(addr, 0, 60, Duration::from_millis(2)));
    let healthy_sent = healthy.join().unwrap();
    doomed.join().unwrap();
    let stats = ingest.stats();
    let end = ingest.stop();
    assert_ledger_balances(&end);

    assert_eq!(healthy_sent, 60);
    assert!(stats.backpressure_trips >= 1, "{stats:?}");
    assert_eq!(stats.evicted, 2, "both of node 1's connections: {stats:?}");
    assert!(end.stranded > 0, "{end:?}");
    let srv = server.read();
    assert_eq!(srv.node_status(0).map(|s| s.reports), Some(60));
    for k in 0..8 {
        let key = format!("bench.m{k}");
        let stored = store.range(0, &key, SimTime::ZERO, SimTime::MAX).len();
        assert_eq!(stored, 60, "node 0 {key}: every report stored");
    }
    let control = control.lock();
    let audit = control.audit();
    assert!(
        audit
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::IngestBackpressure { lane: 1, .. })),
        "the dead worker's lane tripped backpressure"
    );
    let evicted = audit.iter().filter(|r| {
        matches!(
            &r.entry,
            AuditEntry::ConnectionEvicted { reason } if reason.contains("lane 1")
        )
    });
    assert_eq!(evicted.count(), 2, "each of its connections was evicted");
    // "…; N arrival(s) left uncommitted, B B in its inbox"
    let left: Vec<(u64, usize)> = audit
        .iter()
        .filter_map(|r| match &r.entry {
            AuditEntry::IoError { what }
                if what.contains("lane 1") && what.contains("panicked") =>
            {
                let (_, tail) = what.split_once("; ")?;
                let (arrivals, bytes) = tail.split_once(", ")?;
                let num = |s: &str| s.split(' ').next()?.parse().ok();
                Some((num(arrivals)?, num(bytes)? as usize))
            }
            _ => None,
        })
        .collect();
    assert_eq!(left.len(), 1, "shutdown audited the dead worker: {audit:?}");
    assert_eq!(left[0].0, end.stranded, "the row counts what was stranded");
    // the read that tripped the cap, and the reconnect's first read
    // before it paused; a reconnect left unpaused would add its flood
    assert!(
        left[0].1 <= LANE_CAP_BYTES + 2 * ONE_READ,
        "the inbox stayed near its cap: {left:?}"
    );
}

/// Drain never closes a connection in silence. A paused connection has
/// no read interest, so the reactor cannot see its EOF; a client may
/// simply never hang up. With the store stalled past the drain
/// deadline, each connection still open then leaves one eviction row
/// naming its node and lane. Takes the 10 s drain deadline.
#[test]
fn connections_open_at_the_drain_deadline_are_evicted_with_rows() {
    let control = Arc::new(Mutex::new(ControlPlane::new(8)));
    // node 1's lane stalls past the deadline, until released: its
    // first slice never lands, so its connection stays paused
    let store = Arc::new(SlowStore::new(
        MemStore::new(4096),
        Duration::from_secs(60),
        Some(1),
    ));
    let server = server_over(Arc::clone(&store));
    let cfg = IngestConfig {
        n_lanes: 2,
        nodes_per_group: 1, // node 0 → lane 0, node 1 → lane 1
        ..IngestConfig::default()
    };
    let ingest = IngestServer::start(
        cfg,
        Arc::clone(&server),
        None,
        Arc::clone(&control),
        Instant::now(),
    )
    .unwrap();
    let addr = ingest.addr();
    // node 1 floods its lane until it pauses; node 0 reports, then
    // holds its connection open
    let flood = std::thread::spawn(move || drip(addr, 1, FLOOD, Duration::ZERO));
    let mut idle = TcpStream::connect(addr).unwrap();
    send_scripted(&mut idle, 0, 5, Duration::ZERO);
    let deadline = Instant::now() + Duration::from_secs(10);
    while (ingest.stats().backpressure_trips == 0 || ingest.stats().reports < 5)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stopping = std::thread::spawn(move || ingest.stop());
    let drain_rows = || {
        let control = control.lock();
        let rows = control.audit().iter().filter_map(|r| match &r.entry {
            AuditEntry::ConnectionEvicted { reason } if reason.starts_with("drain deadline") => {
                Some((r.node, reason.clone()))
            }
            _ => None,
        });
        rows.collect::<Vec<_>>()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while drain_rows().len() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    store.release();
    let end = stopping.join().unwrap();
    flood.join().unwrap();
    assert_ledger_balances(&end);

    let mut rows = drain_rows();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            (Some(0), "drain deadline: lane 0 still open".to_string()),
            (Some(1), "drain deadline: lane 1 still open".to_string()),
        ],
        "one row per connection open at the deadline"
    );
    assert_eq!(end.evicted, 2, "{end:?}");
    assert_eq!(end.committed, end.frames, "every frame read was committed");
    drop(idle);
}

/// A store that stays slow is not a stalled one. Its worker takes a
/// cap's worth of reports at a time, so the lane stays paused for
/// longer than the eviction bound; yet every commit slice that lands
/// shows progress, so no connection is evicted and nothing is dropped.
#[test]
fn a_slow_store_backpressures_without_evicting_or_dropping() {
    let control = Arc::new(Mutex::new(ControlPlane::new(8)));
    // 4,000 8-sample reports a second: a take of a cap's worth (400 KiB,
    // ~4,000 reports) commits for about a second, five times the pause
    // bound, while a 6 KiB slice (~60 reports) lands every ~15 ms
    let store = Arc::new(SlowStore::new(
        MemStore::new(16_384),
        Duration::from_micros(250),
        None,
    ));
    let server = server_over(Arc::clone(&store));
    let cfg = IngestConfig {
        evict_pause: Duration::from_millis(200),
        ..IngestConfig::default()
    };
    let ingest = IngestServer::start(
        cfg,
        Arc::clone(&server),
        None,
        Arc::clone(&control),
        Instant::now(),
    )
    .unwrap();
    let sent = drip(ingest.addr(), 0, 10_000, Duration::ZERO);
    let deadline = Instant::now() + Duration::from_secs(30);
    while ingest.stats().reports < sent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = ingest.stats();
    assert_ledger_balances(&ingest.stop());

    assert_eq!(sent, 10_000, "the connection was never closed");
    assert!(stats.backpressure_trips >= 1, "the lane paused: {stats:?}");
    assert_eq!(stats.evicted, 0, "{stats:?}");
    assert_eq!(stats.reports, 10_000, "{stats:?}");
    for k in 0..8 {
        let key = format!("bench.m{k}");
        let stored = store.range(0, &key, SimTime::ZERO, SimTime::MAX).len();
        assert_eq!(stored, 10_000, "{key}: every report stored");
    }
    let control = control.lock();
    assert!(
        !control
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::ConnectionEvicted { .. })),
        "no eviction audited"
    );
}

/// Send `reports` scripted reports for `node` on one connection,
/// `gap` apart (back to back when zero).
fn send_scripted(s: &mut TcpStream, node: u32, reports: u64, gap: Duration) {
    let mut enc = WireEncoder::new();
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    for seq in 0..reports {
        enc.encode_into(
            &scripted_report(node, seq, Duration::from_millis(10), 8),
            &mut payload,
        );
        frame.clear();
        put_frame(&mut frame, &payload);
        s.write_all(&frame).unwrap();
        if !gap.is_zero() {
            std::thread::sleep(gap);
        }
    }
}

/// A default ingest server whose lanes write to `server`'s history.
fn start_volatile(server: &Arc<RwLock<Server>>) -> IngestServer {
    let control = Arc::new(Mutex::new(ControlPlane::new(8)));
    let cfg = IngestConfig::default();
    IngestServer::start(cfg, Arc::clone(server), None, control, Instant::now()).unwrap()
}

fn wait_for_reports(ingest: &IngestServer, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while ingest.stats().reports < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(ingest.stats().reports, n, "every report flushed");
}

/// A fleet that falls silent is still marked unreachable: the flush
/// workers run housekeeping on their own cadence, not only when a batch
/// arrives.
#[test]
fn a_silent_node_reads_unreachable_without_more_traffic() {
    let server = Arc::new(RwLock::new(Server::new(
        "ingest-plane-test",
        SimDuration::from_secs(5),
        64,
        SimDuration::from_millis(100),
    )));
    let ingest = start_volatile(&server);
    let mut s = TcpStream::connect(ingest.addr()).unwrap();
    send_scripted(&mut s, 0, 1, Duration::ZERO);
    wait_for_reports(&ingest, 1);
    let deadline = Instant::now() + Duration::from_secs(2);
    let reachable = || server.read().node_status(0).map(|st| st.reachable);
    while reachable() == Some(true) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        reachable(),
        Some(false),
        "silent for 2 s, stale after 100 ms"
    );
    drop(s);
    assert_ledger_balances(&ingest.stop());
}

/// Freshness without a timer: a sparse report is store-visible once the
/// reactor has drained its socket, so its receive-to-visible time is
/// the work of one batch, not a batching delay.
#[test]
fn sparse_reports_are_visible_without_a_flush_timer() {
    let ingest = start_volatile(&test_server());
    let mut s = TcpStream::connect(ingest.addr()).unwrap();
    send_scripted(&mut s, 0, 20, Duration::from_millis(10));
    wait_for_reports(&ingest, 20);
    let lat = ingest.latency();
    drop(s);
    assert_ledger_balances(&ingest.stop());
    assert_eq!(lat.count, 20);
    assert!(
        lat.p50_us < 5_000.0,
        "receive-to-visible p50 {:.0} us: reports waited on a timer",
        lat.p50_us
    );
}

/// Group commit still coalesces: reports arriving while a batch is in
/// flight go over together when it lands, in order, without tripping
/// backpressure.
#[test]
fn group_commit_coalesces_a_burst_behind_a_slow_batch() {
    let server = server_over(Arc::new(SlowStore::new(
        MemStore::new(4096),
        Duration::from_millis(2),
        None,
    )));
    let ingest = start_volatile(&server);
    let mut s = TcpStream::connect(ingest.addr()).unwrap();
    send_scripted(&mut s, 0, 200, Duration::ZERO);
    wait_for_reports(&ingest, 200);
    let stats = ingest.stats();
    drop(s);
    assert_ledger_balances(&ingest.stop());
    assert!(
        stats.batches <= stats.reports / 4,
        "a burst coalesces: {} batches for {} reports",
        stats.batches,
        stats.reports
    );
    assert_eq!(stats.backpressure_trips, 0, "{stats:?}");
    let srv = server.read();
    for k in 0..8 {
        let key = format!("bench.m{k}");
        let want: Vec<f64> = (0..200)
            .map(|seq| {
                let r = scripted_report(0, seq, Duration::from_millis(10), 8);
                let Value::Num(v) = r.values[k].1 else {
                    unreachable!("scripted values are numeric")
                };
                v
            })
            .collect();
        let got: Vec<f64> = srv
            .history()
            .range(0, &key, SimTime::ZERO, SimTime::MAX)
            .iter()
            .map(|s| s.value)
            .collect();
        assert_eq!(got, want, "{key}: all 200 stored, in order");
    }
}

/// The reactor, fed scripted traffic, stores exactly that traffic: every
/// sample of every report, at the report's gather time, and nothing else
/// — into a sharded disk store, and into the server's own in-memory
/// history when no store is given.
#[test]
fn reactor_stores_exactly_the_scripted_traffic() {
    let interval = Duration::from_millis(2);
    let dir = std::env::temp_dir().join(format!("cwx-ingest-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = Arc::new(
        DiskStore::open(
            &dir,
            StoreConfig {
                n_shards: 2,
                nodes_per_group: 4,
                ..StoreConfig::default()
            },
        )
        .unwrap(),
    );
    for given in [Some(Arc::clone(&disk)), None] {
        let which = if given.is_some() { "disk" } else { "volatile" };
        let server = test_server();
        let control = Arc::new(Mutex::new(ControlPlane::new(8)));
        let ingest = IngestServer::start(
            IngestConfig {
                n_lanes: 2,
                nodes_per_group: 4,
                ..IngestConfig::default()
            },
            Arc::clone(&server),
            given.clone(),
            control,
            Instant::now(),
        )
        .unwrap();
        let sent = drive(LoadConfig {
            addr: ingest.addr().to_string(),
            conns: 8,
            frames_per_conn: 10,
            interval,
            writer_threads: 4,
            keys: 4,
        })
        .unwrap();
        assert_eq!(sent.frames_sent, 80, "{which}");
        assert_eq!(sent.write_errors, 0, "{which}");
        let end = ingest.stop();
        assert_ledger_balances(&end);
        assert_eq!(end.reports, 80, "{which}: every frame ingested");
        let store: Arc<dyn Store> = match given {
            Some(disk) => {
                disk.flush_all().unwrap();
                disk
            }
            None => Arc::clone(server.read().history()),
        };

        assert_eq!(store.total_samples(), 8 * 10 * 4, "{which}");
        for node in 0..8u32 {
            for k in 0..4 {
                let key = format!("bench.m{k}");
                let want: Vec<(SimTime, f64)> = (0..10)
                    .map(|seq| {
                        let r = scripted_report(node, seq, interval, 4);
                        let Value::Num(v) = r.values[k].1 else {
                            unreachable!("scripted values are numeric")
                        };
                        (SimTime::ZERO + SimDuration::from_secs_f64(r.time_secs), v)
                    })
                    .collect();
                let got: Vec<(SimTime, f64)> = store
                    .range(node, &key, SimTime::ZERO, SimTime::MAX)
                    .iter()
                    .map(|s| (s.time, s.value))
                    .collect();
                assert_eq!(got, want, "{which}: node{node} {key}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Agents may still send the compressed text wire format: text reports
/// framed over a real socket are decoded and stored exactly like `CWB1`
/// ones.
#[test]
fn text_wire_reports_are_decoded_and_stored() {
    let server = test_server();
    let ingest = start_volatile(&server);
    let reports = report_stream(3, 6);
    let mut wire = Vec::new();
    for r in &reports {
        put_frame(&mut wire, &encode_compressed(r));
    }
    let mut s = TcpStream::connect(ingest.addr()).unwrap();
    s.write_all(&wire).unwrap();
    drop(s);
    let end = ingest.stop();
    assert_ledger_balances(&end);
    assert_eq!(end.reports, 6, "every text frame ingested");

    let srv = server.read();
    assert_eq!(srv.stats().decode_errors, 0);
    assert_eq!(srv.stats().reports_rx, 6);
    let want: Vec<(SimTime, f64)> = reports
        .iter()
        .map(|r| {
            let Value::Num(v) = r.values[0].1 else {
                unreachable!("load.one is numeric")
            };
            (SimTime::ZERO + SimDuration::from_secs_f64(r.time_secs), v)
        })
        .collect();
    let got: Vec<(SimTime, f64)> = srv
        .history()
        .range(3, "load.one", SimTime::ZERO, SimTime::MAX)
        .iter()
        .map(|s| (s.time, s.value))
        .collect();
    assert_eq!(got, want);
}

/// TCP neither loses nor repeats, so a connection whose agent skips a
/// `seq` stays desynced: the reactor evicts it with a row, the delta
/// past the gap is refused (not stored, not a decode error), and the
/// agent's reconnect — a fresh encoder, so a reset frame first — is
/// stored again.
#[test]
fn a_connection_that_skips_a_seq_is_evicted_and_its_reconnect_is_stored() {
    let control = Arc::new(Mutex::new(ControlPlane::new(8)));
    let server = test_server();
    let ingest = IngestServer::start(
        IngestConfig::default(),
        Arc::clone(&server),
        None,
        Arc::clone(&control),
        Instant::now(),
    )
    .unwrap();
    let report = |seq| scripted_report(5, seq, Duration::from_secs(1), 8);
    let send = |s: &mut TcpStream, enc: &mut WireEncoder, seq: u64| {
        let mut frame = Vec::new();
        put_frame(&mut frame, &enc.encode(&report(seq)));
        s.write_all(&frame)
    };
    let mut enc = WireEncoder::new();
    let mut s = TcpStream::connect(ingest.addr()).unwrap();
    for seq in 0..3 {
        send(&mut s, &mut enc, seq).unwrap();
    }
    // seq 3 is encoded (its deltas move the chain) but never sent
    enc.encode(&report(3));
    send(&mut s, &mut enc, 4).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while ingest.stats().evicted == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        ingest.stats().evicted,
        1,
        "the desynced connection is evicted"
    );
    drop(s);

    let mut enc = WireEncoder::new();
    let mut s = TcpStream::connect(ingest.addr()).unwrap();
    for seq in 5..8 {
        send(&mut s, &mut enc, seq).unwrap();
    }
    drop(s);
    let end = ingest.stop();
    assert_ledger_balances(&end);
    assert_eq!((end.frames, end.decode_errors, end.evicted), (7, 0, 1));

    let srv = server.read();
    let st = srv.stats();
    assert_eq!((st.reports_rx, st.refused, st.decode_errors), (6, 1, 0));
    let stored: Vec<f64> = srv
        .history()
        .range(5, "bench.m0", SimTime::ZERO, SimTime::MAX)
        .iter()
        .map(|s| s.time.as_secs_f64())
        .collect();
    // gather times are (seq + 1) s: seq 4 is missing, the reconnect's are there
    assert_eq!(stored, [1.0, 2.0, 3.0, 6.0, 7.0, 8.0]);
    assert!(
        control.lock().audit().iter().any(|r| matches!(
            &r.entry,
            AuditEntry::ConnectionEvicted { reason } if reason.contains("desynced")
        )),
        "eviction audited"
    );
}

/// Frames for the sim-versus-live oracle: six nodes, thirty gathers
/// five seconds apart — temperatures that cross the overtemp rule and
/// come back, a fan that dies, load spikes, text values, all-text
/// reports — plus one garbage frame. Even nodes send text + LZSS (the
/// paper's wire), odd nodes `CWB1` (what live and simulated agents send).
fn oracle_frames() -> Vec<Vec<u8>> {
    let mut encoders: Vec<WireEncoder> = (0..6).map(|_| WireEncoder::new()).collect();
    let mut frames = Vec::new();
    for tick in 0..30u64 {
        for node in 0..6u32 {
            let hot = (tick / 5 + node as u64).is_multiple_of(3);
            let mut values = vec![
                (
                    MonitorKey::new("temp.cpu"),
                    Value::Num(if hot { 81.25 } else { 52.0 + (tick % 7) as f64 }),
                ),
                (MonitorKey::new("cpu.type"), Value::Text("PIII".into())),
                (
                    MonitorKey::new("load.one"),
                    Value::Num(((tick * 7 + node as u64) % 12) as f64 * 0.75),
                ),
                (
                    MonitorKey::new("fan.cpu_rpm"),
                    Value::Num(if node == 4 && tick > 20 { 0.0 } else { 6000.0 }),
                ),
            ];
            if tick % 11 == 3 {
                values.retain(|(_, v)| v.as_num().is_none());
            }
            let report = Report {
                node,
                seq: tick,
                time_secs: tick as f64 * 5.0,
                values,
            };
            frames.push(if node % 2 == 0 {
                encode_compressed(&report)
            } else {
                encoders[node as usize].encode(&report)
            });
        }
        if tick == 12 {
            frames.push(b"CWZ1 not a report".to_vec());
        }
    }
    frames
}

/// Every series and every sample of a store, bit for bit, and its count.
type Contents = (Vec<(u32, String, Vec<(SimTime, u64)>)>, u64);

fn contents(store: &dyn Store) -> Contents {
    let mut series = store.series();
    series.sort();
    let rows = series
        .into_iter()
        .map(|(node, key)| {
            let samples = store
                .range(node, &key, SimTime::ZERO, SimTime::MAX)
                .iter()
                .map(|s| (s.time, s.value.to_bits()))
                .collect();
            (node, key, samples)
        })
        .collect();
    (rows, store.total_samples())
}

/// `(event, node, value bits, action)` of every firing since the last
/// drain: what fired where, not when (receive times differ by design).
fn firings(server: &mut Server) -> Vec<(EventId, u32, u64, Action)> {
    let (alarms, dropped) = server.take_alarms();
    assert_eq!(dropped, 0);
    alarms
        .into_iter()
        .map(|f| (f.event, f.node, f.value.to_bits(), f.action))
        .collect()
}

/// One report path, two deployments: the same frames delivered through
/// `World`'s management segment and through a live ingest server over
/// loopback commit the same store contents, the same server counters,
/// the same firings and the same mail.
#[test]
fn sim_and_live_commit_identical_history_firings_and_mail() {
    let frames = oracle_frames();
    // well past every notification window
    let later = SimTime::ZERO + SimDuration::from_secs(86_400);

    let sim_store = Arc::new(MemStore::new(4096));
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 6,
        autostart: false,
        store: Some(Arc::clone(&sim_store) as Arc<dyn Store>),
        ..ClusterConfig::default()
    });
    for frame in &frames {
        deliver_report(&mut sim, frame);
    }
    let sim_server = &mut sim.world_mut().server;
    let sim_firings = firings(sim_server);
    sim_server.housekeeping(later);

    // named, windowed and staled as `Cluster::build` makes its server
    let live_store = Arc::new(MemStore::new(4096));
    let server = Arc::new(RwLock::new(Server::with_history(
        "cluster",
        SimDuration::from_secs(30),
        Arc::clone(&live_store) as Arc<dyn Store>,
        SimDuration::from_secs(20),
    )));
    let ingest = start_volatile(&server);
    let mut wire = Vec::new();
    for frame in &frames {
        put_frame(&mut wire, frame);
    }
    let mut s = TcpStream::connect(ingest.addr()).unwrap();
    s.write_all(&wire).unwrap();
    drop(s);
    let end = ingest.stop();
    assert_ledger_balances(&end);
    assert_eq!(end.reports, frames.len() as u64 - 1, "one frame is garbage");
    let mut live_server = server.write();
    let live_firings = firings(&mut live_server);
    live_server.housekeeping(later);

    let sim_contents = contents(&*sim_store);
    assert!(
        sim_contents.1 > 400 && sim_contents.0.len() == 18,
        "{}",
        sim_contents.1
    );
    assert_eq!(sim_contents, contents(&*live_store));
    let sim_server = &sim.world().server;
    assert_eq!(sim_server.stats().decode_errors, 1);
    assert_eq!(sim_server.stats(), live_server.stats());
    assert!(
        sim_firings.len() > 6,
        "the traffic must fire and re-fire rules"
    );
    assert_eq!(sim_firings, live_firings);
    let subjects = |s: &Server| {
        s.outbox()
            .iter()
            .map(|m| m.subject.clone())
            .collect::<Vec<_>>()
    };
    assert!(!subjects(sim_server).is_empty());
    assert_eq!(subjects(sim_server), subjects(&live_server));
}
