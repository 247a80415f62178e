//! E17: query engine + downsampled serving tier — latency/throughput
//! vs fleet size and time range, cold vs warm block cache, and N
//! dashboard-shaped clients querying the ingest plane while agents
//! stream live traffic (the read-side sibling of E16).
//!
//! Part A runs in-process: a populated, compacted `DiskStore` is
//! queried through the same `Store::query` path the CLI and the
//! ingest endpoint use; per-tier block-cache counters attribute every
//! decode to the tier that served it, proving 1h-window queries never
//! touch raw blocks. Part B mirrors E16's subprocess shape: the
//! server (reactor + disk store + `CWQ1` endpoint) runs in a fresh
//! subprocess, the agent driver in a further subprocess, and the
//! dashboard clients live in the server process as plain TCP clients,
//! so ingest p99 with and without query load comes from identical
//! topologies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterworx::actions::ControlPlane;
use clusterworx::ingest::{
    drive, encode_query, parse_reply, IngestConfig, IngestServer, LoadConfig,
};
use clusterworx::server::Server;
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::{AggFunc, QueryGroup, QuerySpec, Resolution, Store};
use cwx_util::time::{SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};

const SEC: u64 = 1_000_000_000;

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn tier_label(r: Resolution) -> &'static str {
    match r {
        Resolution::Raw => "raw",
        Resolution::TenSeconds => "10s",
        Resolution::FiveMinutes => "5m",
        Resolution::OneHour => "1h",
    }
}

// ---------------------------------------------------------------------
// Part A: tier selection, cold vs warm cache, fleet/range scaling

/// One (fleet, range, window, agg) measurement against a compacted
/// store.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Nodes in the store.
    pub fleet: u32,
    /// Seconds of history in the store.
    pub span_secs: u64,
    /// Seconds of history the query covered (suffix of the span).
    pub range_secs: u64,
    /// Output window label (`"10s"`, `"5m"`, `"1h"`).
    pub window: &'static str,
    /// Aggregation function name.
    pub agg: &'static str,
    /// Tier that answered (from `QueryStats`).
    pub tier: &'static str,
    /// First query after `clear_cache()`: every block decoded from
    /// disk, milliseconds.
    pub cold_ms: f64,
    /// Warm-cache latency, median over the repeat pass.
    pub warm_p50_ms: f64,
    /// Warm-cache latency, p99 over the repeat pass.
    pub warm_p99_ms: f64,
    /// Warm-cache queries per second (single caller).
    pub warm_qps: f64,
    /// Raw samples folded per query.
    pub scanned_raw: u64,
    /// Pre-aggregated buckets folded per query.
    pub scanned_buckets: u64,
    /// Block-cache misses on the serving tier during the cold query —
    /// the decode work the tier actually did.
    pub tier_misses_cold: u64,
    /// Block-cache misses on the *raw* tier during the same cold
    /// query. Zero for tier-served windows: the headline proof that a
    /// 1h window never decodes 10s-or-finer blocks.
    pub raw_misses_cold: u64,
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cwx-e17-{tag}-{}", std::process::id()))
}

/// Build and compact a store: `fleet` nodes reporting `cpu.util`
/// every `cadence_secs` over `span_secs`.
pub fn populate(fleet: u32, span_secs: u64, cadence_secs: u64) -> DiskStore {
    let dir = tmp_dir(&format!("a{fleet}-{span_secs}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        n_shards: 8,
        nodes_per_group: fleet.div_ceil(8).max(1),
        flush_threshold: 1 << 16,
        compact_threshold: 2,
        cache_capacity_samples: 1 << 20,
    };
    let store = DiskStore::open(&dir, cfg).unwrap();
    for i in 0..span_secs / cadence_secs {
        let ts = (i + 1) * cadence_secs;
        for n in 0..fleet {
            // deterministic sawtooth, distinct per node
            let v = (ts % 97) as f64 + n as f64 * 0.01;
            store.append(n, "cpu.util", t(ts), v);
        }
    }
    store.compact_all().unwrap();
    store
}

/// Run the cold+warm passes for one (window, agg) over the trailing
/// `range_secs` of the store.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    store: &DiskStore,
    fleet: u32,
    span_secs: u64,
    range_secs: u64,
    window: &'static str,
    window_secs: u64,
    agg: AggFunc,
    warm_reps: usize,
) -> QueryRow {
    let spec = QuerySpec {
        monitor: "cpu.util".into(),
        from: t(span_secs.saturating_sub(range_secs)),
        to: t(span_secs),
        window_nanos: window_secs * SEC,
        agg,
        groups: vec![QueryGroup {
            key: "all".into(),
            nodes: (0..fleet).collect(),
        }],
        max_scan: 0,
    };
    store.clear_cache();
    let before = store.cache_stats();
    let t0 = Instant::now();
    let cold = store.query(&spec).unwrap();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = store.cache_stats();
    let tier = cold.stats.tier;
    let tier_misses_cold = after.tier(tier).misses - before.tier(tier).misses;
    let raw_misses_cold = if tier == Resolution::Raw {
        tier_misses_cold
    } else {
        after.tier(Resolution::Raw).misses - before.tier(Resolution::Raw).misses
    };

    let mut lats = Vec::with_capacity(warm_reps);
    let w0 = Instant::now();
    for _ in 0..warm_reps {
        let q0 = Instant::now();
        let _ = store.query(&spec).unwrap();
        lats.push(q0.elapsed().as_secs_f64() * 1e3);
    }
    let warm_wall = w0.elapsed().as_secs_f64();
    lats.sort_by(|a, b| a.total_cmp(b));
    QueryRow {
        fleet,
        span_secs,
        range_secs,
        window,
        agg: agg.name(),
        tier: tier_label(tier),
        cold_ms,
        warm_p50_ms: cwx_util::stats::percentile_sorted(&lats, 0.50),
        warm_p99_ms: cwx_util::stats::percentile_sorted(&lats, 0.99),
        warm_qps: warm_reps as f64 / warm_wall.max(1e-9),
        scanned_raw: cold.stats.scanned_raw,
        scanned_buckets: cold.stats.scanned_buckets,
        tier_misses_cold,
        raw_misses_cold,
    }
}

/// The part-A sweep: for each fleet size, every window/agg combo over
/// the full span, plus a trailing-hour range at the largest windows to
/// show range scaling.
pub fn query_sweep(
    fleets: &[u32],
    span_secs: u64,
    cadence_secs: u64,
    quick: bool,
) -> Vec<QueryRow> {
    let warm_reps = if quick { 10 } else { 30 };
    let combos: &[(&'static str, u64, AggFunc)] = &[
        ("10s", 10, AggFunc::Avg),
        ("5m", 300, AggFunc::Avg),
        ("1h", 3_600, AggFunc::Avg),
        ("1h", 3_600, AggFunc::P99),
    ];
    let mut rows = Vec::new();
    for &fleet in fleets {
        let store = populate(fleet, span_secs, cadence_secs);
        for &(label, wsecs, agg) in combos {
            rows.push(measure(
                &store, fleet, span_secs, span_secs, label, wsecs, agg, warm_reps,
            ));
        }
        // range scaling: the same 5m dashboard query over only the
        // trailing hour instead of the whole span
        if span_secs > 3_600 {
            rows.push(measure(
                &store,
                fleet,
                span_secs,
                3_600,
                "5m",
                300,
                AggFunc::Avg,
                warm_reps,
            ));
        }
        let dir = store.dir().to_path_buf();
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }
    rows
}

// ---------------------------------------------------------------------
// Part B: dashboard clients vs live ingest (subprocess, E16 shape)

/// One (agents, dashboards) run: ingest tail latency with query load.
#[derive(Debug, Clone)]
pub struct LiveRow {
    /// Live agent connections streaming CWB1 frames.
    pub agents: usize,
    /// Concurrent dashboard clients speaking `CWQ1` (0 = the no-query
    /// baseline the 2x acceptance bound compares against).
    pub dashboards: usize,
    /// Reports the server ingested.
    pub ingested: u64,
    /// Ingest latency (readiness read → store visible), microseconds.
    pub ingest_p50_us: f64,
    /// 99th percentile of the same — the interference headline.
    pub ingest_p99_us: f64,
    /// Queries answered over the wire.
    pub queries_ok: u64,
    /// Queries (or clients) shed by admission control / fd budget.
    pub queries_shed: u64,
    /// Query round-trip latency over loopback, milliseconds, median.
    pub query_p50_ms: f64,
    /// p99 of the same.
    pub query_p99_ms: f64,
    /// False when the scenario subprocess died before reporting.
    pub completed: bool,
}

const SCENARIO_FLAG: &str = "--e17-scenario";
const DRIVE_FLAG: &str = "--e17-drive";

/// Dispatch for the `experiments` binary: when re-exec'd as an E17
/// subprocess, run that role and exit. Call first thing in `main`.
pub fn subprocess_main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some(SCENARIO_FLAG) => {
            scenario_main(&args[2..]);
            std::process::exit(0);
        }
        Some(DRIVE_FLAG) => {
            drive_main(&args[2..]);
            std::process::exit(0);
        }
        _ => {}
    }
}

/// Agent-driver subprocess: `--e17-drive <addr> <conns> <frames>
/// <interval_ms> <keys>`.
fn drive_main(args: &[String]) {
    let addr = args[0].clone();
    let conns: usize = args[1].parse().unwrap();
    let frames_per_conn: u64 = args[2].parse().unwrap();
    let interval = Duration::from_millis(args[3].parse().unwrap());
    let keys: usize = args[4].parse().unwrap();
    let _ = cwx_net::reactor::raise_nofile_limit();
    let stats = drive(LoadConfig {
        addr,
        conns,
        frames_per_conn,
        interval,
        writer_threads: 8,
        keys,
    })
    .unwrap();
    println!(
        "E17DRIVE connected={} frames_sent={} write_errors={}",
        stats.connected, stats.frames_sent, stats.write_errors
    );
}

/// Blocking `CWQ1` round trip over an already-open dashboard socket.
fn query_roundtrip(stream: &mut TcpStream, spec: &QuerySpec) -> std::io::Result<bool> {
    let body = encode_query(spec);
    let mut frame = Vec::with_capacity(body.len() + 4);
    cwx_net::frame::put_frame(&mut frame, &body);
    stream.write_all(&frame)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    let mut reply = vec![0u8; n];
    stream.read_exact(&mut reply)?;
    Ok(parse_reply(&reply).is_ok())
}

/// Server-side scenario subprocess: `--e17-scenario <agents> <frames>
/// <interval_ms> <keys> <dashboards>`. Prints one `E17ROW` line.
fn scenario_main(args: &[String]) {
    let agents: usize = args[0].parse().unwrap();
    let frames_per_conn: u64 = args[1].parse().unwrap();
    let interval_ms: u64 = args[2].parse().unwrap();
    let keys: usize = args[3].parse().unwrap();
    let dashboards: usize = args[4].parse().unwrap();
    let _ = cwx_net::reactor::raise_nofile_limit();

    let nodes_per_group = (agents as u32).div_ceil(4).max(1);
    let dir = tmp_dir("live");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        DiskStore::open(
            &dir,
            StoreConfig {
                n_shards: 4,
                nodes_per_group,
                ..StoreConfig::default()
            },
        )
        .unwrap(),
    );
    let server = Arc::new(RwLock::new(Server::new(
        "e17",
        SimDuration::from_secs(5),
        1,
        SimDuration::from_secs(3600),
    )));
    let control = Arc::new(Mutex::new(ControlPlane::new(1024)));
    let ingest = IngestServer::start(
        IngestConfig {
            n_lanes: 4,
            nodes_per_group,
            ..IngestConfig::default()
        },
        Arc::clone(&server),
        Some(Arc::clone(&store)),
        control,
        Instant::now(),
    )
    .unwrap();
    let addr = ingest.addr().to_string();

    // dashboard clients: steady 5 Hz refresh each, a windowed avg over
    // the whole fleet — the query every wall display runs
    let stop = Arc::new(AtomicBool::new(false));
    let query_lats: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let spec = QuerySpec {
        monitor: "bench.m0".into(),
        from: t(0),
        to: t(1 << 20),
        window_nanos: 10 * SEC,
        agg: AggFunc::Avg,
        groups: vec![QueryGroup {
            key: "all".into(),
            nodes: (0..agents as u32).collect(),
        }],
        max_scan: 0,
    };
    let mut dash_threads = Vec::new();
    for _ in 0..dashboards {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let lats = Arc::clone(&query_lats);
        let spec = spec.clone();
        dash_threads.push(std::thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(&addr) else {
                return;
            };
            let _ = stream.set_nodelay(true);
            while !stop.load(Ordering::Relaxed) {
                let q0 = Instant::now();
                match query_roundtrip(&mut stream, &spec) {
                    Ok(true) => lats.lock().push(q0.elapsed().as_secs_f64() * 1e3),
                    Ok(false) => {} // shed — counted server-side
                    Err(_) => return,
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        }));
    }

    let exe = std::env::current_exe().unwrap();
    let status = Command::new(exe)
        .args([
            DRIVE_FLAG,
            &addr,
            &agents.to_string(),
            &frames_per_conn.to_string(),
            &interval_ms.to_string(),
            &keys.to_string(),
        ])
        .stdout(Stdio::inherit())
        .status()
        .expect("driver subprocess");
    assert!(status.success(), "driver failed");

    stop.store(true, Ordering::Relaxed);
    for h in dash_threads {
        let _ = h.join();
    }
    let lat = ingest.latency();
    let stats = ingest.stats();
    let exec = ingest
        .query_stats()
        .map(|s| s.completed.saturating_sub(s.errors))
        .unwrap_or(0);
    let ingested = ingest.shutdown();
    let mut qlats = Arc::try_unwrap(query_lats)
        .map(|m| m.into_inner())
        .unwrap_or_default();
    qlats.sort_by(|a, b| a.total_cmp(b));
    let (qp50, qp99) = if qlats.is_empty() {
        (0.0, 0.0)
    } else {
        (
            cwx_util::stats::percentile_sorted(&qlats, 0.50),
            cwx_util::stats::percentile_sorted(&qlats, 0.99),
        )
    };
    let _ = std::fs::remove_dir_all(dir);

    println!(
        "E17ROW agents={agents} dashboards={dashboards} ingested={ingested} \
         ingest_p50_us={:.1} ingest_p99_us={:.1} queries_ok={} queries_shed={} \
         query_p50_ms={qp50:.3} query_p99_ms={qp99:.3} answered={}",
        lat.p50_us,
        lat.p99_us,
        exec,
        stats.queries_shed,
        qlats.len(),
    );
}

fn parse_row(line: &str) -> Option<std::collections::BTreeMap<String, f64>> {
    let rest = line.strip_prefix("E17ROW ")?;
    let mut m = std::collections::BTreeMap::new();
    for kv in rest.split_whitespace() {
        let (k, v) = kv.split_once('=')?;
        m.insert(k.to_string(), v.parse().ok()?);
    }
    Some(m)
}

/// Run one (agents, dashboards) scenario in a fresh subprocess.
pub fn live_scenario(
    agents: usize,
    dashboards: usize,
    frames_per_conn: u64,
    interval: Duration,
    keys: usize,
) -> LiveRow {
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args([
            SCENARIO_FLAG,
            &agents.to_string(),
            &frames_per_conn.to_string(),
            &interval.as_millis().to_string(),
            &keys.to_string(),
            &dashboards.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("scenario subprocess");
    let out = BufReader::new(child.stdout.take().expect("stdout"));
    let mut row = None;
    for line in out.lines().map_while(Result::ok) {
        if let Some(m) = parse_row(&line) {
            row = Some(m);
        }
    }
    let _ = child.wait();
    let Some(m) = row else {
        return LiveRow {
            agents,
            dashboards,
            ingested: 0,
            ingest_p50_us: 0.0,
            ingest_p99_us: 0.0,
            queries_ok: 0,
            queries_shed: 0,
            query_p50_ms: 0.0,
            query_p99_ms: 0.0,
            completed: false,
        };
    };
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    LiveRow {
        agents,
        dashboards,
        ingested: g("ingested") as u64,
        ingest_p50_us: g("ingest_p50_us"),
        ingest_p99_us: g("ingest_p99_us"),
        queries_ok: g("queries_ok") as u64,
        queries_shed: g("queries_shed") as u64,
        query_p50_ms: g("query_p50_ms"),
        query_p99_ms: g("query_p99_ms"),
        completed: true,
    }
}

/// The part-B sweep: a no-query baseline first, then rising dashboard
/// fan-in against the same agent load.
pub fn live_sweep(
    agents: usize,
    dashboards: &[usize],
    frames_per_conn: u64,
    interval: Duration,
) -> Vec<LiveRow> {
    let mut rows = vec![live_scenario(agents, 0, frames_per_conn, interval, 8)];
    for &d in dashboards {
        if d > 0 {
            rows.push(live_scenario(agents, d, frames_per_conn, interval, 8));
        }
    }
    rows
}

// ---------------------------------------------------------------------
// JSON

/// Render both row sets as one machine-readable document.
pub fn to_json(queries: &[QueryRow], live: &[LiveRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e17_query\",\n  \"query_rows\": [\n");
    for (i, r) in queries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fleet\": {}, \"span_secs\": {}, \"range_secs\": {}, \
             \"window\": \"{}\", \"agg\": \"{}\", \"tier\": \"{}\", \
             \"cold_ms\": {:.3}, \"warm_p50_ms\": {:.3}, \"warm_p99_ms\": {:.3}, \
             \"warm_qps\": {:.1}, \"scanned_raw\": {}, \"scanned_buckets\": {}, \
             \"tier_misses_cold\": {}, \"raw_misses_cold\": {}}}{}\n",
            r.fleet,
            r.span_secs,
            r.range_secs,
            r.window,
            r.agg,
            r.tier,
            r.cold_ms,
            r.warm_p50_ms,
            r.warm_p99_ms,
            r.warm_qps,
            r.scanned_raw,
            r.scanned_buckets,
            r.tier_misses_cold,
            r.raw_misses_cold,
            if i + 1 == queries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"live_rows\": [\n");
    for (i, r) in live.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"agents\": {}, \"dashboards\": {}, \"ingested\": {}, \
             \"ingest_p50_us\": {:.1}, \"ingest_p99_us\": {:.1}, \
             \"queries_ok\": {}, \"queries_shed\": {}, \
             \"query_p50_ms\": {:.3}, \"query_p99_ms\": {:.3}, \"completed\": {}}}{}\n",
            r.agents,
            r.dashboards,
            r.ingested,
            r.ingest_p50_us,
            r.ingest_p99_us,
            r.queries_ok,
            r.queries_shed,
            r.query_p50_ms,
            r.query_p99_ms,
            r.completed,
            if i + 1 == live.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
