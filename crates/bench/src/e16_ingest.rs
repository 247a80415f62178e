//! E16: realtime ingest density — connections vs CPU, memory, and
//! tail latency of the reactor (paper §5.3: data gathering "must not
//! impact application performance"; one management server absorbs the
//! whole cluster's agent traffic).
//!
//! Each scenario runs in its own subprocess (re-exec of the
//! `experiments` binary) so CPU and RSS are measured per run from
//! `/proc/self`, uncontaminated by earlier scenarios or the allocator's
//! retained arenas. The client side runs in a further subprocess so the
//! server's and driver's descriptor budgets never share one process —
//! the container's `RLIMIT_NOFILE` ceiling (20k here, unraisable)
//! otherwise caps in-process loopback benches at half the advertised
//! connection count. Scales beyond the per-process fd headroom are
//! clamped and flagged in the row.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterworx::actions::ControlPlane;
use clusterworx::ingest::{drive, IngestConfig, IngestServer, LoadConfig};
use clusterworx::server::Server;
use cwx_util::time::SimDuration;
use parking_lot::{Mutex, RwLock};

/// One scale's measurement.
#[derive(Debug, Clone)]
pub struct IngestRow {
    /// Concurrent connections requested.
    pub requested: usize,
    /// Concurrent connections actually driven (fd-clamped).
    pub conns: usize,
    /// Frames each connection sent.
    pub frames_per_conn: u64,
    /// History ring slots per series. 1 = live-view (current values
    /// only) so the per-connection cost is the ingest architecture;
    /// larger values add retained-sample memory on top.
    pub retention: usize,
    /// Frames the server ingested.
    pub ingested: u64,
    /// Wall seconds from first connect to drained shutdown.
    pub wall_secs: f64,
    /// Server-process CPU seconds (utime+stime) over that window.
    pub cpu_secs: f64,
    /// Peak server-process resident set, MiB.
    pub rss_mib: f64,
    /// Connections per GiB of peak RSS (density).
    pub conns_per_gib: f64,
    /// Ingest latency (readiness read → store visible), microseconds.
    pub p50_us: f64,
    /// 99th percentile of the same.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
    /// Connections evicted (should be 0 under healthy load).
    pub evicted: u64,
    /// Lane backpressure trips.
    pub backpressure: u64,
    /// False when the scenario subprocess died before reporting — the
    /// architecture could not reach this scale at all.
    pub completed: bool,
}

/// Read (utime+stime) of this process in seconds from `/proc/self/stat`.
fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields 14/15 (1-based) count user/sys ticks; the comm field may
    // contain spaces, so parse after the closing paren
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = f.get(12).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0 // USER_HZ
}

/// Current VmRSS in MiB from `/proc/self/status`.
fn rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(v) = line.strip_prefix("VmRSS:") {
            let kb: f64 = v
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Largest connection count one process can hold here, with headroom
/// for the listener, poller, waker, stdio and store fds.
pub fn fd_clamp(conns: usize) -> usize {
    let limit = cwx_net::reactor::raise_nofile_limit()
        .map(|(cur, _)| cur as usize)
        .unwrap_or(1024);
    conns.min(limit.saturating_sub(512))
}

const SCENARIO_FLAG: &str = "--e16-scenario";
const DRIVE_FLAG: &str = "--e16-drive";

/// Dispatch for the `experiments` binary: when re-exec'd as an E16
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

/// Client-driver subprocess: `--e16-drive <addr> <conns> <frames>
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
        "E16DRIVE connected={} frames_sent={} write_errors={}",
        stats.connected, stats.frames_sent, stats.write_errors
    );
}

/// Server-side scenario subprocess: `--e16-scenario <conns> <frames>
/// <interval_ms> <keys> <retention>`. Prints one `E16ROW key=value ...`
/// line.
fn scenario_main(args: &[String]) {
    let conns: usize = args[0].parse().unwrap();
    let frames_per_conn: u64 = args[1].parse().unwrap();
    let interval_ms: u64 = args[2].parse().unwrap();
    let keys: usize = args[3].parse().unwrap();
    let retention: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(16);
    let _ = cwx_net::reactor::raise_nofile_limit();

    let server = Arc::new(RwLock::new(Server::new(
        "e16",
        SimDuration::from_secs(5),
        retention,
        SimDuration::from_secs(3600),
    )));
    let control = Arc::new(Mutex::new(ControlPlane::new(1024)));
    let ingest = IngestServer::start(
        IngestConfig {
            n_lanes: 4,
            nodes_per_group: (conns as u32).div_ceil(4).max(1),
            ..IngestConfig::default()
        },
        Arc::clone(&server),
        None,
        control,
        Instant::now(),
    )
    .unwrap();
    let addr = ingest.addr().to_string();

    // RSS peaks while every connection is live; sample in the background
    let peak = Arc::new(Mutex::new(rss_mib()));
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let sampler = {
        let peak = Arc::clone(&peak);
        let stop = Arc::clone(&stop_sampler);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let now = rss_mib();
                let mut p = peak.lock();
                if now > *p {
                    *p = now;
                }
                drop(p);
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };

    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let exe = std::env::current_exe().unwrap();
    let status = Command::new(exe)
        .args([
            DRIVE_FLAG,
            &addr,
            &conns.to_string(),
            &frames_per_conn.to_string(),
            &interval_ms.to_string(),
            &keys.to_string(),
        ])
        .stdout(Stdio::inherit())
        .status()
        .expect("driver subprocess");
    assert!(status.success(), "driver failed");
    let ingested = ingest.stats();
    let lat = ingest.latency();
    let total = ingest.shutdown();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_secs() - cpu0;
    stop_sampler.store(true, Ordering::Relaxed);
    let _ = sampler.join();
    let rss = *peak.lock();

    println!(
        "E16ROW conns={conns} frames={frames_per_conn} retention={retention} ingested={total} \
         wall={wall:.3} cpu={cpu:.3} rss_mib={rss:.1} p50_us={:.1} p99_us={:.1} max_us={:.1} \
         evicted={} backpressure={} accepted={} decode_errors={}",
        lat.p50_us,
        lat.p99_us,
        lat.max_us,
        ingested.evicted,
        ingested.backpressure_trips,
        ingested.accepted,
        ingested.decode_errors,
    );
}

fn parse_row(line: &str) -> Option<std::collections::BTreeMap<String, f64>> {
    let rest = line.strip_prefix("E16ROW ")?;
    let mut m = std::collections::BTreeMap::new();
    for kv in rest.split_whitespace() {
        let (k, v) = kv.split_once('=')?;
        m.insert(k.to_string(), v.parse().ok()?);
    }
    Some(m)
}

/// Run one scale's scenario in a fresh subprocess.
pub fn scenario(
    requested: usize,
    frames_per_conn: u64,
    interval: Duration,
    keys: usize,
    retention: usize,
) -> IngestRow {
    let conns = fd_clamp(requested);
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args([
            SCENARIO_FLAG,
            &conns.to_string(),
            &frames_per_conn.to_string(),
            &interval.as_millis().to_string(),
            &keys.to_string(),
            &retention.to_string(),
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
        // the subprocess died before reporting (e.g. aborted by a
        // kernel resource limit): that inability to reach the scale IS
        // the measurement — record an incomplete row
        return IngestRow {
            requested,
            conns,
            frames_per_conn,
            retention,
            ingested: 0,
            wall_secs: 0.0,
            cpu_secs: 0.0,
            rss_mib: 0.0,
            conns_per_gib: 0.0,
            p50_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
            evicted: 0,
            backpressure: 0,
            completed: false,
        };
    };
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let rss = g("rss_mib");
    IngestRow {
        requested,
        conns,
        frames_per_conn,
        retention,
        ingested: g("ingested") as u64,
        wall_secs: g("wall"),
        cpu_secs: g("cpu"),
        rss_mib: rss,
        conns_per_gib: if rss > 0.0 {
            conns as f64 / (rss / 1024.0)
        } else {
            0.0
        },
        p50_us: g("p50_us"),
        p99_us: g("p99_us"),
        max_us: g("max_us"),
        evicted: g("evicted") as u64,
        backpressure: g("backpressure") as u64,
        completed: true,
    }
}

/// The sweep: each scale with a live-view store (retention 1), so the
/// per-connection memory is the ingest architecture itself; then the
/// largest scale with history retention, showing the retained-sample
/// cost on top.
pub fn sweep(scales: &[usize], frames_per_conn: u64, interval: Duration) -> Vec<IngestRow> {
    let mut rows: Vec<IngestRow> = scales
        .iter()
        .map(|&n| scenario(n, frames_per_conn, interval, 8, 1))
        .collect();
    if let Some(&n) = scales.last() {
        rows.push(scenario(n, frames_per_conn, interval, 8, 16));
    }
    rows
}

/// Render the rows as a machine-readable JSON document.
pub fn to_json(rows: &[IngestRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e16_ingest\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"requested\": {}, \"conns\": {}, \
             \"frames_per_conn\": {}, \"retention\": {}, \"ingested\": {}, \
             \"wall_secs\": {:.3}, \
             \"cpu_secs\": {:.3}, \"rss_mib\": {:.1}, \"conns_per_gib\": {:.0}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \
             \"evicted\": {}, \"backpressure\": {}, \"completed\": {}}}{}\n",
            r.requested,
            r.conns,
            r.frames_per_conn,
            r.retention,
            r.ingested,
            r.wall_secs,
            r.cpu_secs,
            r.rss_mib,
            r.conns_per_gib,
            r.p50_us,
            r.p99_us,
            r.max_us,
            r.evicted,
            r.backpressure,
            r.completed,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
