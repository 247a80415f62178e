//! The socket workloads: `ingest_live` (write path only) and
//! `live_mixed` (writes beside dashboard reads).
//!
//! The server — ingest plane over a disk store — runs in a re-exec'd
//! child so its CPU, memory and context switches are read from
//! `/proc/<pid>` apart from the load generator. The generator is this
//! process: thread/socket A carries the whole agent fleet multiplexed
//! on one CWB1 stream (one encoder per simulated agent; the decoder
//! keeps dictionary state per node id precisely so one channel can
//! carry many agents), the main thread with socket B is the
//! dashboard/probe client. Frames are encoded during set-up, so thread
//! A only `write_all`s on schedule.
//!
//! Freshness probe: every frame carries `bench.stamp`, whose value and
//! gather time are the frame's *due* time on the generator's schedule.
//! A probe is a CWQ1 `max` of `bench.stamp` over all nodes for
//! `[now − 2 s, now + 1 s]`; `lag = reply received − newest stamp`.
//! That is the sample's whole life — socket, reactor read, decode, lane
//! wait, WAL, store-visible, query fold, reply — in one number.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::{self, Agg, ClientOp, FleetGen, History, QueryShape, Rng};
use crate::procfs::{self, ProcSample};
use crate::report::{Metric, Outcome};
use crate::stats::{self, Schedule};
use crate::surface::{self, AgentWire, BenchStore, LiveCounters, LiveServer};
use crate::trace::Tracer;

/// Size and mix of one socket workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveShape {
    /// Workload name.
    pub name: &'static str,
    /// Simulated agents multiplexed on socket A.
    pub agents: u32,
    /// Reports per agent per second.
    pub agent_hz: f64,
    /// Seconds of traffic before the measured window.
    pub warmup_secs: f64,
    /// Freshness probes per second on socket B.
    pub probe_hz: f64,
    /// Dashboard queries per second on socket B (0 = none).
    pub dash_hz: f64,
    /// 30-second history steps of `bench.m0` stored before the run.
    pub prepop_steps: usize,
}

/// `ingest_live`: 1000 agents × 0.5 Hz × 32 keys = 16k samples/s, plus
/// 50 Hz freshness probes. The query engine does almost nothing.
///
/// The rate is what this two-core sandbox sustains with every store
/// default in place: the write path costs ~25 µs of server CPU per
/// sample there (a flush every 4096 samples writes a segment of
/// one-sample series, every fourth flush recompacts the whole shard),
/// so 16k samples/s already keeps most of a core busy, and 4× that
/// queues until every probe fails.
pub const INGEST_LIVE: LiveShape = LiveShape {
    name: "ingest_live",
    agents: 1000,
    agent_hz: 0.5,
    warmup_secs: 3.0,
    probe_hz: 50.0,
    dash_hz: 0.0,
    prepop_steps: 0,
};

/// `live_mixed`: the same ingest beside 20 dashboard queries/s and 5
/// probes/s against a store holding 2 h of history (every compaction
/// rewrites the stored history too, so its size sets the write path's
/// cost; 2 h keeps the pair inside two cores).
pub const LIVE_MIXED: LiveShape = LiveShape {
    name: "live_mixed",
    agents: 1000,
    agent_hz: 0.5,
    warmup_secs: 3.0,
    probe_hz: 5.0,
    dash_hz: 20.0,
    prepop_steps: 240,
};

impl LiveShape {
    /// Shrink the fleet and history by `f` (smoke tests); `f ≥ 1` is
    /// full size.
    pub fn scaled(&self, f: f64) -> LiveShape {
        if f >= 1.0 {
            return self.clone();
        }
        LiveShape {
            agents: ((self.agents as f64 * f) as u32).max(8) / 2 * 2,
            prepop_steps: if self.prepop_steps == 0 {
                0
            } else {
                ((self.prepop_steps as f64 * f) as usize).max(130)
            },
            warmup_secs: (self.warmup_secs * f).max(0.5),
            ..self.clone()
        }
    }

    fn frames_per_sec(&self) -> f64 {
        self.agents as f64 * self.agent_hz
    }

    fn history_span_secs(&self) -> u64 {
        self.prepop_steps as u64 * HISTORY_STEP_SECS
    }

    /// Store time of frame 0: past every window the dashboard queries
    /// over the stored history can be widened to, so live samples never
    /// leak into a reference answer.
    fn base_secs(&self) -> f64 {
        (self.history_span_secs() + 3_660) as f64
    }

    /// The dashboard classes of `live_mixed` and their mix weights.
    /// Heavy classes look at one rack-sized group: a block holds a
    /// series' whole history, so even a trailing-hour raw query over
    /// the full fleet decodes every stored sample.
    fn dash_classes(&self) -> Vec<(QueryShape, usize)> {
        let span = self.history_span_secs();
        let rack = (self.agents / 10).max(1);
        let q = |class, agg, from_secs, window_secs, nodes| QueryShape {
            class,
            monitor: HISTORY_MONITOR,
            agg,
            from_secs,
            to_secs: span,
            window_secs,
            nodes,
        };
        vec![
            (q("tier5m", Agg::Avg, 0, 300, self.agents), 12),
            (
                q("rawp99", Agg::P99, span.saturating_sub(3_600), 3_600, rack),
                2,
            ),
            (
                q("scan10s", Agg::Avg, span.saturating_sub(3_600), 10, rack),
                2,
            ),
            (q("tier1h", Agg::Avg, 0, 3_600, self.agents), 24),
        ]
    }
}

const HISTORY_MONITOR: &str = "bench.m0";
const HISTORY_STEP_SECS: u64 = 30;
/// Series read back bit-for-bit after the run.
const TRACKED_SERIES: usize = 16;
/// A probe or query this slow is a failed operation.
const OP_DEADLINE: Duration = Duration::from_secs(1);
/// Past this the reply stream is considered lost and the run aborts.
const RESYNC_DEADLINE: Duration = Duration::from_secs(15);
/// A generator whose *median* frame went out later than this measured
/// itself, not the server: the run is invalid. (The p99 is reported but
/// cannot be the criterion here: the sandbox is a VM whose hypervisor
/// steals 10–50 ms at a time even from an idle 1 kHz sleep loop.)
const GEN_LATE_LIMIT_MS: f64 = 5.0;
/// Set-ups per untraced run; the median is reported.
pub const SETUP_REPS: usize = 3;

fn probe_shape(agents: u32) -> QueryShape {
    QueryShape {
        class: "probe",
        monitor: gen::STAMP_KEY,
        agg: Agg::Max,
        from_secs: 0,
        to_secs: 0,
        window_secs: 1,
        nodes: agents,
    }
}

// ---------------------------------------------------------------------
// pre-encoded traffic

/// A series the post-run check reads back: `(node, key name, [(frame
/// index, time nanos, value bits)])`.
pub type Tracked = (u32, String, Vec<(u64, u64, u64)>);

/// Every frame of a run, encoded and length-prefixed, plus what the
/// post-run checks expect to read back.
pub struct Traffic {
    /// The wire bytes, frame after frame.
    pub bytes: Vec<u8>,
    /// `ends[k]` = offset one past frame `k`.
    pub ends: Vec<usize>,
    /// What the generator put into the tracked series.
    pub tracked: Vec<Tracked>,
}

/// Generate and encode `n_frames` frames for `shape` under `seed`.
pub fn encode_traffic(shape: &LiveShape, seed: u64, n_frames: u64) -> Traffic {
    let keys = gen::key_names();
    let mut fleet = FleetGen::new(
        seed,
        shape.agents,
        shape.frames_per_sec(),
        shape.base_secs(),
    );
    let mut wires: Vec<AgentWire> = (0..shape.agents).map(|_| AgentWire::new(&keys)).collect();
    let mut pick = Rng::new(seed).fork(5);
    let mut tracked: Vec<Tracked> = Vec::new();
    while tracked.len() < TRACKED_SERIES.min(shape.agents as usize) {
        let node = pick.below(shape.agents as u64) as u32;
        // bench.m0 also holds the stored history; track pure live series
        let first = usize::from(shape.prepop_steps > 0);
        let key = first + pick.below((keys.len() - first) as u64) as usize;
        if !tracked
            .iter()
            .any(|(n, k, _)| *n == node && *k == keys[key])
        {
            tracked.push((node, keys[key].clone(), Vec::new()));
        }
    }
    let mut bytes = Vec::with_capacity(n_frames as usize * 320);
    let mut ends = Vec::with_capacity(n_frames as usize);
    let mut values = Vec::new();
    let mut body = Vec::new();
    for k in 0..n_frames {
        let head = fleet.next_frame(&mut values);
        wires[head.node as usize].encode(head, &values, &mut body);
        surface::put_frame(&mut bytes, &body);
        ends.push(bytes.len());
        for (node, key, points) in &mut tracked {
            if *node == head.node {
                let i = keys
                    .iter()
                    .position(|x| x == key)
                    .expect("tracked key exists");
                points.push((k, surface::store_nanos(head.time_secs), values[i].to_bits()));
            }
        }
    }
    Traffic {
        bytes,
        ends,
        tracked,
    }
}

/// Order-sensitive digest of a series' `(time, value bits)` pairs.
fn series_digest(points: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0u64;
    for (t, v) in points {
        for word in [t, v] {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        n += 1;
    }
    (n, h)
}

// ---------------------------------------------------------------------
// the server child

/// Body of `cwxbench serve`: open the store, store the history, start
/// the ingest plane, then answer the parent's commands on stdin.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let arg = |name: &str| -> Result<&String, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("serve: missing {name}"))
    };
    let dir = PathBuf::from(arg("--dir")?);
    let fleet: u32 = arg("--fleet")?.parse().map_err(|_| "serve: bad --fleet")?;
    let steps: usize = arg("--prepop-steps")?
        .parse()
        .map_err(|_| "serve: bad --prepop-steps")?;
    let seed: u64 = arg("--seed")?.parse().map_err(|_| "serve: bad --seed")?;

    let store = BenchStore::open(&dir, fleet)?;
    if steps > 0 {
        store.populate(
            HISTORY_MONITOR,
            &History::generate(seed, fleet, steps, HISTORY_STEP_SECS),
        )?;
    }
    let mut server = Some(LiveServer::start(store.clone(), fleet)?);
    let addr = server.as_ref().expect("just started").addr();
    println!("READY {addr} {}", store.total_samples());

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut words = line.split_whitespace();
        match words.next() {
            Some("stats") => match &server {
                Some(s) => println!("STATS {}", render_counters(&s.counters())),
                None => println!("ERR drained"),
            },
            Some("drain") => match server.take() {
                Some(s) => {
                    let (c, store) = s.shutdown();
                    store.flush_all()?;
                    println!(
                        "FINAL {} disk_bytes={}",
                        render_counters(&c),
                        procfs::dir_bytes(&dir)
                    );
                }
                None => println!("ERR drained"),
            },
            Some("read") => {
                let node: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("read: node")?;
                let key = words.next().ok_or("read: key")?;
                let (n, h) = series_digest(store.read_back(node, key).into_iter());
                println!("SERIES {n} {h}");
            }
            Some("quit") | None => break,
            Some(other) => println!("ERR unknown command {other}"),
        }
    }
    drop(server);
    Ok(())
}

fn render_counters(c: &LiveCounters) -> String {
    format!(
        "frames={} reports={} samples={} bytes={} decode_errors={} backpressure_trips={} \
         evicted={} queries={} queries_shed={} executor_errors={} rx_p50_us={} rx_p99_us={} \
         store_samples={}",
        c.frames,
        c.reports,
        c.samples,
        c.bytes,
        c.decode_errors,
        c.backpressure_trips,
        c.evicted,
        c.queries,
        c.queries_shed,
        c.executor_errors,
        c.rx_to_visible_p50_us,
        c.rx_to_visible_p99_us,
        c.store_samples,
    )
}

fn parse_kv(line: &str, tag: &str) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| format!("server child said {line:?}, expected {tag}"))?;
    rest.split_whitespace()
        .map(|kv| {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad pair {kv:?}"))?;
            Ok((
                k.to_string(),
                v.parse::<f64>().map_err(|_| format!("bad value {kv:?}"))?,
            ))
        })
        .collect()
}

/// The parent's handle on the server child.
struct ServerChild {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl ServerChild {
    fn spawn(shape: &LiveShape, seed: u64, dir: &Path) -> Result<ServerChild, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--dir", &dir.to_string_lossy()])
            .args(["--fleet", &shape.agents.to_string()])
            .args(["--prepop-steps", &shape.prepop_steps.to_string()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let addr = line
            .strip_prefix("READY ")
            .and_then(|r| r.split_whitespace().next())
            .ok_or_else(|| format!("server child did not come up: {line:?}"))?
            .to_string();
        Ok(ServerChild {
            child,
            stdin,
            stdout,
            addr,
            dir: dir.to_path_buf(),
        })
    }

    fn ask(&mut self, cmd: &str) -> Result<String, String> {
        writeln!(self.stdin, "{cmd}").map_err(|e| e.to_string())?;
        self.stdin.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Ok(line.trim_end().to_string())
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stop the child and wait for it; remove its store.
    fn finish(mut self) {
        let _ = writeln!(self.stdin, "quit");
        drop(self.stdin);
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------
// socket B: probes and dashboard queries

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

enum Reply {
    /// A reply arrived within the operation deadline.
    InTime(Vec<u8>, Instant),
    /// The reply came, but too late to count.
    Late,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// One CWQ1 round trip. A reply later than [`OP_DEADLINE`] is still
    /// awaited (replies carry no id, so the stream must stay in step),
    /// but reported as late; silence past [`RESYNC_DEADLINE`] is fatal.
    fn roundtrip(&mut self, body: &[u8]) -> Result<Reply, String> {
        let mut frame = Vec::with_capacity(body.len() + 4);
        surface::put_frame(&mut frame, body);
        let sent = Instant::now();
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("query write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if self.buf.len() >= 4 + len {
                    let got = Instant::now();
                    let reply = self.buf[4..4 + len].to_vec();
                    return Ok(if got - sent <= OP_DEADLINE {
                        Reply::InTime(reply, got)
                    } else {
                        Reply::Late
                    });
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the query socket".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if sent.elapsed() > RESYNC_DEADLINE {
                        return Err("no query reply within the resync deadline".into());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("query read: {e}")),
            }
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

// ---------------------------------------------------------------------
// socket A: the agent stream

struct SendReport {
    frames_sent: u64,
    /// Lateness of every frame sent in the measured window, ms.
    late_ms: Vec<f64>,
    tracer: Tracer,
}

/// Write frames on schedule until `n_frames` are out. Every frame due
/// by "now" goes out in one `write_all`; a stalled socket makes the
/// following frames late, and the lateness is recorded per frame.
fn send_loop(
    mut stream: TcpStream,
    traffic: &Traffic,
    sched: Schedule,
    warm_frames: u64,
    mut tracer: Tracer,
) -> Result<SendReport, String> {
    let n = traffic.ends.len() as u64;
    let mut late_ms = Vec::with_capacity((n - warm_frames.min(n)) as usize);
    let mut k = 0u64;
    while k < n {
        sleep_until(sched.due(k));
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(sched.start).as_secs_f64();
        let due_by_now = ((elapsed / sched.period.as_secs_f64()) as u64 + 1).clamp(k + 1, n);
        let from = if k == 0 {
            0
        } else {
            traffic.ends[k as usize - 1]
        };
        let to = traffic.ends[due_by_now as usize - 1];
        tracer
            .span("gen.send", k, |_| {
                stream.write_all(&traffic.bytes[from..to])
            })
            .map_err(|e| format!("agent stream write: {e}"))?;
        for i in k.max(warm_frames)..due_by_now {
            late_ms.push(stats::lateness(sched.due(i), now).as_secs_f64() * 1e3);
        }
        k = due_by_now;
    }
    // closing the socket is what lets the server drain to EOF
    drop(stream);
    Ok(SendReport {
        frames_sent: n,
        late_ms,
        tracer,
    })
}

// ---------------------------------------------------------------------
// the workload

struct Setup {
    traffic: Traffic,
    child: ServerChild,
}

fn set_up(shape: &LiveShape, seed: u64, n_frames: u64, dir: &Path) -> Result<Setup, String> {
    let traffic = encode_traffic(shape, seed, n_frames);
    let child = ServerChild::spawn(shape, seed, dir)?;
    Ok(Setup { traffic, child })
}

fn close_enough(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1e-300)
}

/// Compare a reply to the reference fold: counts exact, p99 exact,
/// avg/max within 1e-9 relative.
pub fn answer_matches(
    got: &[(u64, f64, u64)],
    want: &[gen::RefPoint],
    agg: Agg,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} windows, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        let value_ok = match agg {
            Agg::P99 => g.1 == w.value,
            Agg::Avg | Agg::Max => close_enough(g.1, w.value),
        };
        if g.0 != w.start_secs || g.2 != w.count || !value_ok {
            return Err(format!("window {g:?} differs from reference {w:?}"));
        }
    }
    Ok(())
}

/// Run one socket workload for `seconds` measured seconds, setting up
/// `setup_reps` times (the last set-up is the one used).
pub fn run(
    shape: &LiveShape,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // sizing rule: generator threads (this one + the sender) and client
    // sockets (A + B) never exceed the cores we were given
    const GEN_THREADS: usize = 2;
    const GEN_SOCKETS: usize = 2;
    if GEN_THREADS > nproc || GEN_SOCKETS > nproc {
        return Err(format!(
            "load generator needs {GEN_THREADS} threads and {GEN_SOCKETS} sockets, nproc is {nproc}"
        ));
    }

    let total_secs = shape.warmup_secs + seconds;
    let n_frames = (total_secs * shape.frames_per_sec()) as u64;
    let dir = crate::report::work_dir().join(shape.name);

    // set-up, several times; the last one is used
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for rep in 0..setup_reps.max(1) {
        let t0 = Instant::now();
        let s = set_up(shape, seed, n_frames, &dir)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            s.child.finish();
        } else {
            kept = Some(s);
        }
    }
    let mut setup = kept.expect("last set-up kept");
    let result = drive(shape, seed, seconds, tracer, &mut setup, &setup_secs);
    setup.child.finish();
    result
}

fn drive(
    shape: &LiveShape,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    setup: &mut Setup,
    setup_secs: &[f64],
) -> Result<Outcome, String> {
    let Setup { traffic, child } = setup;
    let traffic = &*traffic;
    let warm_frames = (shape.warmup_secs * shape.frames_per_sec()) as u64;
    let mut out = Outcome::default();
    let total_secs = shape.warmup_secs + seconds;
    let mut client = Client::connect(&child.addr)?;
    let classes = if shape.dash_hz > 0.0 {
        shape.dash_classes()
    } else {
        Vec::new()
    };

    // each dashboard class checked once, untimed, against the
    // benchmark's own fold of the history it generated
    if !classes.is_empty() {
        let history = History::generate(seed, shape.agents, shape.prepop_steps, HISTORY_STEP_SECS);
        for (q, _) in &classes {
            let body = surface::encode_query(q, q.from_secs as f64, q.to_secs as f64);
            let verdict = match client.roundtrip(&body)? {
                Reply::InTime(reply, _) => surface::parse_reply(&reply)
                    .map(|rows| {
                        rows.into_iter()
                            .map(|(s, v, c)| (s / 1_000_000_000, v, c))
                            .collect::<Vec<_>>()
                    })
                    .and_then(|rows| answer_matches(&rows, &gen::reference(&history, q), q.agg)),
                Reply::Late => Err("reply missed the deadline".to_string()),
            };
            out.check(
                &format!("reference:{}", q.class),
                verdict.is_ok(),
                verdict
                    .err()
                    .unwrap_or_else(|| "matches the generator's fold".into()),
            );
        }
    }

    let weights: Vec<usize> = classes.iter().map(|(_, w)| *w).collect();
    let ops = gen::client_schedule(
        &mut Rng::new(seed).fork(4),
        total_secs,
        shape.probe_hz,
        shape.dash_hz,
        &weights,
    );
    let probe = probe_shape(shape.agents);
    let dash_bodies: Vec<Vec<u8>> = classes
        .iter()
        .map(|(q, _)| surface::encode_query(q, q.from_secs as f64, q.to_secs as f64))
        .collect();

    // go: socket A on its own thread, socket B here
    let agent_stream =
        TcpStream::connect(&child.addr).map_err(|e| format!("connect agent stream: {e}"))?;
    agent_stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(20);
    let sched = Schedule {
        start,
        period: Duration::from_secs_f64(1.0 / shape.frames_per_sec()),
    };
    let base = shape.base_secs();
    let sender_tracer = Tracer::new(tracer.on(), start);

    let mut lag_ms = Vec::new();
    let mut dash_ms = Vec::new();
    let mut client_failed = 0u64;
    let mut client_attempted = 0u64;
    let mut window: Option<(ProcSample, LiveCounters, Instant)> = None;

    let send_report = std::thread::scope(|scope| -> Result<SendReport, String> {
        let sender =
            scope.spawn(|| send_loop(agent_stream, traffic, sched, warm_frames, sender_tracer));
        for (seq, &(due_off, op)) in ops.iter().enumerate() {
            let measured = due_off >= shape.warmup_secs;
            if measured && window.is_none() {
                window = Some((
                    procfs::sample(Some(child.pid())),
                    child_counters(child)?,
                    Instant::now(),
                ));
            }
            let due = start + Duration::from_secs_f64(due_off);
            sleep_until(due);
            let sent = Instant::now();
            let body = match op {
                ClientOp::Probe => {
                    let now = base + sent.saturating_duration_since(start).as_secs_f64();
                    surface::encode_query(&probe, now - 2.0, now + 1.0)
                }
                ClientOp::Dash(c) => dash_bodies[c].clone(),
            };
            let reply = client.roundtrip(&body)?;
            if !measured {
                continue;
            }
            client_attempted += 1;
            let Reply::InTime(reply, got) = reply else {
                eprintln!("failed op {seq} ({op:?}): no reply within {OP_DEADLINE:?}");
                client_failed += 1;
                continue;
            };
            let rows = surface::parse_reply(&reply);
            match (op, rows) {
                (ClientOp::Probe, Ok(rows)) if !rows.is_empty() => {
                    tracer.record("probe.roundtrip", seq as u64, sent, got);
                    let newest = rows.iter().map(|r| r.1).fold(f64::MIN, f64::max);
                    let lag = got.saturating_duration_since(start).as_secs_f64() - (newest - base);
                    if lag > OP_DEADLINE.as_secs_f64() {
                        eprintln!(
                            "failed op {seq} (probe): newest visible sample is {lag:.3} s old"
                        );
                        client_failed += 1;
                    } else {
                        lag_ms.push(lag * 1e3);
                    }
                }
                (ClientOp::Dash(_), Ok(rows)) if !rows.is_empty() => {
                    tracer.record("dash.roundtrip", seq as u64, sent, got);
                    dash_ms.push(stats::open_loop_latency(due, got).as_secs_f64() * 1e3);
                }
                // an error reply (shed, over budget) or an empty answer
                (_, rows) => {
                    eprintln!(
                        "failed op {seq} ({op:?}): {}",
                        rows.err().unwrap_or_else(|| "empty answer".into())
                    );
                    client_failed += 1;
                }
            }
        }
        sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?
    })?;
    let (proc0, ctr0, t_window) = window.ok_or("run too short: no measured operation")?;
    let proc1 = procfs::sample(Some(child.pid()));
    let ctr1 = child_counters(child)?;
    let window_secs = t_window.elapsed().as_secs_f64();
    drop(client);
    tracer.absorb(send_report.tracer);

    // drain: connections are closed, the server reads to EOF, flushes
    // its lanes and every memtable
    let fin = parse_kv(&child.ask("drain")?, "FINAL ")?;
    let fin_ctr = counters_of(&fin);
    let disk_bytes = fin.get("disk_bytes").copied().unwrap_or(0.0);

    let frames_sent = send_report.frames_sent;
    let samples_sent = frames_sent * gen::KEYS_PER_FRAME as u64;
    let prepop = shape.prepop_steps as u64 * shape.agents as u64;
    out.attempted += frames_sent + client_attempted;
    out.failed += client_failed
        + frames_sent.saturating_sub(fin_ctr.reports)
        + fin_ctr.evicted
        + fin_ctr.queries_shed
        + fin_ctr.executor_errors
        + fin_ctr.decode_errors;
    out.check(
        "store:total_samples",
        fin_ctr.store_samples == prepop + samples_sent,
        format!(
            "store holds {} samples, sent {samples_sent} + stored history {prepop}",
            fin_ctr.store_samples
        ),
    );
    let mut mismatched = Vec::new();
    for (node, key, points) in &traffic.tracked {
        let want = series_digest(
            points
                .iter()
                .filter(|p| p.0 < frames_sent)
                .map(|p| (p.1, p.2)),
        );
        let line = child.ask(&format!("read {node} {key}"))?;
        let got: Vec<u64> = line
            .strip_prefix("SERIES ")
            .map(|r| {
                r.split_whitespace()
                    .filter_map(|w| w.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if got != [want.0, want.1] {
            mismatched.push(format!("node {node} {key}: got {got:?}, want {want:?}"));
        }
    }
    out.check(
        "store:read_back",
        mismatched.is_empty(),
        if mismatched.is_empty() {
            format!(
                "{} series bit-equal to the generator's",
                traffic.tracked.len()
            )
        } else {
            mismatched.join("; ")
        },
    );

    // metrics
    let lag = stats::sorted(&lag_ms);
    let dash = stats::sorted(&dash_ms);
    let late = stats::sorted(&send_report.late_ms);
    let cpu_s = proc1.cpu_s() - proc0.cpu_s();
    let samples_in_window = (ctr1.samples - ctr0.samples).max(1) as f64;
    let frames_in_window = (ctr1.frames - ctr0.frames).max(1) as f64;
    let cpu_us_per_sample = cpu_s * 1e6 / samples_in_window;
    let setup = stats::median(&stats::sorted(setup_secs));
    let m = &mut out.metrics;
    m.push(Metric::gated(
        "setup_s",
        setup,
        "s",
        setup_secs.len() as u64,
    ));
    m.push(Metric::gated(
        "cpu_us_per_kunit",
        cpu_us_per_sample * 1e3,
        "us",
        samples_in_window as u64,
    ));
    let disk_bytes_per_sample = disk_bytes / fin_ctr.store_samples.max(1) as f64;
    m.push(Metric::gated(
        "bytes_per_kunit",
        disk_bytes_per_sample * 1e3,
        "B",
        fin_ctr.store_samples,
    ));
    m.push(Metric::detail("peak_rss_mib", proc1.peak_rss_mib, "MiB", 1));
    let headline = if shape.dash_hz > 0.0 { &dash } else { &lag };
    if !headline.is_empty() {
        m.push(Metric::gated(
            "op_p50_ms",
            stats::median(headline),
            "ms",
            headline.len() as u64,
        ));
    }
    m.push(Metric::detail(
        "server_cpu_us_per_sample",
        cpu_us_per_sample,
        "us",
        samples_in_window as u64,
    ));
    m.push(Metric::detail(
        "disk_bytes_per_sample",
        disk_bytes_per_sample,
        "B",
        fin_ctr.store_samples,
    ));
    for (name, sorted) in [("fresh_lag", &lag), ("dash", &dash)] {
        if sorted.is_empty() {
            continue;
        }
        m.push(Metric::detail(
            &format!("{name}_p50_ms"),
            stats::median(sorted),
            "ms",
            sorted.len() as u64,
        ));
        if let Some(p95) = stats::named_tail(sorted, 95.0) {
            m.push(Metric::detail(
                &format!("{name}_p95_ms"),
                p95,
                "ms",
                sorted.len() as u64,
            ));
        }
    }
    let tag = shape.name;
    let (gen_late_p50, gen_late_p99) = if late.is_empty() {
        (0.0, 0.0)
    } else {
        (stats::median(&late), stats::percentile(&late, 99.0))
    };
    m.push(Metric::layer(
        format!("bench.gen_late_p50_ms@{tag}"),
        gen_late_p50,
        "ms",
        late.len() as u64,
    ));
    m.push(Metric::layer(
        format!("bench.gen_late_p99_ms@{tag}"),
        gen_late_p99,
        "ms",
        late.len() as u64,
    ));
    m.push(Metric::layer(
        format!("bench.frames_sent@{tag}"),
        frames_sent as f64,
        "count",
        1,
    ));
    m.push(Metric::layer(
        format!("bench.samples_sent@{tag}"),
        samples_sent as f64,
        "count",
        1,
    ));
    m.push(Metric::layer(
        format!("cwx-net.bytes_per_frame@{tag}"),
        fin_ctr.bytes as f64 / fin_ctr.frames.max(1) as f64,
        "B",
        fin_ctr.frames,
    ));
    m.push(Metric::layer(
        format!("cwx-net.server_sys_share@{tag}"),
        (proc1.stime_s - proc0.stime_s) / cpu_s.max(1e-9),
        "share",
        1,
    ));
    m.push(Metric::layer(
        format!("cwx-net.ctx_switches_per_kframe@{tag}"),
        (proc1.ctx_switches - proc0.ctx_switches) as f64 * 1e3 / frames_in_window,
        "1/kframe",
        frames_in_window as u64,
    ));
    for (name, v, unit) in [
        (
            "ingest_rx_to_visible_p50_us",
            ctr1.rx_to_visible_p50_us,
            "us",
        ),
        (
            "ingest_rx_to_visible_p99_us",
            ctr1.rx_to_visible_p99_us,
            "us",
        ),
        ("ingest_frames", fin_ctr.reports as f64, "count"),
        ("ingest_samples", fin_ctr.samples as f64, "count"),
        ("decode_errors", fin_ctr.decode_errors as f64, "count"),
        (
            "backpressure_trips",
            fin_ctr.backpressure_trips as f64,
            "count",
        ),
        ("evicted", fin_ctr.evicted as f64, "count"),
        ("queries", fin_ctr.queries as f64, "count"),
        ("queries_shed", fin_ctr.queries_shed as f64, "count"),
        ("executor_errors", fin_ctr.executor_errors as f64, "count"),
    ] {
        m.push(Metric::layer(
            format!("clusterworx.{name}@{tag}"),
            v,
            unit,
            1,
        ));
    }
    m.push(Metric::layer(
        format!("bench.window_s@{tag}"),
        window_secs,
        "s",
        1,
    ));
    if gen_late_p50 > GEN_LATE_LIMIT_MS {
        out.invalid = Some(format!(
            "generator ran late: median {gen_late_p50:.3} ms > {GEN_LATE_LIMIT_MS} ms — it measured itself, not the server"
        ));
    }
    Ok(out)
}

fn counters_of(kv: &std::collections::BTreeMap<String, f64>) -> LiveCounters {
    let g = |k: &str| kv.get(k).copied().unwrap_or(0.0);
    LiveCounters {
        frames: g("frames") as u64,
        reports: g("reports") as u64,
        samples: g("samples") as u64,
        bytes: g("bytes") as u64,
        decode_errors: g("decode_errors") as u64,
        backpressure_trips: g("backpressure_trips") as u64,
        evicted: g("evicted") as u64,
        queries: g("queries") as u64,
        queries_shed: g("queries_shed") as u64,
        executor_errors: g("executor_errors") as u64,
        rx_to_visible_p50_us: g("rx_p50_us"),
        rx_to_visible_p99_us: g("rx_p99_us"),
        store_samples: g("store_samples") as u64,
    }
}

fn child_counters(child: &mut ServerChild) -> Result<LiveCounters, String> {
    Ok(counters_of(&parse_kv(&child.ask("stats")?, "STATS ")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        let shape = INGEST_LIVE.scaled(0.02);
        let a = encode_traffic(&shape, 11, 400);
        let b = encode_traffic(&shape, 11, 400);
        let c = encode_traffic(&shape, 12, 400);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.ends, b.ends);
        assert_eq!(a.tracked, b.tracked);
        assert_ne!(a.bytes, c.bytes);
        assert_eq!(a.ends.len(), 400);
        assert!(a.tracked.iter().all(|(_, _, p)| !p.is_empty()));
    }

    #[test]
    fn reference_comparison_is_exact_on_counts_and_p99() {
        let want = [gen::RefPoint {
            start_secs: 0,
            count: 3,
            value: 2.0,
        }];
        assert!(answer_matches(&[(0, 2.0 + 1e-12, 3)], &want, Agg::Avg).is_ok());
        assert!(answer_matches(&[(0, 2.0 + 1e-12, 3)], &want, Agg::P99).is_err());
        assert!(answer_matches(&[(0, 2.0, 4)], &want, Agg::Avg).is_err());
        assert!(answer_matches(&[(0, 2.1, 3)], &want, Agg::Avg).is_err());
        assert!(answer_matches(&[], &want, Agg::Avg).is_err());
    }
}
