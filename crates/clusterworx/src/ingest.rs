//! Connection-oriented realtime ingest: the TCP front door agents ship
//! `CWB1` reports through.
//!
//! One reactor thread owns every agent connection through a
//! [`ConnTable`] (`cwx_net::conns`), which accepts, keeps each
//! connection's framed stream and poll interest, and frees it on close.
//! This module adds the protocol and policy: per-connection `CWB1`
//! decoders that decode straight out of the reused read buffer, `CWQ1`
//! queries, the fd budget, backpressure, eviction and the drain
//! deadline. Each lane (one per store shard) is a mailbox: an `Inbox`
//! the reactor and the lane's flush worker share. One thread sustains
//! tens of thousands of connections with bounded memory.
//!
//! Once a connection's ready frames are read, the reactor appends that
//! connection's decoded reports to its lane's inbox, and wakes the
//! worker only if the worker is waiting. The worker takes everything
//! buffered, commits it ([`Store::append_batch`] → one WAL write per
//! shard, then the server lock once, per slice of at most
//! `COMMIT_SLICE_BYTES`), and comes back for more. Group commit holds by
//! construction, with no timer: an idle worker takes a report at once,
//! and a busy one takes everything that piled up while it committed.
//!
//! An inbox counts one unit: the bytes read off the socket, each frame
//! with its 4-byte length prefix, so no frame is free whatever it
//! carries. Backpressure is explicit, never an unbounded buffer or a
//! stalled reactor: a hand-over that takes an inbox to
//! [`LANE_CAP_BYTES`] pauses the connections feeding that lane (their
//! read interest is dropped; the kernel's TCP window then pushes back on
//! the agent) and writes an
//! [`AuditEntry::IngestBackpressure`](crate::actions::AuditEntry::IngestBackpressure)
//! row; a connection that feeds the lane while it is paused pauses too.
//! The worker's next take empties the inbox and wakes the reactor,
//! which resumes them. A connection paused past `evict_pause` on a lane
//! whose worker has landed no slice for as long — a stalled store, or a
//! dead worker, holding the lane hostage — is evicted with
//! [`AuditEntry::ConnectionEvicted`](crate::actions::AuditEntry::ConnectionEvicted)
//! while every other lane keeps flowing. Oversized frames, garbage
//! floods (more than [`MAX_DECODE_ERRORS`] undecodable frames) and a
//! `CWB1` delta the connection's decoder refuses as desynced (a skipped
//! `seq`: the agent's reconnect sends a reset frame) evict the same
//! way, and so does every connection still open at the drain deadline.
//!
//! Every frame read is accounted for at shutdown: it is a `CWQ1` query,
//! an arrival a worker committed, or one a dead worker left uncommitted
//! ([`IngestServer::stop`] audits a ledger that does not balance).
//!
//! The history store comes from the caller: a [`DiskStore`] handed to
//! [`IngestServer::start`] (which also enables the `CWQ1` endpoint), or
//! else the server's own history. The plane has no stall hook of its
//! own; slow-consumer tests hand in a fake store that is slow to take
//! writes.
//!
//! Batches commit through [`crate::server::commit`], as the simulator's
//! deliveries do: samples carry the *report's* gather time, so identical
//! agent traffic produces identical store contents regardless of
//! arrival jitter or batching boundaries — the ingest tests check the
//! store against the scripted traffic and against the simulator's
//! delivery path. Receive time still drives liveness and events.

use std::fmt::Write as _;
use std::io;
use std::mem;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cwx_monitor::monitor::Value;
use cwx_monitor::transmit::{Report, WireDecoder, WireError};
use cwx_net::conns::{ConnEvent, ConnId, ConnTable};
use cwx_net::frame::{ConnError, ConnLimits, ReadState, LEN_PREFIX};
use cwx_net::reactor::Waker;
use cwx_store::disk::DiskStore;
use cwx_store::query::ExecutorStats;
use cwx_store::{
    AggFunc, QueryError, QueryExecutor, QueryGroup, QueryLimits, QueryResult, QuerySpec,
    Resolution, Store,
};
use cwx_util::time::{wall_since, SimTime};
use parking_lot::{Mutex, RwLock};

use crate::actions::ControlPlane;
use crate::server::{commit, Arrival, Server};

/// Tuning knobs for the ingest plane.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Listen address; port 0 picks a free port.
    pub listen: String,
    /// Ingest lanes (one flush worker each); match the store's shard
    /// count so each lane's batches hit one WAL.
    pub n_lanes: usize,
    /// Node-group width used to route a report's node to a lane
    /// (matches the store's shard routing).
    pub nodes_per_group: u32,
    /// Largest accepted wire frame; also bounds what one connection
    /// buffers across readiness events (at most one partial frame).
    pub max_frame: usize,
    /// How long a connection may stay paused under lane backpressure
    /// before it is evicted as a slow consumer.
    pub evict_pause: Duration,
    /// Most connections (agents + query clients) the reactor holds at
    /// once; `None` derives it from the process fd limit. A client
    /// accepted past the budget is shed with an audit row — reported,
    /// never silently clamped.
    pub conn_budget: Option<usize>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            listen: "127.0.0.1:0".to_string(),
            n_lanes: 1,
            nodes_per_group: u32::MAX,
            max_frame: 1 << 20,
            evict_pause: Duration::from_secs(30),
            conn_budget: None,
        }
    }
}

/// Most frame bytes (length prefixes included) a lane's inbox buffers
/// before its connections pause: ~4,000 eight-key `CWB1` reports, or
/// ~9,000 of a realtime agent's consolidated ones (~45 B each).
pub const LANE_CAP_BYTES: usize = 400 << 10;

/// Undecodable frames a connection may send before it is evicted.
pub const MAX_DECODE_ERRORS: u64 = 64;

/// Point-in-time counters of a running (or finished) ingest server.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections closed by policy (slow consumer, oversize, garbage).
    pub evicted: u64,
    /// Wire frames received.
    pub frames: u64,
    /// Reports decoded and handed to flush workers.
    pub reports: u64,
    /// Commits the flush workers made (one store append and one server
    /// lock each): a take from an inbox is everything it held, committed
    /// in slices of at most `COMMIT_SLICE_BYTES` of frames (one frame at
    /// least).
    pub batches: u64,
    /// Numeric samples appended to the store.
    pub samples: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Arrivals (decoded reports and frames that failed to decode) the
    /// flush workers committed.
    pub committed: u64,
    /// Arrivals a dead flush worker left uncommitted: its inbox and the
    /// rest of the take it died in. Counted by [`IngestServer::stop`];
    /// zero while the server runs.
    pub stranded: u64,
    /// Times a lane's inbox reached its cap and its connections were
    /// paused.
    pub backpressure_trips: u64,
    /// Wire payload bytes received.
    pub bytes: u64,
    /// `CWQ1` query frames received on the ingest plane.
    pub queries: u64,
    /// Query requests or query clients shed (executor admission control
    /// or fd budget) — each one also leaves an audit row.
    pub queries_shed: u64,
}

/// Latency summary over ingest flushes (readiness read → store
/// visible), microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestLatency {
    /// Flushed reports measured.
    pub count: usize,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

const LATENCY_RESERVOIR: usize = 200_000;

/// The newest `cap` flush latencies: a ring indexed by the running
/// count of reports measured, so a long-lived server's summary tracks
/// its recent behaviour rather than its first minutes.
struct LatencyRing {
    cap: usize,
    seen: u64,
    us: Vec<u64>,
}

impl Default for LatencyRing {
    fn default() -> Self {
        LatencyRing::new(LATENCY_RESERVOIR)
    }
}

impl LatencyRing {
    fn new(cap: usize) -> LatencyRing {
        LatencyRing {
            cap,
            seen: 0,
            us: Vec::new(),
        }
    }

    fn push(&mut self, us: u64) {
        if self.us.len() < self.cap {
            self.us.push(us);
        } else {
            self.us[(self.seen % self.cap as u64) as usize] = us;
        }
        self.seen += 1;
    }

    fn summary(&self) -> IngestLatency {
        if self.us.is_empty() {
            return IngestLatency::default();
        }
        let mut sorted: Vec<f64> = self.us.iter().map(|&v| v as f64).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        IngestLatency {
            count: sorted.len(),
            p50_us: cwx_util::stats::percentile_sorted(&sorted, 0.50),
            p99_us: cwx_util::stats::percentile_sorted(&sorted, 0.99),
            max_us: *sorted.last().expect("checked non-empty above"),
        }
    }
}

#[derive(Default)]
struct Shared {
    drain: AtomicBool,
    accepted: AtomicU64,
    active: AtomicU64,
    evicted: AtomicU64,
    frames: AtomicU64,
    reports: AtomicU64,
    batches: AtomicU64,
    samples: AtomicU64,
    decode_errors: AtomicU64,
    committed: AtomicU64,
    backpressure_trips: AtomicU64,
    bytes: AtomicU64,
    queries: AtomicU64,
    queries_shed: AtomicU64,
    latencies_us: Mutex<LatencyRing>,
}

impl Shared {
    fn snapshot(&self) -> IngestStats {
        IngestStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            reports: self.reports.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            stranded: 0,
            backpressure_trips: self.backpressure_trips.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
        }
    }
}

/// Arrivals a lane's connections delivered, and the bytes their frames
/// took on the wire (length prefixes included): what the lane cap counts.
#[derive(Default)]
struct Batch {
    arrivals: Vec<Arrival>,
    bytes: usize,
}

/// What an [`Inbox`]'s mutex guards.
#[derive(Default)]
struct InboxState {
    /// Handed over by the reactor, not yet taken by the worker.
    batch: Batch,
    /// Arrivals of the worker's current take not yet landed: what a
    /// worker that dies mid-commit leaves besides its inbox.
    in_flight: usize,
    /// The worker waits for arrivals: a hand-over must notify it.
    worker_waiting: bool,
    /// The reactor side is gone: the worker takes what is left, then
    /// exits.
    closed: bool,
    /// When the worker last landed a commit: a paused lane whose worker
    /// lands nothing for `evict_pause` is stalled, not merely slow.
    landed: Option<Instant>,
}

/// One lane's mailbox between the reactor and its flush worker.
#[derive(Default)]
struct Inbox {
    state: std::sync::Mutex<InboxState>,
    ready: Condvar,
}

impl Inbox {
    /// The state, even if a thread panicked holding the lock: every
    /// update under it is a plain field write, so it is never torn.
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reactor side: append `batch` (leaving it empty) and notify a
    /// waiting worker. Returns the bytes buffered when this hand-over
    /// took the inbox to [`LANE_CAP_BYTES`] — once per episode, until a
    /// take empties it.
    fn put(&self, batch: &mut Batch) -> Option<usize> {
        let mut st = self.lock();
        let below = st.batch.bytes < LANE_CAP_BYTES;
        st.batch.arrivals.append(&mut batch.arrivals);
        st.batch.bytes += mem::take(&mut batch.bytes);
        let tripped = (below && st.batch.bytes >= LANE_CAP_BYTES).then_some(st.batch.bytes);
        // notified after the unlock, so the worker does not wake into it
        let notify = mem::take(&mut st.worker_waiting);
        drop(st);
        if notify {
            self.ready.notify_one();
        }
        tripped
    }

    /// Worker side: everything buffered, waiting until `until` for a
    /// first arrival (an empty batch if none came), or `None` once the
    /// inbox is closed and empty. The flag is true when the inbox was at
    /// its cap, so the reactor paused the lane and must be woken to
    /// resume it.
    fn take(&self, until: Instant) -> Option<(Batch, bool)> {
        let mut st = self.lock();
        while st.batch.arrivals.is_empty() && !st.closed {
            let Some(wait) = until.checked_duration_since(Instant::now()) else {
                return Some((Batch::default(), false));
            };
            st.worker_waiting = true;
            st = self
                .ready
                .wait_timeout(st, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.worker_waiting = false;
        }
        if st.batch.arrivals.is_empty() {
            return None;
        }
        st.in_flight = st.batch.arrivals.len();
        let wake = st.batch.bytes >= LANE_CAP_BYTES;
        Some((mem::take(&mut st.batch), wake))
    }

    /// Worker side: `n` arrivals of the current take landed.
    fn landed(&self, n: usize) {
        let mut st = self.lock();
        st.landed = Some(Instant::now());
        st.in_flight -= n;
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Reactor side: the worker has landed nothing for `bound` (or ever).
    fn stalled_for(&self, bound: Duration) -> bool {
        self.lock().landed.is_none_or(|t| t.elapsed() >= bound)
    }
}

/// How often a flush worker runs the server's liveness scan and
/// notifier flush — with reports arriving or not.
const HOUSEKEEPING_EVERY: Duration = Duration::from_millis(250);

/// Most frame bytes one commit carries (one frame at least; ~60
/// eight-key reports). A take is everything the inbox held, up to a
/// cap's worth behind a slow store; committed a slice at a time, it
/// shows the reactor progress at this grain, so a slow store is not
/// evicted as a stalled one.
const COMMIT_SLICE_BYTES: usize = 6 << 10;

/// One lane's flush worker: each take from the inbox goes through
/// [`commit`] in slices of at most [`COMMIT_SLICE_BYTES`] — the store
/// append outside the server lock, then the lock once for events and
/// liveness — and each landed slice stamps the inbox. A decoded
/// report's flush latency runs from its readiness read
/// ([`Arrival::recv`]) to its slice landing. The worker also wakes on
/// its own every [`HOUSEKEEPING_EVERY`] to run the server's
/// housekeeping, so a fleet that falls silent is still marked
/// unreachable and due mail still goes out.
fn flusher_loop(
    inbox: Arc<Inbox>,
    server: Arc<RwLock<Server>>,
    store: Arc<dyn Store>,
    shared: Arc<Shared>,
    waker: Waker,
    epoch: Instant,
) {
    let mut housekeeping_due = Instant::now();
    while let Some((batch, wake)) = inbox.take(housekeeping_due) {
        if wake {
            waker.wake();
        }
        let mut arrivals = &batch.arrivals[..];
        while !arrivals.is_empty() {
            let mut n = 0;
            let over = arrivals.iter().position(|a| {
                n += a.wire + LEN_PREFIX;
                n > COMMIT_SLICE_BYTES
            });
            let (slice, rest) = arrivals.split_at(over.unwrap_or(arrivals.len()).max(1));
            let samples = commit(&*store, slice, || server.write()) as u64;
            let done = wall_since(epoch);
            inbox.landed(slice.len());
            let mut lat = shared.latencies_us.lock();
            let mut reports = 0;
            for a in slice.iter().filter(|a| a.report.is_ok()) {
                lat.push((done - a.recv).as_nanos() / 1_000);
                reports += 1;
            }
            shared.reports.fetch_add(reports, Ordering::Relaxed);
            shared
                .committed
                .fetch_add(slice.len() as u64, Ordering::Relaxed);
            shared.samples.fetch_add(samples, Ordering::Relaxed);
            shared.batches.fetch_add(1, Ordering::Relaxed);
            arrivals = rest;
        }
        if Instant::now() >= housekeeping_due {
            server.write().housekeeping(wall_since(epoch));
            housekeeping_due = Instant::now() + HOUSEKEEPING_EVERY;
        }
    }
}

/// A running ingest listener plus its flush workers.
pub struct IngestServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    waker: Waker,
    query: Option<Arc<QueryExecutor>>,
    control: Arc<Mutex<ControlPlane>>,
    epoch: Instant,
    front: Option<std::thread::JoinHandle<()>>,
    /// Each lane's inbox and flush worker.
    flushers: Vec<(Arc<Inbox>, std::thread::JoinHandle<()>)>,
}

impl IngestServer {
    /// Bind the listener and start the front end and flush workers.
    ///
    /// Lanes write to `store` when one is given — which also enables the
    /// `CWQ1` query endpoint — and otherwise to the server's own history.
    pub fn start(
        cfg: IngestConfig,
        server: Arc<RwLock<Server>>,
        store: Option<Arc<DiskStore>>,
        control: Arc<Mutex<ControlPlane>>,
        epoch: Instant,
    ) -> io::Result<IngestServer> {
        let limits = ConnLimits {
            max_frame: cfg.max_frame,
            max_write_buffer: 1 << 20,
        };
        // a deep backlog rides out cluster-wide reconnect storms (no SYN drops)
        let conns = ConnTable::bind(&cfg.listen, 4096, limits)?;
        let addr = conns.local_addr()?;
        let waker = conns.waker().clone();
        let shared = Arc::new(Shared::default());
        let target: Arc<dyn Store> = match &store {
            Some(s) => Arc::clone(s) as Arc<dyn Store>,
            None => Arc::clone(server.read().history()),
        };

        let n_lanes = cfg.n_lanes.max(1);
        let mut lanes = Vec::with_capacity(n_lanes);
        let mut flushers = Vec::with_capacity(n_lanes);
        for _ in 0..n_lanes {
            let lane = Lane::default();
            let (inbox, server) = (Arc::clone(&lane.inbox), Arc::clone(&server));
            let (store, shared, waker) = (Arc::clone(&target), Arc::clone(&shared), waker.clone());
            let worker = std::thread::spawn(move || {
                flusher_loop(inbox, server, store, shared, waker, epoch)
            });
            flushers.push((Arc::clone(&lane.inbox), worker));
            lanes.push(lane);
        }

        // query endpoint: over a durable store only
        let query = store.is_some().then(|| {
            Arc::new(QueryExecutor::new(
                Arc::clone(&target),
                QueryLimits::default(),
            ))
        });

        // fd budget: the soft RLIMIT_NOFILE minus headroom for the
        // listener, waker, epoll, WAL/segment files and stdio
        let conn_budget = cfg.conn_budget.unwrap_or_else(|| {
            cwx_net::reactor::raise_nofile_limit()
                .map(|(soft, _)| (soft as usize).saturating_sub(256).max(64))
                .unwrap_or(usize::MAX)
        });
        let mut reactor = Reactor {
            cfg,
            conns,
            lanes,
            control: Arc::clone(&control),
            shared: Arc::clone(&shared),
            epoch,
            drain_seen: None,
            query: query.clone(),
            replies: Arc::new(Mutex::new(Vec::new())),
            conn_budget,
        };
        let front = std::thread::spawn(move || reactor.run());

        Ok(IngestServer {
            addr,
            shared,
            waker,
            query,
            control,
            epoch,
            front: Some(front),
            flushers,
        })
    }

    /// Query-executor counters, when the `CWQ1` endpoint is enabled.
    pub fn query_stats(&self) -> Option<ExecutorStats> {
        self.query.as_ref().map(|q| q.stats())
    }

    /// The bound address agents connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> IngestStats {
        self.shared.snapshot()
    }

    /// Flush-latency percentiles over the newest `LATENCY_RESERVOIR`
    /// reports.
    pub fn latency(&self) -> IngestLatency {
        self.shared.latencies_us.lock().summary()
    }

    /// Drain and stop: existing connections are read to EOF (with a
    /// deadline), the workers commit what their inboxes hold, and every
    /// thread joins. Returns the final counters.
    ///
    /// A thread that panicked leaves an
    /// [`AuditEntry::IoError`](crate::actions::AuditEntry::IoError) row —
    /// for a flush worker, naming its lane and the arrivals it left
    /// uncommitted ([`IngestStats::stranded`]). So does a ledger that
    /// does not balance: every frame read must be a query, a committed
    /// arrival or a stranded one.
    pub fn stop(mut self) -> IngestStats {
        self.shared.drain.store(true, Ordering::SeqCst);
        self.waker.wake();
        let audit = |what: String| {
            let now = wall_since(self.epoch);
            self.control.lock().audit_io_error(now, None, what);
        };
        if self.front.take().is_some_and(|f| f.join().is_err()) {
            audit("ingest reactor panicked".to_string());
        }
        let mut stranded = 0;
        for (lane, (inbox, worker)) in self.flushers.drain(..).enumerate() {
            if worker.join().is_err() {
                let st = inbox.lock();
                let left = st.batch.arrivals.len() + st.in_flight;
                let bytes = st.batch.bytes;
                audit(format!(
                    "flush worker for lane {lane} panicked; {left} arrival(s) left \
                     uncommitted, {bytes} B in its inbox"
                ));
                stranded += left as u64;
            }
        }
        let stats = IngestStats {
            stranded,
            ..self.shared.snapshot()
        };
        let accounted = stats.queries + stats.committed + stats.stranded;
        if stats.frames != accounted {
            audit(format!(
                "ingest ledger does not balance: {} frames read, {} queries + {} \
                 committed + {} stranded = {accounted}",
                stats.frames, stats.queries, stats.committed, stats.stranded
            ));
        }
        stats
    }

    /// [`IngestServer::stop`], returning the reports ingested.
    pub fn shutdown(self) -> u64 {
        self.stop().reports
    }
}

// ---------------------------------------------------------------------
// CWQ1 query wire protocol
//
// Dashboard clients share the ingest front door: any frame whose body
// starts with `CWQ1 ` is a query request, everything else is a `CWB1`
// report. Requests and replies are plain UTF-8 so any client (and the
// E17 bench driver) can speak it without the report codec:
//
//   CWQ1 <monitor> <agg> <from_ns> <to_ns> <window_ns> <groups> [max_scan]
//     groups := key:n1,n2,...[;key:...]
//   CWQR OK tier=<raw|10s|5m|1h> raw=<scanned> buckets=<scanned>
//   <group>,<window_start_ns>,<value>,<count>     (one line per point)
//   CWQR ERR <reason>

/// Human name of a resolution tier on the wire.
fn tier_name(r: Resolution) -> &'static str {
    match r {
        Resolution::Raw => "raw",
        Resolution::TenSeconds => "10s",
        Resolution::FiveMinutes => "5m",
        Resolution::OneHour => "1h",
    }
}

/// Encode a query spec as one `CWQ1` frame body.
pub fn encode_query(spec: &QuerySpec) -> Vec<u8> {
    let group = |g: &QueryGroup| {
        let nodes: Vec<String> = g.nodes.iter().map(u32::to_string).collect();
        format!("{}:{}", g.key, nodes.join(","))
    };
    let groups: Vec<String> = spec.groups.iter().map(group).collect();
    format!(
        "CWQ1 {} {} {} {} {} {} {}",
        spec.monitor,
        spec.agg.name(),
        spec.from.as_nanos(),
        spec.to.as_nanos(),
        spec.window_nanos,
        groups.join(";"),
        spec.max_scan,
    )
    .into_bytes()
}

/// Parse one `CWQ1` frame body into a query spec.
pub fn parse_query(frame: &[u8]) -> Result<QuerySpec, String> {
    let text = std::str::from_utf8(frame).map_err(|_| "request is not UTF-8".to_string())?;
    let mut it = text.split_ascii_whitespace();
    if it.next() != Some("CWQ1") {
        return Err("missing CWQ1 tag".into());
    }
    let monitor = it.next().ok_or("missing monitor")?.to_string();
    let agg_s = it.next().ok_or("missing aggregation")?;
    let agg = AggFunc::parse(agg_s).ok_or_else(|| format!("unknown aggregation {agg_s:?}"))?;
    let num = |field: &'static str, v: Option<&str>| -> Result<u64, String> {
        v.ok_or_else(|| format!("missing {field}"))?
            .parse::<u64>()
            .map_err(|_| format!("bad {field}"))
    };
    let from = num("from", it.next())?;
    let to = num("to", it.next())?;
    let window = num("window", it.next())?;
    let mut groups = Vec::new();
    for part in it.next().ok_or("missing groups")?.split(';') {
        let (key, nodes_s) = part.split_once(':').ok_or("group missing ':'")?;
        let mut nodes = Vec::new();
        for n in nodes_s.split(',').filter(|s| !s.is_empty()) {
            nodes.push(n.parse::<u32>().map_err(|_| format!("bad node {n:?}"))?);
        }
        groups.push(QueryGroup {
            key: key.to_string(),
            nodes,
        });
    }
    let max_scan = it.next().map_or(Ok(0), |v| num("max_scan", Some(v)))?;
    Ok(QuerySpec {
        monitor,
        from: SimTime::from_nanos(from),
        to: SimTime::from_nanos(to),
        window_nanos: window,
        agg,
        groups,
        max_scan,
    })
}

/// Encode the executor's answer as one `CWQR` frame body.
fn encode_reply(res: &Result<QueryResult, QueryError>) -> Vec<u8> {
    match res {
        Ok(r) => {
            let mut out = format!(
                "CWQR OK tier={} raw={} buckets={}",
                tier_name(r.stats.tier),
                r.stats.scanned_raw,
                r.stats.scanned_buckets
            );
            for g in &r.groups {
                for p in &g.points {
                    let (start, value, count) = (p.start.as_nanos(), p.value, p.count);
                    let _ = write!(out, "\n{},{start},{value},{count}", g.key);
                }
            }
            out.into_bytes()
        }
        Err(e) => format!("CWQR ERR {e}").into_bytes(),
    }
}

/// A decoded `CWQR` reply (dashboard clients and the E17 bench).
#[derive(Debug, Clone, Default)]
pub struct QueryReply {
    /// Tier the answer was served from (`raw`, `10s`, `5m`, `1h`).
    pub tier: String,
    /// Raw samples scanned.
    pub scanned_raw: u64,
    /// Pre-aggregated buckets scanned.
    pub scanned_buckets: u64,
    /// `(group, window_start_ns, value, count)` rows.
    pub points: Vec<(String, u64, f64, u64)>,
}

/// The next field of a `CWQR` row, parsed.
fn row_field<'a, T: std::str::FromStr>(
    f: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    let field = f.next().ok_or("short row")?;
    field.parse().map_err(|_| format!("bad {what}"))
}

/// Parse one `CWQR` frame body; a server-side error comes back as `Err`.
pub fn parse_reply(frame: &[u8]) -> Result<QueryReply, String> {
    let text = std::str::from_utf8(frame).map_err(|_| "reply is not UTF-8".to_string())?;
    let mut lines = text.lines();
    let head = lines.next().ok_or("empty reply")?;
    if let Some(err) = head.strip_prefix("CWQR ERR ") {
        return Err(err.to_string());
    }
    let rest = head.strip_prefix("CWQR OK ").ok_or("missing CWQR tag")?;
    let mut reply = QueryReply::default();
    for kv in rest.split_ascii_whitespace() {
        match kv.split_once('=') {
            Some(("tier", v)) => reply.tier = v.to_string(),
            Some(("raw", v)) => reply.scanned_raw = v.parse().map_err(|_| "bad raw=")?,
            Some(("buckets", v)) => {
                reply.scanned_buckets = v.parse().map_err(|_| "bad buckets=")?
            }
            _ => {}
        }
    }
    for line in lines {
        // from the right: a group key may itself hold commas, the
        // three numeric fields never do
        let mut f = line.rsplitn(4, ',');
        let count = row_field(&mut f, "count")?;
        let value = row_field(&mut f, "value")?;
        let start = row_field(&mut f, "start")?;
        let key = f.next().ok_or("short row")?.to_string();
        reply.points.push((key, start, value, count));
    }
    Ok(reply)
}

// ---------------------------------------------------------------------
// Reactor front end

/// How long after drain begins that still-open connections are closed
/// forcibly.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Poll timeout while connections are paused or the plane drains:
/// bounds the eviction check and the drain deadline.
const BUSY_TICK: Duration = Duration::from_millis(20);

/// Poll timeout with nothing pending.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// What the reactor keeps per connection (agent or query client).
#[derive(Default)]
struct Peer {
    decoder: WireDecoder,
    /// The agent node, learned from its first decoded report.
    node: Option<u32>,
    /// The lane that node routes to (pause/resume granularity).
    lane: Option<usize>,
    decode_errors: u64,
    /// The first delta the decoder refused as desynced: the connection
    /// is evicted, and its agent reconnects with a reset frame.
    desynced: Option<WireError>,
}

type Conn = cwx_net::conns::Conn<Peer>;

/// A finished query answer on its way back to a connection.
struct Reply {
    id: ConnId,
    body: Vec<u8>,
}

/// The reactor's end of a lane.
#[derive(Default)]
struct Lane {
    inbox: Arc<Inbox>,
    /// What the connection being read delivered to this lane; handed
    /// over once its frames are read.
    staged: Batch,
    /// The inbox reached its cap and the lane's connections are paused.
    paused: bool,
}

impl Drop for Lane {
    /// A reactor that exits by any path releases its workers.
    fn drop(&mut self) {
        self.inbox.close();
    }
}

struct Reactor {
    cfg: IngestConfig,
    conns: ConnTable<Peer>,
    lanes: Vec<Lane>,
    control: Arc<Mutex<ControlPlane>>,
    shared: Arc<Shared>,
    epoch: Instant,
    drain_seen: Option<Instant>,
    /// `CWQ1` query endpoint (present when backed by a disk store).
    query: Option<Arc<QueryExecutor>>,
    /// Answers pushed by executor workers, delivered on the next wake.
    replies: Arc<Mutex<Vec<Reply>>>,
    /// Most connections held at once (fd budget).
    conn_budget: usize,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            let busy = self.conns.paused() > 0 || self.drain_seen.is_some();
            let timeout = if busy { BUSY_TICK } else { IDLE_TICK };
            let (shared, control, budget) = (&self.shared, &self.control, self.conn_budget);
            let epoch = self.epoch;
            let polled = self.conns.poll(&mut events, timeout, |active| {
                if active >= budget {
                    // fd budget exhausted: shed the new client with an
                    // audit row — never a silent clamp
                    shared.queries_shed.fetch_add(1, Ordering::Relaxed);
                    shared.evicted.fetch_add(1, Ordering::Relaxed);
                    control.lock().audit_query_shed(
                        wall_since(epoch),
                        format!(
                            "fd budget exhausted: {active} active connections at \
                             budget {budget}; shedding new client"
                        ),
                    );
                    return None;
                }
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                shared.active.fetch_add(1, Ordering::Relaxed);
                Some(Peer::default())
            });
            if polled.is_err() {
                break;
            }
            // finished answers and emptied lanes go before this pass's reads
            self.deliver_replies();
            self.resume_lanes();
            for &ev in &events {
                self.conn_ready(ev);
            }
            if self.conns.paused() > 0 {
                self.evict_overdue();
            }
            if self.drain_tick() {
                break;
            }
        }
    }

    /// Drain bookkeeping; true when the reactor should exit. A paused
    /// connection has no read interest, so the reactor never sees its
    /// EOF: its lane resumes once under its cap ([`Reactor::resume_lanes`],
    /// every pass), and a connection still open at [`DRAIN_DEADLINE`] is
    /// evicted with its row, never closed in silence.
    fn drain_tick(&mut self) -> bool {
        if !self.shared.drain.load(Ordering::SeqCst) {
            return false;
        }
        let seen = *self.drain_seen.get_or_insert_with(|| {
            // stop accepting; existing conns get read to EOF
            self.conns.stop_accepting();
            Instant::now()
        });
        if self.conns.open() == 0 {
            return true;
        }
        if seen.elapsed() >= DRAIN_DEADLINE {
            for conn in self.conns.take_all(|_| true) {
                let lane = conn
                    .state
                    .lane
                    .map_or("no lane".into(), |l| format!("lane {l}"));
                self.evict(conn, &format!("drain deadline: {lane} still open"));
            }
            return true;
        }
        false
    }

    fn conn_ready(&mut self, ev: ConnEvent) {
        let Some(mut conn) = self.conns.take(ev.id) else {
            return;
        };
        if conn.paused_since().is_some() {
            // stale event raced a pause; ignore until resumed
            return self.conns.restore(conn);
        }
        if ev.writable {
            // a queued query reply the socket previously refused
            if let Err(e) = conn.fc.flush() {
                return self.evict(conn, &format!("{e}"));
            }
        }
        let mut queries: Vec<Vec<u8>> = Vec::new();
        let outcome = if ev.readable {
            self.read_conn(&mut conn, &mut queries)
        } else {
            Ok(ReadState::Drained)
        };
        let outcome = queries
            .iter()
            .try_for_each(|frame| self.handle_query(&mut conn, frame))
            .and(outcome);
        match outcome {
            // level-triggered poller re-fires on leftover data
            Ok(ReadState::Drained | ReadState::HasMore) => self.conns.restore(conn),
            Ok(ReadState::Eof) => self.drop_conn(conn),
            Err(e) => self.evict(conn, &format!("{e}")),
        }
        self.hand_over();
    }

    /// Pull frames off one connection into the lanes' staged batches. `CWQ1`
    /// query frames are set aside for [`Reactor::handle_query`] (the
    /// closure below cannot reach the executor while it borrows the
    /// lanes).
    fn read_conn(
        &mut self,
        conn: &mut Conn,
        queries: &mut Vec<Vec<u8>>,
    ) -> Result<ReadState, ConnError> {
        let now = wall_since(self.epoch);
        let peer = &mut conn.state;
        let lanes = &mut self.lanes;
        let shared = &self.shared;
        let nodes_per_group = self.cfg.nodes_per_group.max(1);
        let n_lanes = lanes.len();
        let state = conn.fc.read_frames(|frame| {
            shared.frames.fetch_add(1, Ordering::Relaxed);
            shared
                .bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
            if frame.starts_with(b"CWQ1 ") {
                shared.queries.fetch_add(1, Ordering::Relaxed);
                queries.push(frame.to_vec());
                return;
            }
            let report = peer.decoder.decode_auto(frame);
            let node = match &report {
                Ok(report) => Some(report.node),
                Err(e) => e.refused_node(),
            };
            if let Some(node) = node {
                peer.node = Some(node);
                peer.lane = Some((node / nodes_per_group) as usize % n_lanes);
            }
            match &report {
                Err(e @ WireError::Desynced { .. }) => {
                    peer.desynced.get_or_insert_with(|| e.clone());
                }
                Err(e) if e.refused_node().is_none() => {
                    shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                    peer.decode_errors += 1;
                }
                _ => {}
            }
            let staged = &mut lanes[peer.lane.unwrap_or(0)].staged;
            staged.bytes += frame.len() + LEN_PREFIX;
            staged.arrivals.push(Arrival {
                recv: now,
                wire: frame.len(),
                report,
            });
        })?;
        if conn.state.decode_errors > MAX_DECODE_ERRORS {
            return Err(ConnError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "garbage flood: too many undecodable frames",
            )));
        }
        // TCP neither loses nor repeats: a gap means the agent dropped a
        // report, and only a new connection's reset frame repairs it
        if let Some(e) = &conn.state.desynced {
            return Err(ConnError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("desynced: {e}"),
            )));
        }
        Ok(state)
    }

    /// Admit one `CWQ1` request: parse, submit to the executor, and
    /// answer refusals immediately on the connection. A shed request is
    /// counted and audited — the client and the operator both see it.
    fn handle_query(&mut self, conn: &mut Conn, frame: &[u8]) -> Result<(), ConnError> {
        let Some(exec) = self.query.clone() else {
            return conn
                .fc
                .queue_frame(b"CWQR ERR query endpoint disabled (no durable store)");
        };
        let spec = match parse_query(frame) {
            Ok(spec) => spec,
            Err(msg) => {
                return conn
                    .fc
                    .queue_frame(format!("CWQR ERR bad request: {msg}").as_bytes());
            }
        };
        let replies = Arc::clone(&self.replies);
        let waker = self.conns.waker().clone();
        let id = conn.id();
        let submitted = exec.try_submit(spec, move |res| {
            replies.lock().push(Reply {
                id,
                body: encode_reply(&res),
            });
            waker.wake();
        });
        match submitted {
            Ok(()) => Ok(()),
            Err(e @ QueryError::Overloaded { .. }) => {
                self.shared.queries_shed.fetch_add(1, Ordering::Relaxed);
                self.control.lock().audit_query_shed(
                    wall_since(self.epoch),
                    format!("query executor overloaded: {e}"),
                );
                conn.fc
                    .queue_frame(format!("CWQR ERR shed: {e}").as_bytes())
            }
            Err(e) => conn.fc.queue_frame(format!("CWQR ERR {e}").as_bytes()),
        }
    }

    /// Deliver answers the executor workers finished since the last
    /// wake. A reply for a closed connection (whose slot may serve a
    /// new one by now) is dropped; a reply that overflows the send
    /// queue evicts the slow dashboard client.
    fn deliver_replies(&mut self) {
        let pending: Vec<Reply> = mem::take(&mut *self.replies.lock());
        for r in pending {
            let Some(mut conn) = self.conns.take(r.id) else {
                continue; // connection gone; the answer has no home
            };
            match conn.fc.queue_frame(&r.body) {
                Ok(()) => self.conns.restore(conn),
                Err(e) => self.evict(conn, &format!("query reply undeliverable: {e}")),
            }
        }
    }

    /// Hand each lane's staged arrivals to its inbox. A hand-over that
    /// takes an inbox to its cap trips backpressure: the lane's
    /// connections pause until the worker's next take empties it. One
    /// that feeds a paused lane — from an agent that joined or
    /// reconnected since — pauses its connection too.
    fn hand_over(&mut self) {
        for l in 0..self.lanes.len() {
            let lane = &mut self.lanes[l];
            if lane.staged.arrivals.is_empty() {
                continue;
            }
            if let Some(bytes) = lane.inbox.put(&mut lane.staged) {
                lane.paused = true;
                self.shared
                    .backpressure_trips
                    .fetch_add(1, Ordering::Relaxed);
                self.control
                    .lock()
                    .audit_ingest_backpressure(wall_since(self.epoch), l, bytes);
            }
            if self.lanes[l].paused {
                self.conns.set_paused(true, |p| p.lane == Some(l));
            }
        }
    }

    /// Resume the connections of every paused lane whose inbox is back
    /// under its cap (a take has emptied it since).
    fn resume_lanes(&mut self) {
        for l in 0..self.lanes.len() {
            let lane = &mut self.lanes[l];
            if lane.paused && lane.inbox.lock().batch.bytes < LANE_CAP_BYTES {
                lane.paused = false;
                self.conns.set_paused(false, |p| p.lane == Some(l));
            }
        }
    }

    /// Evict connections that sat paused past the bound on a lane whose
    /// worker landed nothing for as long: a stalled store or a dead
    /// worker must shed its sources, not stall the fleet. A slow store
    /// that still lands slices keeps its connections, paused.
    fn evict_overdue(&mut self) {
        let bound = self.cfg.evict_pause;
        let stalled: Vec<bool> = self
            .lanes
            .iter()
            .map(|l| l.inbox.stalled_for(bound))
            .collect();
        let overdue = self.conns.take_all(|c| {
            c.paused_since().is_some_and(|t| t.elapsed() >= bound)
                && stalled[c.state.lane.unwrap_or(0)]
        });
        for conn in overdue {
            let lane = conn.state.lane.unwrap_or(0);
            let reason = format!("slow consumer: lane {lane} backpressured past bound");
            self.evict(conn, &reason);
        }
    }

    fn evict(&mut self, conn: Conn, reason: &str) {
        self.shared.evicted.fetch_add(1, Ordering::Relaxed);
        self.control.lock().audit_connection_evicted(
            wall_since(self.epoch),
            conn.state.node,
            reason,
        );
        self.drop_conn(conn);
    }

    fn drop_conn(&mut self, conn: Conn) {
        self.conns.close(conn);
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Load driver (benchmarks, smoke tests, `cwx ingest drive`)

/// Traffic shape for [`drive`]: `conns` concurrent agent connections
/// multiplexed over a few writer threads, each sending `frames_per_conn`
/// scripted `CWB1` reports at `interval` pacing.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Ingest server address.
    pub addr: String,
    /// Concurrent connections to hold open; connection `i` reports as
    /// node `i`.
    pub conns: usize,
    /// Frames each connection sends.
    pub frames_per_conn: u64,
    /// Pacing between a connection's frames.
    pub interval: Duration,
    /// OS threads multiplexing the connections.
    pub writer_threads: usize,
    /// Numeric monitor keys per report.
    pub keys: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            conns: 100,
            frames_per_conn: 10,
            interval: Duration::from_millis(100),
            writer_threads: 4,
            keys: 8,
        }
    }
}

/// What [`drive`] accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    /// Connections successfully established.
    pub connected: u64,
    /// Frames fully written.
    pub frames_sent: u64,
    /// Expected numeric samples those frames carried.
    pub samples_sent: u64,
    /// Wire payload bytes written (excluding length prefixes).
    pub bytes_sent: u64,
    /// Connections lost to write errors (e.g. server eviction).
    pub write_errors: u64,
}

/// The deterministic report connection `node` sends as its `seq`-th
/// frame. Times and values are scripted, so a server fed a
/// `LoadConfig` must hold exactly these reports' samples — the ingest
/// tests' oracle.
pub fn scripted_report(node: u32, seq: u64, interval: Duration, keys: usize) -> Report {
    use cwx_monitor::monitor::MonitorKey;
    let values = (0..keys)
        .map(|k| {
            (
                MonitorKey::new(format!("bench.m{k}")),
                Value::Num(node as f64 * 0.001 + seq as f64 + k as f64 * 0.5),
            )
        })
        .collect();
    Report {
        node,
        seq,
        time_secs: (seq + 1) as f64 * interval.as_secs_f64(),
        values,
    }
}

/// Open `cfg.conns` connections and pump scripted traffic through
/// them. Blocking writes: a backpressured server slows the driver via
/// the TCP window rather than ballooning driver memory.
pub fn drive(cfg: LoadConfig) -> io::Result<LoadStats> {
    use cwx_monitor::transmit::WireEncoder;
    let n_threads = cfg.writer_threads.clamp(1, cfg.conns.max(1));
    let per = cfg.conns.div_ceil(n_threads);
    let mut handles = Vec::new();
    for t in 0..n_threads {
        let lo = t * per;
        let hi = ((t + 1) * per).min(cfg.conns);
        if lo >= hi {
            break;
        }
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let mut stats = LoadStats::default();
            let mut conns = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                // a listener backlog can reject a burst of 10k SYNs;
                // retry with a small pause before giving up
                let stream = (0..=50).find_map(|attempt| {
                    if attempt > 0 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    TcpStream::connect(&cfg.addr).ok()
                });
                let Some(stream) = stream else {
                    stats.write_errors += 1;
                    continue;
                };
                let _ = stream.set_nodelay(true);
                stats.connected += 1;
                conns.push((stream, WireEncoder::new(), i as u32));
            }
            let mut payload = Vec::new();
            let mut frame = Vec::new();
            let started = Instant::now();
            for seq in 0..cfg.frames_per_conn {
                // a connection whose write fails (evicted, say) is lost
                conns.retain_mut(|(stream, encoder, node)| {
                    let report = scripted_report(*node, seq, cfg.interval, cfg.keys);
                    encoder.encode_into(&report, &mut payload);
                    frame.clear();
                    cwx_net::frame::put_frame(&mut frame, &payload);
                    let sent = io::Write::write_all(stream, &frame).is_ok();
                    if sent {
                        stats.frames_sent += 1;
                        stats.samples_sent += cfg.keys as u64;
                        stats.bytes_sent += payload.len() as u64;
                    } else {
                        stats.write_errors += 1;
                    }
                    sent
                });
                // round pacing: each connection averages one frame per
                // interval
                let due = cfg.interval * (seq + 1) as u32;
                if let Some(wait) = due.checked_sub(started.elapsed()) {
                    std::thread::sleep(wait);
                }
            }
            stats
        }));
    }
    let mut total = LoadStats::default();
    for stats in handles.into_iter().filter_map(|h| h.join().ok()) {
        total.connected += stats.connected;
        total.frames_sent += stats.frames_sent;
        total.samples_sent += stats.samples_sent;
        total.bytes_sent += stats.bytes_sent;
        total.write_errors += stats.write_errors;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_net::frame::FrameBuffer;
    use cwx_util::time::SimDuration;

    #[test]
    fn latency_summary_tracks_the_newest_reports() {
        let mut ring = LatencyRing::new(4);
        for us in [900, 900, 900, 900, 900, 10, 20, 30] {
            ring.push(us);
        }
        // 8 pushed past a cap of 4: four of the five 900s are gone
        let s = ring.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.max_us, 900.0);
        for us in [40, 50] {
            ring.push(us);
        }
        let s = ring.summary();
        assert_eq!((s.count, s.max_us), (4, 50.0));
        assert_eq!(s.p50_us, 40.0);
    }

    /// A staged batch of `reports` decoded reports from `node`, seq
    /// numbers from `first`, each read off a `wire`-byte frame.
    fn staged(node: u32, first: u64, reports: u64, wire: usize) -> Batch {
        let mut batch = Batch::default();
        for seq in first..first + reports {
            let arrival = Arrival {
                recv: SimTime::ZERO,
                wire,
                report: Ok(scripted_report(node, seq, Duration::from_secs(1), 1)),
            };
            batch.bytes += wire + LEN_PREFIX;
            batch.arrivals.push(arrival);
        }
        batch
    }

    fn seqs(batch: &Batch) -> Vec<u64> {
        let seq = |a: &Arrival| a.report.as_ref().map(|r| r.seq).unwrap();
        batch.arrivals.iter().map(seq).collect()
    }

    #[test]
    fn arrivals_handed_over_during_a_commit_go_in_its_next_take_in_order() {
        let inbox = Arc::new(Inbox::default());
        let (committing, go) = (
            Arc::new(std::sync::Barrier::new(2)),
            Arc::new(std::sync::Barrier::new(2)),
        );
        let worker = {
            let (inbox, committing, go) = (inbox.clone(), committing.clone(), go.clone());
            std::thread::spawn(move || {
                let far = Instant::now() + Duration::from_secs(60);
                let (first, _) = inbox.take(far).unwrap();
                committing.wait();
                go.wait(); // "commit" until the reactor has handed more over
                let (second, _) = inbox.take(far).unwrap();
                (seqs(&first), seqs(&second), second.bytes)
            })
        };
        inbox.put(&mut staged(0, 0, 1, 96));
        committing.wait();
        for seq in 1..4 {
            let mut batch = staged(0, seq, 1, 96);
            assert_eq!(inbox.put(&mut batch), None);
            assert!(batch.arrivals.is_empty() && batch.bytes == 0);
        }
        go.wait();
        let (first, second, bytes) = worker.join().unwrap();
        assert_eq!(first, vec![0]);
        assert_eq!(second, vec![1, 2, 3], "one take, in hand-over order");
        assert_eq!(bytes, 3 * 100, "each frame counts its length prefix");
        assert!(inbox.lock().batch.arrivals.is_empty());
    }

    #[test]
    fn the_cap_reports_full_once_per_episode_and_a_take_lifts_it() {
        let inbox = Inbox::default();
        let now = Instant::now();
        // a frame that takes half the cap on the wire
        let half = LANE_CAP_BYTES / 2 - LEN_PREFIX;
        assert_eq!(inbox.put(&mut staged(0, 0, 1, half)), None);
        assert!(inbox.lock().batch.bytes < LANE_CAP_BYTES);
        assert_eq!(inbox.put(&mut staged(0, 1, 1, half)), Some(LANE_CAP_BYTES));
        assert!(inbox.lock().batch.bytes >= LANE_CAP_BYTES);
        assert_eq!(inbox.put(&mut staged(0, 2, 1, half)), None, "same episode");
        let (batch, wake) = inbox.take(now).unwrap();
        assert_eq!((seqs(&batch), wake), (vec![0, 1, 2], true));
        assert_eq!(inbox.lock().batch.bytes, 0, "the take emptied it");
        // below the cap, a take does not wake the reactor
        assert_eq!(inbox.put(&mut staged(0, 3, 1, half)), None);
        assert_eq!(
            inbox.take(now).map(|(b, w)| (seqs(&b), w)),
            Some((vec![3], false))
        );
        assert_eq!(
            inbox.put(&mut staged(0, 4, 2, half)),
            Some(LANE_CAP_BYTES),
            "a new episode"
        );
    }

    #[test]
    fn dropping_the_reactor_side_drains_the_worker_then_ends_it() {
        let lane = |inbox: &Arc<Inbox>| Lane {
            inbox: Arc::clone(inbox),
            staged: Batch::default(),
            paused: false,
        };
        let far = Instant::now() + Duration::from_secs(60);
        // left in the inbox: taken after the close, then the end
        let inbox = Arc::new(Inbox::default());
        let reactor_side = lane(&inbox);
        inbox.put(&mut staged(3, 0, 3, 96));
        drop(reactor_side);
        assert_eq!(inbox.take(far).map(|(b, _)| seqs(&b)), Some(vec![0, 1, 2]));
        assert!(inbox.take(far).is_none());
        // a worker already waiting is released by the close
        let inbox = Arc::new(Inbox::default());
        let reactor_side = lane(&inbox);
        let worker = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.take(far).is_none())
        };
        while !inbox.lock().worker_waiting {
            std::thread::yield_now();
        }
        drop(reactor_side);
        assert!(worker.join().unwrap(), "the worker saw the close");
    }

    fn harness(cfg_tweak: impl FnOnce(&mut IngestConfig)) -> TestRig {
        let control = Arc::new(Mutex::new(ControlPlane::new(64)));
        let server = Arc::new(RwLock::new(Server::new(
            "ingest-test",
            SimDuration::from_secs(5),
            4096,
            SimDuration::from_secs(30),
        )));
        let mut cfg = IngestConfig::default();
        cfg_tweak(&mut cfg);
        let ingest = IngestServer::start(
            cfg,
            Arc::clone(&server),
            None,
            Arc::clone(&control),
            Instant::now(),
        )
        .unwrap();
        TestRig {
            server,
            control,
            ingest,
        }
    }

    struct TestRig {
        server: Arc<RwLock<Server>>,
        control: Arc<Mutex<ControlPlane>>,
        ingest: IngestServer,
    }

    #[test]
    fn reactor_ingests_multiplexed_connections() {
        let rig = harness(|_| {});
        let stats = drive(LoadConfig {
            addr: rig.ingest.addr().to_string(),
            conns: 50,
            frames_per_conn: 5,
            interval: Duration::from_millis(10),
            ..LoadConfig::default()
        })
        .unwrap();
        assert_eq!(stats.connected, 50);
        assert_eq!(stats.frames_sent, 250);
        assert_eq!(stats.write_errors, 0);
        // drain: drive() closed its sockets; shutdown reads them to EOF
        let ingested = rig.ingest.shutdown();
        assert_eq!(ingested, 250);
        let srv = rig.server.read();
        assert_eq!(srv.stats().reports_rx, 250);
        assert_eq!(srv.stats().decode_errors, 0);
        assert!(rig.control.lock().audit().is_empty(), "no evictions");
    }

    #[test]
    fn garbage_flood_is_evicted_with_audit() {
        let rig = harness(|_| {});
        let mut s = TcpStream::connect(rig.ingest.addr()).unwrap();
        let mut wire = Vec::new();
        for _ in 0..2 * MAX_DECODE_ERRORS {
            cwx_net::frame::put_frame(&mut wire, b"CWB1 this is not a valid frame");
        }
        let _ = io::Write::write_all(&mut s, &wire);
        // server closes us; wait for the eviction to land
        let deadline = Instant::now() + Duration::from_secs(5);
        while rig.ingest.stats().evicted == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(rig.ingest.stats().evicted, 1);
        drop(s);
        rig.ingest.shutdown();
        let control = rig.control.lock();
        assert!(control.audit().iter().any(|r| matches!(
            &r.entry,
            crate::actions::AuditEntry::ConnectionEvicted { reason } if reason.contains("garbage")
        )));
    }

    fn send_frame(s: &mut TcpStream, body: &[u8]) {
        let mut wire = Vec::new();
        cwx_net::frame::put_frame(&mut wire, body);
        io::Write::write_all(s, &wire).unwrap();
    }

    fn read_frame(s: &mut TcpStream, frames: &mut FrameBuffer) -> Vec<u8> {
        loop {
            if let Some(frame) = frames.next_frame().unwrap() {
                return frame.to_vec();
            }
            assert!(frames.read_from(s).unwrap() > 0, "server closed");
        }
    }

    #[test]
    fn query_endpoint_answers_over_the_wire() {
        let dir = std::env::temp_dir().join(format!("cwx-ingest-query-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            Arc::new(DiskStore::open(&dir, cwx_store::disk::StoreConfig::default()).unwrap());
        for i in 0..100u64 {
            store.append(
                0,
                "cpu.load",
                SimTime::ZERO + SimDuration::from_secs(i),
                i as f64,
            );
        }
        let control = Arc::new(Mutex::new(ControlPlane::new(64)));
        let server = Arc::new(RwLock::new(Server::new(
            "ingest-query-test",
            SimDuration::from_secs(5),
            4096,
            SimDuration::from_secs(30),
        )));
        let ingest = IngestServer::start(
            IngestConfig::default(),
            server,
            Some(Arc::clone(&store)),
            Arc::clone(&control),
            Instant::now(),
        )
        .unwrap();

        let mut s = TcpStream::connect(ingest.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let spec = QuerySpec {
            monitor: "cpu.load".into(),
            from: SimTime::ZERO,
            to: SimTime::ZERO + SimDuration::from_secs(99),
            window_nanos: 10 * 1_000_000_000,
            agg: AggFunc::Avg,
            groups: vec![QueryGroup {
                key: "all".into(),
                nodes: vec![0],
            }],
            max_scan: 0,
        };
        let mut frames = FrameBuffer::new(1 << 20);
        send_frame(&mut s, &encode_query(&spec));
        let reply = parse_reply(&read_frame(&mut s, &mut frames)).unwrap();
        assert_eq!(reply.points.len(), 10);
        assert_eq!(reply.points[0].0, "all");
        assert_eq!(reply.points[0].3, 10);
        assert!((reply.points[0].2 - 4.5).abs() < 1e-9);

        // a bad request is answered, not dropped
        send_frame(&mut s, b"CWQ1 cpu.load frobnicate 0 1 1 all:0");
        let err = parse_reply(&read_frame(&mut s, &mut frames)).unwrap_err();
        assert!(err.contains("unknown aggregation"), "{err}");

        assert_eq!(ingest.stats().queries, 2);
        assert_eq!(ingest.query_stats().unwrap().completed, 1);
        drop(s);
        ingest.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fd_budget_sheds_new_clients_with_audit_row() {
        let rig = harness(|c| c.conn_budget = Some(2));
        let _s1 = TcpStream::connect(rig.ingest.addr()).unwrap();
        let _s2 = TcpStream::connect(rig.ingest.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while rig.ingest.stats().active < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rig.ingest.stats().active, 2);
        let _s3 = TcpStream::connect(rig.ingest.addr()).unwrap();
        while rig.ingest.stats().queries_shed == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rig.ingest.stats().queries_shed, 1, "third client shed");
        assert_eq!(rig.ingest.stats().active, 2, "budget holds");
        rig.ingest.shutdown();
        let control = rig.control.lock();
        assert!(
            control.audit().iter().any(|r| matches!(
                &r.entry,
                crate::actions::AuditEntry::QueryShed { reason } if reason.contains("fd budget")
            )),
            "shed client must leave an audit row"
        );
    }

    #[test]
    fn query_wire_protocol_round_trips() {
        let spec = QuerySpec {
            monitor: "mem.free".into(),
            from: SimTime::from_nanos(5),
            to: SimTime::from_nanos(7_000_000_000),
            window_nanos: 1_000_000_000,
            agg: AggFunc::P99,
            groups: vec![
                QueryGroup {
                    key: "rack0".into(),
                    nodes: vec![0, 1, 2],
                },
                QueryGroup {
                    key: "rack1".into(),
                    nodes: vec![10, 11],
                },
            ],
            max_scan: 1234,
        };
        let parsed = parse_query(&encode_query(&spec)).unwrap();
        assert_eq!(parsed.monitor, spec.monitor);
        assert_eq!(parsed.agg, spec.agg);
        assert_eq!(parsed.from, spec.from);
        assert_eq!(parsed.to, spec.to);
        assert_eq!(parsed.window_nanos, spec.window_nanos);
        assert_eq!(parsed.max_scan, spec.max_scan);
        assert_eq!(parsed.groups.len(), 2);
        assert_eq!(parsed.groups[1].nodes, vec![10, 11]);

        // a group key may hold a comma: `parse_query` takes it up to its
        // `:`, and the reply must hand it back whole
        let series = |key: &str, start, value| cwx_store::query::GroupSeries {
            key: key.into(),
            points: vec![cwx_store::query::AggPoint {
                start: SimTime::from_nanos(start),
                value,
                count: 3,
            }],
        };
        let result = QueryResult {
            groups: vec![series("rack0", 0, 1.5), series("a,b", 5_000, -2.0)],
            stats: Default::default(),
        };
        let reply = parse_reply(&encode_reply(&Ok(result))).unwrap();
        assert_eq!(
            reply.points,
            vec![("rack0".into(), 0, 1.5, 3), ("a,b".into(), 5_000, -2.0, 3)]
        );
    }

    #[test]
    fn max_size_frame_split_across_reads_is_accepted() {
        let rig = harness(|_| {});
        let mut s = TcpStream::connect(rig.ingest.addr()).unwrap();
        let mut wire = Vec::new();
        cwx_net::frame::put_frame(&mut wire, &vec![0xAB; IngestConfig::default().max_frame]);
        // all but the last two bytes now, the rest after the reactor has
        // buffered the partial frame
        let (head, tail) = wire.split_at(wire.len() - 2);
        io::Write::write_all(&mut s, head).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        io::Write::write_all(&mut s, tail).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while rig.ingest.stats().frames == 0
            && rig.ingest.stats().evicted == 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = rig.ingest.stats();
        assert_eq!(
            (stats.frames, stats.evicted),
            (1, 0),
            "a legal max-size frame must not be evicted"
        );
        drop(s);
        rig.ingest.shutdown();
    }

    #[test]
    fn oversized_frame_is_evicted_not_allocated() {
        let rig = harness(|c| c.max_frame = 1024);
        let mut s = TcpStream::connect(rig.ingest.addr()).unwrap();
        let _ = io::Write::write_all(&mut s, &u32::MAX.to_le_bytes());
        let deadline = Instant::now() + Duration::from_secs(5);
        while rig.ingest.stats().evicted == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(rig.ingest.stats().evicted, 1);
        drop(s);
        rig.ingest.shutdown();
    }
}
