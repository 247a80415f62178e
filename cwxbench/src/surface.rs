//! The one module that calls into the program.
//!
//! Every use of a program crate — constructors, field names, free
//! functions — lives here, so a refactoring PR (which may not edit the
//! benchmark) can read this file and know exactly which public paths
//! must keep resolving. The README lists the same surface. Nothing the
//! roadmap plans to delete is named: configs are built with
//! `..Default::default()`, and the only ingest architecture mentioned
//! is whichever one `IngestConfig::default()` selects.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use clusterworx::actions::ControlPlane;
use clusterworx::ingest::{self, IngestConfig, IngestServer};
use clusterworx::server::Server;
use cwx_events::engine::{default_rules, EventEngine};
use cwx_fed::{FederationConfig, FederationSim};
use cwx_hw::fleet::step_fleet;
use cwx_hw::{NodeHardware, NodeId, PowerState, ThermalConfig, Workload};
use cwx_monitor::agent::{Agent, AgentConfig};
use cwx_monitor::consolidate::Consolidator;
use cwx_monitor::monitor::{MonitorClass, MonitorKey, Value};
use cwx_monitor::snapshot::Sensors;
use cwx_monitor::transmit::{Report, WireDecoder, WireEncoder};
use cwx_net::frame::FrameBuffer;
use cwx_proc::gather::{
    DiskStatsGatherer, GatherLevel, LoadAvgGatherer, MemInfoGatherer, NetDevGatherer, StatGatherer,
    UptimeGatherer,
};
use cwx_proc::synthetic::SyntheticProc;
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::segment::{self, SegmentIndex};
use cwx_store::{
    codec, query, AggBucket, AggFunc, BatchSample, QueryExecutor, QueryGroup, QueryLimits,
    QuerySpec, Resolution, Sample, Store,
};
use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;

use crate::gen::{Agg, FrameHead, History, QueryShape};

/// Shards of the benchmark's stores and lanes of its ingest servers:
/// the sandbox has two cores, and one lane per shard is the layout the
/// ingest plane documents.
pub const SHARDS: usize = 2;

fn secs(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

/// Store time in nanoseconds of a generator time in seconds — the same
/// conversion the ingest plane applies to a report's gather time.
pub fn store_nanos(time_secs: f64) -> u64 {
    secs(time_secs).as_nanos()
}

// ---------------------------------------------------------------------
// cwx-store

/// A disk store handle plus what the benchmark reads from it.
#[derive(Debug, Clone)]
pub struct BenchStore(Arc<DiskStore>);

/// Per-tier block-cache counters: `[raw, 10s, 5m, 1h]` of `(hits, misses)`.
pub type TierCounters = [(u64, u64); 4];

/// The tier names, in [`TierCounters`] order.
pub const TIER_NAMES: [&str; 4] = ["raw", "10s", "5m", "1h"];

const TIERS: [Resolution; 4] = [
    Resolution::Raw,
    Resolution::TenSeconds,
    Resolution::FiveMinutes,
    Resolution::OneHour,
];

impl BenchStore {
    /// Open (or create) a store for `fleet` nodes: two shards, half the
    /// fleet per node group, every other field the store's default so a
    /// changed default is measured, not masked.
    pub fn open(dir: &Path, fleet: u32) -> Result<BenchStore, String> {
        let cfg = StoreConfig {
            n_shards: SHARDS,
            nodes_per_group: (fleet / SHARDS as u32).max(1),
            ..StoreConfig::default()
        };
        DiskStore::open(dir, cfg)
            .map(|s| BenchStore(Arc::new(s)))
            .map_err(|e| e.to_string())
    }

    /// Append a generated history under `monitor` in 512-sample batches
    /// (the ingest plane's batch size), then compact so every tier
    /// exists.
    pub fn populate(&self, monitor: &str, h: &History) -> Result<(), String> {
        let mut batch: Vec<BatchSample<'_>> = Vec::with_capacity(512);
        for step in 0..h.steps {
            let time = secs(h.time_secs(step) as f64);
            for node in 0..h.fleet {
                batch.push(BatchSample {
                    node,
                    monitor,
                    time,
                    value: h.values[step * h.fleet as usize + node as usize],
                });
                if batch.len() == 512 {
                    self.0.append_batch(&batch);
                    batch.clear();
                }
            }
        }
        self.0.append_batch(&batch);
        self.0.compact_all().map_err(|e| e.to_string())
    }

    /// Samples ever appended.
    pub fn total_samples(&self) -> u64 {
        self.0.total_samples()
    }

    /// Flush every memtable to segments.
    pub fn flush_all(&self) -> Result<(), String> {
        self.0.flush_all().map_err(|e| e.to_string())
    }

    /// One series read back raw: `(time nanos, value bits)` pairs.
    pub fn read_back(&self, node: u32, monitor: &str) -> Vec<(u64, u64)> {
        self.0
            .range(node, monitor, SimTime::ZERO, SimTime::MAX)
            .into_iter()
            .map(|s| (s.time.as_nanos(), s.value.to_bits()))
            .collect()
    }

    /// Drop every cached block.
    pub fn clear_cache(&self) {
        self.0.clear_cache()
    }

    /// Block-cache hits and misses per tier, plus evictions.
    pub fn cache_counters(&self) -> (TierCounters, u64) {
        let s = self.0.cache_stats();
        let mut out = [(0, 0); 4];
        for (slot, res) in out.iter_mut().zip(TIERS) {
            let t = s.tier(res);
            *slot = (t.hits, t.misses);
        }
        (out, s.evictions)
    }

    /// A query executor over this store with the program's default
    /// admission limits.
    pub fn executor(&self) -> QueryExecutor {
        QueryExecutor::new(
            Arc::clone(&self.0) as Arc<dyn Store>,
            QueryLimits::default(),
        )
    }

    /// Run a query on the caller's thread (the twin's `Store::query`
    /// span; workloads go through the executor).
    pub fn query(&self, q: &QueryShape) -> Result<Answer, String> {
        self.0
            .query(&spec_of(q))
            .map(answer_of)
            .map_err(|e| e.to_string())
    }
}

/// A query's answer reduced to what the checks and counters need.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// `(window start secs, value, count)` of the single group.
    pub points: Vec<(u64, f64, u64)>,
    /// Tier that served it, a [`TIER_NAMES`] entry.
    pub tier: &'static str,
    /// Raw samples + tier buckets folded.
    pub scanned: u64,
    /// Shards that lacked the selected tier.
    pub fallback_shards: u64,
}

fn answer_of(r: cwx_store::QueryResult) -> Answer {
    Answer {
        points: r
            .groups
            .first()
            .map(|g| {
                g.points
                    .iter()
                    .map(|p| (p.start.as_nanos() / 1_000_000_000, p.value, p.count))
                    .collect()
            })
            .unwrap_or_default(),
        tier: TIER_NAMES[r.stats.tier.tag() as usize],
        scanned: r.stats.scanned_raw + r.stats.scanned_buckets,
        fallback_shards: r.stats.fallback_shards,
    }
}

fn spec_of(q: &QueryShape) -> QuerySpec {
    spec_of_secs(
        q,
        q.from_secs as f64,
        q.to_secs as f64,
        q.window_secs as f64,
    )
}

fn spec_of_secs(q: &QueryShape, from: f64, to: f64, window: f64) -> QuerySpec {
    QuerySpec {
        monitor: q.monitor.to_string(),
        from: secs(from),
        to: secs(to),
        window_nanos: SimDuration::from_secs_f64(window).as_nanos(),
        agg: match q.agg {
            Agg::Avg => AggFunc::Avg,
            Agg::Max => AggFunc::Max,
            Agg::P99 => AggFunc::P99,
        },
        groups: vec![QueryGroup {
            key: "all".to_string(),
            nodes: (0..q.nodes).collect(),
        }],
        max_scan: 0,
    }
}

/// Execute `q` through the executor (admission control, worker pool):
/// the path `query_dash` times.
pub fn execute(exec: &QueryExecutor, q: &QueryShape) -> Result<Answer, String> {
    exec.execute(spec_of(q))
        .map(answer_of)
        .map_err(|e| e.to_string())
}

/// `(completed, errors, shed)` of an executor.
pub fn executor_counters(exec: &QueryExecutor) -> (u64, u64, u64) {
    let s = exec.stats();
    (s.completed, s.errors, s.shed)
}

// ---------------------------------------------------------------------
// clusterworx::ingest + CWQ1

/// A running ingest server over a disk store (the server child's body).
pub struct LiveServer {
    ingest: IngestServer,
    store: BenchStore,
    /// Samples the store held before the first frame arrived.
    stored_before: u64,
}

/// What the parent reads from the child on request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LiveCounters {
    /// Wire frames received (reports and queries).
    pub frames: u64,
    /// Reports flushed to the store.
    pub reports: u64,
    /// Numeric samples appended.
    pub samples: u64,
    /// Wire payload bytes received.
    pub bytes: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Lane backpressure trips.
    pub backpressure_trips: u64,
    /// Connections evicted.
    pub evicted: u64,
    /// CWQ1 requests received.
    pub queries: u64,
    /// CWQ1 requests or clients shed.
    pub queries_shed: u64,
    /// Executor: queries that returned an error.
    pub executor_errors: u64,
    /// Ingest latency (readiness read → store visible) median, µs.
    pub rx_to_visible_p50_us: f64,
    /// 99th percentile of the same.
    pub rx_to_visible_p99_us: f64,
    /// `store.total_samples()`.
    pub store_samples: u64,
}

impl LiveServer {
    /// Start the ingest plane over `store` for `fleet` agents: two
    /// lanes, half the fleet per group, everything else default.
    pub fn start(store: BenchStore, fleet: u32) -> Result<LiveServer, String> {
        let cfg = IngestConfig {
            n_lanes: SHARDS,
            nodes_per_group: (fleet / SHARDS as u32).max(1),
            ..IngestConfig::default()
        };
        let server = Arc::new(RwLock::new(Server::new(
            "cwxbench",
            SimDuration::from_secs(5),
            1,
            SimDuration::from_secs(3_600),
        )));
        let control = Arc::new(Mutex::new(ControlPlane::new(fleet as usize)));
        let ingest = IngestServer::start(
            cfg,
            server,
            Some(Arc::clone(&store.0)),
            control,
            Instant::now(),
        )
        .map_err(|e| e.to_string())?;
        let stored_before = store.total_samples();
        Ok(LiveServer {
            ingest,
            store,
            stored_before,
        })
    }

    /// The address agents and dashboards connect to.
    pub fn addr(&self) -> SocketAddr {
        self.ingest.addr()
    }

    /// Counters right now.
    pub fn counters(&self) -> LiveCounters {
        let s = self.ingest.stats();
        let l = self.ingest.latency();
        let q = self.ingest.query_stats().unwrap_or_default();
        LiveCounters {
            frames: s.frames,
            reports: s.reports,
            samples: s.samples,
            bytes: s.bytes,
            decode_errors: s.decode_errors,
            backpressure_trips: s.backpressure_trips,
            evicted: s.evicted,
            queries: s.queries,
            queries_shed: s.queries_shed,
            executor_errors: q.errors,
            rx_to_visible_p50_us: l.p50_us,
            rx_to_visible_p99_us: l.p99_us,
            store_samples: self.store.total_samples(),
        }
    }

    /// Drain connections, flush lanes, stop; returns the final counters
    /// and the store for the post-run checks. Reports and samples are
    /// read after the drain (the last batches land during it); the
    /// other counters stop moving once the sockets are closed.
    pub fn shutdown(self) -> (LiveCounters, BenchStore) {
        let mut c = self.counters();
        let store = self.store;
        c.reports = self.ingest.shutdown();
        c.store_samples = store.total_samples();
        c.samples = c.store_samples - self.stored_before;
        (c, store)
    }
}

/// One simulated agent's wire state: its own dictionary and XOR chains,
/// exactly as a real agent connection would hold them.
#[derive(Debug)]
pub struct AgentWire {
    enc: WireEncoder,
    report: Report,
}

impl AgentWire {
    /// A fresh agent whose reports carry `keys` in order.
    pub fn new(keys: &[String]) -> AgentWire {
        AgentWire {
            enc: WireEncoder::new(),
            report: Report {
                node: 0,
                seq: 0,
                time_secs: 0.0,
                values: keys
                    .iter()
                    .map(|k| (MonitorKey::new(k), Value::Num(0.0)))
                    .collect(),
            },
        }
    }

    fn fill(&mut self, head: FrameHead, values: &[f64]) {
        self.report.node = head.node;
        self.report.seq = head.seq;
        self.report.time_secs = head.time_secs;
        for (slot, &v) in self.report.values.iter_mut().zip(values) {
            slot.1 = Value::Num(v);
        }
    }

    /// Encode one report as a CWB1 body into `body` (cleared first).
    pub fn encode(&mut self, head: FrameHead, values: &[f64], body: &mut Vec<u8>) {
        self.fill(head, values);
        self.enc.encode_into(&self.report, body);
    }
}

/// Append `body` to `out` as one length-prefixed wire frame.
pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) {
    cwx_net::frame::put_frame(out, body)
}

/// A CWQ1 request body for `q` with explicit (fractional) bounds — the
/// freshness probe's window slides with the wall clock.
pub fn encode_query(q: &QueryShape, from_secs: f64, to_secs: f64) -> Vec<u8> {
    ingest::encode_query(&spec_of_secs(q, from_secs, to_secs, q.window_secs as f64))
}

/// A parsed CWQR reply: `(window start nanos, value, count)` rows.
pub fn parse_reply(frame: &[u8]) -> Result<Vec<(u64, f64, u64)>, String> {
    ingest::parse_reply(frame).map(|r| r.points.into_iter().map(|(_, s, v, c)| (s, v, c)).collect())
}

// ---------------------------------------------------------------------
// cwx-fed (the simulator path)

/// A federation of simulated clusters and the counters the benchmark
/// reads from it.
pub struct Fleet(FederationSim);

/// `[C]` counters and wall-clock load of a [`Fleet`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetCounters {
    /// Wall seconds spent stepping sub-cluster worlds.
    pub sub_busy_s: f64,
    /// Wall seconds the head spent ingesting and polling.
    pub head_busy_s: f64,
    /// Simulation events executed across sub-clusters.
    pub sub_events: u64,
    /// Uplink frames sent by all sub links.
    pub uplink_frames: u64,
    /// Uplink bytes sent by all sub links.
    pub uplink_bytes: u64,
    /// Head audit hash (same seed ⇒ same hash).
    pub audit_hash: u64,
}

impl Fleet {
    /// `clusters` uniform clusters of `nodes_per` nodes, 10 s uplink,
    /// default hardware step.
    pub fn build(seed: u64, clusters: u16, nodes_per: u32) -> Fleet {
        Fleet(FederationSim::build(FederationConfig::uniform(
            clusters, nodes_per, seed,
        )))
    }

    /// The uplink epoch, seconds.
    pub fn epoch_secs(&self) -> u64 {
        self.0.uplink_interval().as_nanos() / 1_000_000_000
    }

    /// Advance simulated time.
    pub fn run_for(&mut self, secs: u64) {
        self.0.run_for(SimDuration::from_secs(secs))
    }

    /// Sever a cluster's uplink.
    pub fn disconnect(&mut self, cluster: u16) {
        self.0.disconnect(cluster)
    }

    /// Restore a cluster's uplink.
    pub fn heal(&mut self, cluster: u16) {
        self.0.heal(cluster)
    }

    /// Does the head's census equal the sub-clusters' ground truth?
    pub fn census_matches(&self) -> bool {
        self.0.aggregate().counts == self.0.sub_counts_sum()
    }

    /// Nodes the head believes are up.
    pub fn nodes_up(&self) -> u32 {
        self.0.aggregate().counts.up
    }

    /// Counters so far.
    pub fn counters(&self) -> FleetCounters {
        let load = self.0.load();
        let (uplink_frames, uplink_bytes) = self.0.uplink_stats();
        FleetCounters {
            sub_busy_s: load.sub_busy.as_secs_f64(),
            head_busy_s: load.head_busy.as_secs_f64(),
            sub_events: load.sub_events,
            uplink_frames,
            uplink_bytes,
            audit_hash: self.0.head().audit_hash(),
        }
    }
}

// ---------------------------------------------------------------------
// layer calls of the staged twin — one function per layer boundary, so
// `twin` can wrap each in a span without naming a program type

/// Seconds between hardware steps and between agent ticks in a default
/// simulated cluster (what `sim_fleet` runs with).
pub fn cluster_cadence_secs() -> (f64, f64) {
    let c = clusterworx::ClusterConfig::default();
    (c.hw_step.as_secs_f64(), c.agent_interval.as_secs_f64())
}

/// One simulated node's agent side: a synthetic `/proc`, the six
/// gatherers over it, and a full monitoring agent over the same source.
pub struct TwinNode {
    proc_: SyntheticProc,
    mem: MemInfoGatherer<SyntheticProc>,
    stat: StatGatherer<SyntheticProc>,
    load: LoadAvgGatherer<SyntheticProc>,
    uptime: UptimeGatherer<SyntheticProc>,
    netdev: NetDevGatherer<SyntheticProc>,
    disks: DiskStatsGatherer<SyntheticProc>,
    agent: Agent<SyntheticProc>,
}

/// A decoded (or freshly gathered) report.
pub struct Decoded(Report);

/// One numeric sample bound for the store.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinSample {
    /// Node.
    pub node: u32,
    /// Monitor name.
    pub monitor: Arc<str>,
    /// Gather time, seconds.
    pub time_secs: f64,
    /// Value.
    pub value: f64,
}

impl Decoded {
    /// Append this report's numeric samples to `out`, interning monitor
    /// names through `names`.
    pub fn samples_into(
        &self,
        names: &mut std::collections::HashMap<String, Arc<str>>,
        out: &mut Vec<TwinSample>,
    ) {
        for (k, v) in &self.0.values {
            if let Value::Num(x) = v {
                let monitor = names
                    .entry(k.as_str().to_string())
                    .or_insert_with(|| Arc::from(k.as_str()))
                    .clone();
                out.push(TwinSample {
                    node: self.0.node,
                    monitor,
                    time_secs: self.0.time_secs,
                    value: *x,
                });
            }
        }
    }
}

impl TwinNode {
    /// Node `node` with a default synthetic `/proc`.
    pub fn new(node: u32) -> Result<TwinNode, String> {
        let proc_ = SyntheticProc::default();
        let e = |e: std::io::Error| e.to_string();
        Ok(TwinNode {
            mem: MemInfoGatherer::new(proc_.clone(), GatherLevel::KeepOpen).map_err(e)?,
            stat: StatGatherer::new(&proc_).map_err(e)?,
            load: LoadAvgGatherer::new(&proc_).map_err(e)?,
            uptime: UptimeGatherer::new(&proc_).map_err(e)?,
            netdev: NetDevGatherer::new(&proc_).map_err(e)?,
            disks: DiskStatsGatherer::new(&proc_).map_err(e)?,
            agent: Agent::new(
                proc_.clone(),
                AgentConfig {
                    node,
                    binary: true,
                    ..AgentConfig::default()
                },
            )
            .map_err(e)?,
            proc_,
        })
    }

    /// Let `dt_secs` of activity at `util` pass on the node.
    pub fn advance(&self, dt_secs: f64, util: f64) {
        self.proc_.with_state(|s| s.tick(dt_secs, util))
    }

    /// The six `*Gatherer::sample()` calls of one agent tick.
    pub fn gather(&mut self) -> Result<(), String> {
        let e = |e: std::io::Error| e.to_string();
        self.mem.sample().map_err(e)?;
        self.stat.sample().map_err(e)?;
        self.load.sample().map_err(e)?;
        self.uptime.sample().map_err(e)?;
        self.netdev.sample().map_err(e)?;
        self.disks.sample().map_err(e)?;
        Ok(())
    }

    /// Proc-file contents regenerated so far (wasted work when a
    /// gatherer re-reads an unchanged file).
    pub fn regenerations(&self) -> u64 {
        self.proc_.regenerations()
    }

    /// One `Agent::tick`: gather → consolidate → encode. Returns the
    /// report and its wire length.
    pub fn agent_tick(&mut self, now_secs: f64, tick: u64) -> Result<(Decoded, usize), String> {
        let sensors = Sensors {
            cpu_temp_c: 45.0 + (tick % 5) as f64 * 0.3,
            board_temp_c: 38.0,
            fan_rpm: 6000.0,
            power_watts: 130.0,
            udp_echo_ok: true,
        };
        let out = self
            .agent
            .tick(secs(now_secs), sensors)
            .map_err(|e| e.to_string())?;
        Ok((Decoded(out.report), out.wire_len))
    }

    /// `(values evaluated, values suppressed)` by the agent's
    /// consolidation stage so far.
    pub fn consolidation(&self) -> (u64, u64) {
        let c = self.agent.consolidation_stats();
        (c.evaluated, c.suppressed_static + c.suppressed_unchanged)
    }
}

/// A stand-alone consolidation stage fed the generator's frames.
pub struct Offers {
    consolidator: Consolidator,
    keys: Vec<MonitorKey>,
}

impl Offers {
    /// Delta suppression on, one slot per key.
    pub fn new(keys: &[String]) -> Offers {
        Offers {
            consolidator: Consolidator::new(true),
            keys: keys.iter().map(MonitorKey::new).collect(),
        }
    }

    /// `Consolidator::offer` for every value of one frame; returns how
    /// many must be transmitted.
    pub fn offer_all(&mut self, values: &[f64]) -> usize {
        self.keys
            .iter()
            .zip(values)
            .filter(|(k, &v)| {
                self.consolidator
                    .offer(k, MonitorClass::Dynamic, &Value::Num(v))
            })
            .count()
    }
}

/// The receive side of a connection: frame assembly + CWB1 decoding.
pub struct Receiver {
    frames: FrameBuffer,
    decoder: WireDecoder,
}

impl Receiver {
    /// An empty receive buffer with the ingest plane's frame bound.
    pub fn new() -> Receiver {
        Receiver {
            frames: FrameBuffer::new(IngestConfig::default().max_frame),
            decoder: WireDecoder::new(),
        }
    }

    /// `FrameBuffer::extend`: hand it wire bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.frames.extend(bytes)
    }

    /// `FrameBuffer::next_frame`, copied out so the caller can time the
    /// decode apart from the deframing.
    pub fn next_frame(&mut self, body: &mut Vec<u8>) -> Result<bool, String> {
        match self.frames.next_frame().map_err(|e| e.to_string())? {
            Some(frame) => {
                body.clear();
                body.extend_from_slice(frame);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// `WireDecoder::decode_binary`.
    pub fn decode(&mut self, body: &[u8]) -> Result<Decoded, String> {
        self.decoder
            .decode_binary(body)
            .map(Decoded)
            .map_err(|e| e.to_string())
    }
}

/// The event engine with the paper's default rules.
pub struct Events(EventEngine);

impl Events {
    /// `EventEngine::new` + `default_rules()`.
    pub fn new() -> Events {
        let mut engine = EventEngine::new();
        for rule in default_rules() {
            engine.add(rule);
        }
        Events(engine)
    }

    /// `EventEngine::observe` for every numeric value of a report.
    pub fn observe(&mut self, now_secs: f64, report: &Decoded) -> usize {
        let now = secs(now_secs);
        let mut n = 0;
        for (k, v) in &report.0.values {
            if let Value::Num(x) = v {
                self.0.observe(now, report.0.node, k, *x);
                n += 1;
            }
        }
        n
    }

    /// Rules fired so far.
    pub fn firings(&self) -> u64 {
        self.0.counts().0
    }
}

/// The management server's event/liveness path.
pub struct EventServer(Server);

impl EventServer {
    /// A server as the ingest plane builds it.
    pub fn new() -> EventServer {
        EventServer(Server::new(
            "cwxbench-twin",
            SimDuration::from_secs(5),
            1,
            SimDuration::from_secs(3_600),
        ))
    }

    /// `Server::ingest_report_events_only`.
    pub fn ingest(&mut self, now_secs: f64, report: &Decoded, wire_len: usize) {
        self.0
            .ingest_report_events_only(secs(now_secs), &report.0, wire_len)
    }
}

impl BenchStore {
    /// `DiskStore::append_batch` of one batch.
    pub fn append_batch(&self, batch: &[TwinSample]) {
        let b: Vec<BatchSample<'_>> = batch
            .iter()
            .map(|s| BatchSample {
                node: s.node,
                monitor: &s.monitor,
                time: secs(s.time_secs),
                value: s.value,
            })
            .collect();
        self.0.append_batch(&b)
    }

    /// `DiskStore::compact_all`.
    pub fn compact_all(&self) -> Result<(), String> {
        self.0.compact_all().map_err(|e| e.to_string())
    }
}

/// `SegmentIndex::read_from` + `segment::read_series` for every series
/// of one segment file; returns the entries (samples or buckets) decoded.
pub fn read_segment(path: &Path) -> Result<u64, String> {
    let index = SegmentIndex::read_from(path).map_err(|e| e.to_string())?;
    let mut entries = 0u64;
    for e in &index.entries {
        entries += segment::read_series(path, index.resolution, e)
            .map_err(|e| e.to_string())?
            .len() as u64;
    }
    Ok(entries)
}

/// `codec::put_timestamps` + `put_values`: one series' payload.
pub fn codec_encode(times: &[u64], values: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_timestamps(&mut out, times);
    codec::put_values(&mut out, values);
    out
}

/// `codec::get_timestamps` + `get_values`; returns samples decoded.
pub fn codec_decode(buf: &[u8], count: usize) -> Result<usize, String> {
    let mut pos = 0;
    let t = codec::get_timestamps(buf, &mut pos, count).map_err(|e| format!("{e:?}"))?;
    let v = codec::get_values(buf, &mut pos, count).map_err(|e| format!("{e:?}"))?;
    Ok(t.len().min(v.len()))
}

/// Ten-second buckets of one series.
pub struct Buckets(Vec<AggBucket>);

/// `query::aggregate`: fold raw samples into 10 s buckets.
pub fn fold_samples(times_secs: &[u64], values: &[f64]) -> Buckets {
    let samples: Vec<Sample> = times_secs
        .iter()
        .zip(values)
        .map(|(&t, &value)| Sample {
            time: secs(t as f64),
            value,
        })
        .collect();
    Buckets(query::aggregate(&samples, 10 * 1_000_000_000))
}

/// `query::merge_buckets`: fold 10 s buckets into 5 min ones; returns
/// `(buckets in, buckets out)`.
pub fn fold_buckets(fine: &Buckets) -> (usize, usize) {
    (
        fine.0.len(),
        query::merge_buckets(&fine.0, 300 * 1_000_000_000).len(),
    )
}

/// `Sim<()>`: schedule `n` no-op events a second apart each way, run
/// them all; returns events executed.
pub fn wheel_run(n: u64) -> u64 {
    let mut sim: Sim<()> = Sim::new(());
    for i in 0..n {
        sim.schedule_in(SimDuration::from_millis(1 + i % 60_000), |_| {});
    }
    sim.run();
    sim.events_executed()
}

/// Simulated hardware of a fleet, stepped through `step_fleet`.
pub struct HwFleet(Vec<(NodeHardware, StdRng)>);

impl HwFleet {
    /// `n` powered, booted nodes with the default thermal model and a
    /// noisy workload.
    pub fn new(n: u32, seed: u64) -> HwFleet {
        HwFleet(
            (0..n)
                .map(|i| {
                    let mut hw = NodeHardware::new(
                        NodeId(i),
                        ThermalConfig::default(),
                        Workload::Noisy {
                            mean: 0.4,
                            reversion: 0.2,
                            sigma: 0.1,
                        },
                    );
                    hw.set_power(PowerState::On);
                    hw.set_booted(true);
                    (hw, cwx_util::rng::rng(seed.wrapping_add(i as u64)))
                })
                .collect(),
        )
    }

    /// One `step_fleet` pass on one shard; returns nodes stepped.
    pub fn step(&mut self, dt_secs: f64) -> usize {
        step_fleet(&mut self.0, 1, |_, (hw, rng)| {
            hw.advance(dt_secs, rng);
            None::<()>
        });
        self.0.len()
    }
}

/// `encode_query` → `parse_query` → `parse_reply` of the reply the
/// server would send for `answer` (rendered here from the documented
/// CWQR text format; the server's encoder is private). Returns rows.
pub fn cwq1_codec(q: &QueryShape, answer: &Answer) -> Result<usize, String> {
    let request = ingest::encode_query(&spec_of(q));
    let spec = ingest::parse_query(&request)?;
    let mut reply = format!(
        "CWQR OK tier={} raw=0 buckets={}",
        answer.tier, answer.scanned
    );
    for (start_secs, value, count) in &answer.points {
        reply.push_str(&format!(
            "\n{},{},{},{}",
            spec.groups[0].key,
            start_secs * 1_000_000_000,
            value,
            count
        ));
    }
    ingest::parse_reply(reply.as_bytes()).map(|r| r.points.len())
}
