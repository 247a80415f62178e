//! The traced run: the per-layer table.
//!
//! Two things happen here, and no end-to-end number comes from either.
//!
//! 1. Every workload runs at a fifth of its length with the benchmark's
//!    own spans on (`gen.send`, `probe.roundtrip`, `dash.roundtrip`,
//!    `query.execute`, `fed.run_for`); the `[S]` rows — counters the
//!    program publishes, `/proc` of the server child — are read around
//!    those runs.
//! 2. The *staged twin*: generated inputs pushed through the layers'
//!    public functions serially on one thread — gather → consolidate →
//!    encode → frame → deframe → decode → server events → append →
//!    flush → compact → reopen → query → CWQ1 codec, plus the timing
//!    wheel and the hardware step — one span per call, parent = the
//!    tick that caused it, self time = span − children. The `[T]` rows
//!    are self time ÷ work count. The twin's wall time with spans on
//!    versus off is `bench.trace_overhead_share`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::{self, FleetGen, History};
use crate::procfs;
use crate::report::{Better, Kind, Metric, Outcome};
use crate::surface::{
    self, AgentWire, BenchStore, EventServer, Events, HwFleet, Offers, Receiver, TwinNode,
    TwinSample,
};
use crate::trace::{SpanTotal, Tracer};
use crate::{dash, live, simfleet};

/// Size of the staged twin.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinShape {
    /// Simulated agents in the pipeline stage.
    pub agents: u32,
    /// Ticks (one second apart) each agent runs.
    pub ticks: u64,
    /// Nodes of the query stage's store.
    pub query_fleet: u32,
    /// 30-second samples per node in the query stage's store.
    pub query_steps: usize,
    /// No-op events pushed through the timing wheel.
    pub wheel_events: u64,
    /// Nodes and passes of the hardware-step stage.
    pub hw: (u32, u32),
}

/// 64 agents × 61 ticks × 32 keys = 125k samples through the whole
/// write path (61, not 60: the last memtable must not be empty, or
/// `flush_all` has nothing to time); a 200 × 4 h store for the read
/// path.
pub const TWIN: TwinShape = TwinShape {
    agents: 64,
    ticks: 61,
    query_fleet: 200,
    query_steps: 480,
    wheel_events: 1_000_000,
    hw: (1250, 40),
};

impl TwinShape {
    /// Shrink everything by `f` (smoke tests); `f ≥ 1` is full size.
    pub fn scaled(&self, f: f64) -> TwinShape {
        if f >= 1.0 {
            return self.clone();
        }
        TwinShape {
            agents: ((self.agents as f64 * f) as u32).max(4) / 2 * 2,
            ticks: ((self.ticks as f64 * f) as u64).max(8),
            query_fleet: ((self.query_fleet as f64 * f) as u32).max(8) / 2 * 2,
            query_steps: self
                .query_steps
                .min(130)
                .max((self.query_steps as f64 * f) as usize),
            wheel_events: ((self.wheel_events as f64 * f) as u64).max(1000),
            hw: (((self.hw.0 as f64 * f) as u32).max(8), self.hw.1.min(4)),
        }
    }
}

const CLASS_COLD: [&str; 5] = [
    "store.query.cold.scan10s",
    "store.query.cold.rawp99",
    "store.query.cold.tier5m",
    "store.query.cold.tier1h",
    "store.query.cold.recent5m",
];
const CLASS_WARM: [&str; 5] = [
    "store.query.warm.scan10s",
    "store.query.warm.rawp99",
    "store.query.warm.tier5m",
    "store.query.warm.tier1h",
    "store.query.warm.recent5m",
];
/// Warm repetitions per class after the cold query.
const WARM_REPS: u64 = 2;
const BATCH: usize = 512;

/// Work counts of one twin pass (the divisors of the `[T]` rows; all of
/// them `[C]`: same seed, same counts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwinCounts {
    agent_ticks: u64,
    regenerations: u64,
    offers: u64,
    agent_evaluated: u64,
    agent_suppressed: u64,
    values: u64,
    wire_bytes: u64,
    frames: u64,
    reports: u64,
    observed: u64,
    firings: u64,
    samples: u64,
    wal_bytes_per_sample: f64,
    segment_bytes: u64,
    raw_entries: u64,
    ten_entries: u64,
    codec_samples: u64,
    fold_samples: u64,
    fold_buckets: u64,
    scanned: [u64; 5],
    fallback_shards: u64,
    codec_queries: u64,
    wheel_events: u64,
    hw_node_steps: u64,
}

fn segment_files(dir: &Path, tier_tag: u8) -> Vec<PathBuf> {
    let suffix = format!("-r{tier_tag}.seg");
    let mut out = Vec::new();
    let Ok(shards) = std::fs::read_dir(dir) else {
        return out;
    };
    for shard in shards.flatten() {
        if let Ok(files) = std::fs::read_dir(shard.path()) {
            out.extend(
                files
                    .flatten()
                    .map(|f| f.path())
                    .filter(|p| p.to_string_lossy().ends_with(&suffix)),
            );
        }
    }
    out.sort();
    out
}

fn wal_bytes(dir: &Path) -> u64 {
    let Ok(shards) = std::fs::read_dir(dir) else {
        return 0;
    };
    shards
        .flatten()
        .filter_map(|s| std::fs::metadata(s.path().join("wal.log")).ok())
        .map(|m| m.len())
        .sum()
}

/// One pass of the staged twin. Spans go to `tracer` (a no-op when it
/// is off); returns the work counts.
pub fn run_twin(
    shape: &TwinShape,
    seed: u64,
    tracer: &mut Tracer,
    dir: &Path,
) -> Result<TwinCounts, String> {
    let mut c = TwinCounts::default();
    let _ = std::fs::remove_dir_all(dir);

    // ---- the write path: gather → … → append → flush → compact → reopen
    let keys = gen::key_names();
    let base = 100.0;
    let mut fleet = FleetGen::new(seed, shape.agents, shape.agents as f64, base);
    let mut nodes: Vec<TwinNode> = (0..shape.agents)
        .map(TwinNode::new)
        .collect::<Result<_, _>>()?;
    let mut offers: Vec<Offers> = (0..shape.agents).map(|_| Offers::new(&keys)).collect();
    let mut wires: Vec<AgentWire> = (0..shape.agents).map(|_| AgentWire::new(&keys)).collect();
    let mut receiver = Receiver::new();
    let mut events = Events::new();
    let mut server = EventServer::new();
    let write_dir = dir.join("write");
    let store = BenchStore::open(&write_dir, shape.agents)?;
    let mut names: HashMap<String, std::sync::Arc<str>> = HashMap::new();
    let mut pending: Vec<TwinSample> = Vec::new();
    let mut values = Vec::new();
    let mut body = Vec::new();
    let mut wire = Vec::new();
    let mut batch_no = 0u64;

    for tick in 0..shape.ticks {
        let now = base + tick as f64;
        tracer.span("twin.tick", tick, |tr| -> Result<(), String> {
            wire.clear();
            let mut agent_reports = Vec::with_capacity(shape.agents as usize);
            for a in 0..shape.agents as usize {
                nodes[a].advance(1.0, 0.25 + 0.05 * ((tick + a as u64) % 3) as f64);
                let regen0 = nodes[a].regenerations();
                tr.span("proc.gather", tick, |_| nodes[a].gather())?;
                c.regenerations += nodes[a].regenerations() - regen0;
                agent_reports.push(tr.span("monitor.agent_tick", tick, |_| {
                    nodes[a].agent_tick(now, tick)
                })?);
                c.agent_ticks += 1;

                let head = fleet.next_frame(&mut values);
                c.offers += values.len() as u64;
                tr.span("monitor.consolidate", tick, |_| {
                    offers[a].offer_all(&values)
                });
                tr.span("monitor.encode", tick, |_| {
                    wires[a].encode(head, &values, &mut body)
                });
                c.values += values.len() as u64;
                c.wire_bytes += body.len() as u64;
                tr.span("net.frame", tick, |_| surface::put_frame(&mut wire, &body));
                c.frames += 1;
            }
            // the receive side: deframe, decode, events, append
            let mut a = 0;
            tr.span("net.frame", tick, |tr| -> Result<(), String> {
                receiver.extend(&wire);
                while receiver.next_frame(&mut body)? {
                    let decoded = tr.span("monitor.decode", tick, |_| receiver.decode(&body))?;
                    decoded.samples_into(&mut names, &mut pending);
                    a += 1;
                }
                Ok(())
            })?;
            if a != shape.agents as usize {
                return Err(format!(
                    "tick {tick}: deframed {a} of {} frames",
                    shape.agents
                ));
            }
            for (report, wire_len) in &agent_reports {
                tr.span("server.events", tick, |_| {
                    server.ingest(now, report, *wire_len)
                });
                c.reports += 1;
                c.observed +=
                    tr.span("events.observe", tick, |_| events.observe(now, report)) as u64;
            }
            while pending.len() >= BATCH {
                tr.span("store.append_batch", batch_no, |_| {
                    store.append_batch(&pending[..BATCH])
                });
                pending.drain(..BATCH);
                batch_no += 1;
                c.samples += BATCH as u64;
            }
            Ok(())
        })?;
    }
    if !pending.is_empty() {
        tracer.span("store.append_batch", batch_no, |_| {
            store.append_batch(&pending)
        });
        c.samples += pending.len() as u64;
    }
    let (evaluated, suppressed) = nodes
        .iter()
        .map(TwinNode::consolidation)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    c.agent_evaluated = evaluated;
    c.agent_suppressed = suppressed;
    c.firings = events.firings();
    if store.total_samples() != c.samples {
        return Err(format!(
            "twin store holds {} samples, appended {}",
            store.total_samples(),
            c.samples
        ));
    }
    tracer.span("store.flush_all", 0, |_| store.flush_all())?;
    tracer.span("store.compact_all", 0, |_| store.compact_all())?;
    drop(store);
    c.segment_bytes = procfs::dir_bytes(&write_dir);
    let reopened = tracer.span("store.reopen", 0, |_| {
        BenchStore::open(&write_dir, shape.agents)
    })?;
    if reopened.total_samples() != c.samples {
        return Err(format!(
            "reopened store holds {} samples, wrote {}",
            reopened.total_samples(),
            c.samples
        ));
    }
    drop(reopened);

    // WAL bytes per sample in steady state: the log's growth over a
    // second round of the same series (the first round also logs every
    // series' registration), all below the flush threshold so the log
    // is still whole
    let wal_dir = dir.join("wal");
    let wal_agents = 2 * BATCH as u32 / gen::KEYS_PER_FRAME as u32;
    let wal_store = BenchStore::open(&wal_dir, wal_agents)?;
    let mut walgen = FleetGen::new(seed, wal_agents, wal_agents as f64, base);
    let mut wal_round = |store: &BenchStore| {
        let mut round = Vec::new();
        for _ in 0..wal_agents {
            let head = walgen.next_frame(&mut values);
            round.extend(keys.iter().zip(&values).map(|(k, v)| TwinSample {
                node: head.node,
                monitor: std::sync::Arc::from(k.as_str()),
                time_secs: head.time_secs,
                value: *v,
            }));
        }
        store.append_batch(&round);
        round.len()
    };
    wal_round(&wal_store);
    let registered = wal_bytes(&wal_dir);
    let n = wal_round(&wal_store);
    c.wal_bytes_per_sample = (wal_bytes(&wal_dir) - registered) as f64 / n as f64;
    drop(wal_store);

    // ---- the read path: a compacted history, five classes × (1 cold + 2 warm)
    let read_dir = dir.join("read");
    let history = History::generate(seed, shape.query_fleet, shape.query_steps, 30);
    let read_store = BenchStore::open(&read_dir, shape.query_fleet)?;
    read_store.populate(dash::MONITOR, &history)?;
    let classes = gen::dash_classes(dash::MONITOR, history.span_secs(), shape.query_fleet);
    for (i, q) in classes.iter().enumerate() {
        read_store.clear_cache();
        let cold = tracer.span(CLASS_COLD[i], i as u64, |_| read_store.query(q))?;
        live::answer_matches(&cold.points, &gen::reference(&history, q), q.agg)
            .map_err(|e| format!("twin query {}: {e}", q.class))?;
        c.fallback_shards += cold.fallback_shards;
        for rep in 0..WARM_REPS {
            let warm = tracer.span(CLASS_WARM[i], i as u64 * 10 + rep, |_| read_store.query(q))?;
            c.scanned[i] += warm.scanned;
        }
        tracer.span("clusterworx.cwq1_codec", i as u64, |_| {
            surface::cwq1_codec(q, &cold)
        })?;
        c.codec_queries += 1;
    }
    for path in segment_files(&read_dir, 0) {
        c.raw_entries +=
            tracer.span("store.read_series.raw", 0, |_| surface::read_segment(&path))?;
    }
    for path in segment_files(&read_dir, 1) {
        c.ten_entries +=
            tracer.span("store.read_series.10s", 0, |_| surface::read_segment(&path))?;
    }
    drop(read_store);
    let times_secs: Vec<u64> = (0..history.steps).map(|s| history.time_secs(s)).collect();
    let times_nanos: Vec<u64> = times_secs.iter().map(|t| t * 1_000_000_000).collect();
    for node in 0..history.fleet as usize {
        let series: Vec<f64> = (0..history.steps)
            .map(|s| history.values[s * history.fleet as usize + node])
            .collect();
        let payload = surface::codec_encode(&times_nanos, &series);
        c.codec_samples += tracer.span("store.codec_decode", node as u64, |_| {
            surface::codec_decode(&payload, series.len())
        })? as u64;
        let fine = tracer.span("store.fold_samples", node as u64, |_| {
            surface::fold_samples(&times_secs, &series)
        });
        c.fold_samples += series.len() as u64;
        let (n_fine, _) = tracer.span("store.fold_buckets", node as u64, |_| {
            surface::fold_buckets(&fine)
        });
        c.fold_buckets += n_fine as u64;
    }

    // ---- the simulator's own layers
    c.wheel_events = tracer.span("util.wheel", 0, |_| surface::wheel_run(shape.wheel_events));
    let mut hw = HwFleet::new(shape.hw.0, seed);
    for pass in 0..shape.hw.1 {
        c.hw_node_steps += tracer.span("hw.step_fleet", pass as u64, |_| hw.step(1.0)) as u64;
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(c)
}

fn per(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// The `[T]` rows: span self time ÷ work count.
fn twin_metrics(
    c: &TwinCounts,
    totals: &std::collections::BTreeMap<&'static str, SpanTotal>,
) -> Vec<Metric> {
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ns = |name: &str| t(name).self_ns;
    let mut m = vec![
        Metric::layer(
            "cwx-proc.gather_us_per_tick",
            per(ns("proc.gather"), c.agent_ticks) / 1e3,
            "us",
            c.agent_ticks,
        ),
        Metric::layer(
            "cwx-proc.regenerations_per_tick",
            c.regenerations as f64 / c.agent_ticks.max(1) as f64,
            "count",
            c.agent_ticks,
        ),
        Metric::layer(
            "cwx-monitor.agent_tick_us",
            per(ns("monitor.agent_tick"), c.agent_ticks) / 1e3,
            "us",
            c.agent_ticks,
        ),
        Metric::layer(
            "cwx-monitor.consolidate_ns_per_offer",
            per(ns("monitor.consolidate"), c.offers),
            "ns",
            c.offers,
        ),
        Metric::layer(
            "cwx-monitor.suppressed_share",
            c.agent_suppressed as f64 / c.agent_evaluated.max(1) as f64,
            "share",
            c.agent_evaluated,
        ),
        Metric::layer(
            "cwx-monitor.encode_ns_per_value",
            per(ns("monitor.encode"), c.values),
            "ns",
            c.values,
        ),
        Metric::layer(
            "cwx-monitor.wire_bytes_per_sample",
            c.wire_bytes as f64 / c.values.max(1) as f64,
            "B",
            c.values,
        ),
        Metric::layer(
            "cwx-monitor.decode_ns_per_value",
            per(ns("monitor.decode"), c.values),
            "ns",
            c.values,
        ),
        Metric::layer(
            "cwx-net.frame_ns_per_frame",
            per(ns("net.frame"), c.frames),
            "ns",
            c.frames,
        ),
        Metric::layer(
            "clusterworx.server_events_ns_per_report",
            per(ns("server.events"), c.reports),
            "ns",
            c.reports,
        ),
        Metric::layer(
            "clusterworx.cwq1_codec_us_per_query",
            per(ns("clusterworx.cwq1_codec"), c.codec_queries) / 1e3,
            "us",
            c.codec_queries,
        ),
        Metric::layer(
            "cwx-events.observe_ns_per_value",
            per(ns("events.observe"), c.observed),
            "ns",
            c.observed,
        ),
        Metric::layer("cwx-events.firings", c.firings as f64, "count", 1),
        Metric::layer(
            "cwx-store.append_ns_per_sample",
            per(ns("store.append_batch"), c.samples),
            "ns",
            c.samples,
        ),
        Metric::layer(
            "cwx-store.wal_bytes_per_sample",
            c.wal_bytes_per_sample,
            "B",
            1,
        ),
        Metric::layer(
            "cwx-store.flush_ms",
            ns("store.flush_all") as f64 / 1e6,
            "ms",
            1,
        ),
        Metric::layer(
            "cwx-store.compact_ms",
            ns("store.compact_all") as f64 / 1e6,
            "ms",
            1,
        ),
        Metric::layer(
            "cwx-store.segment_bytes_per_sample",
            c.segment_bytes as f64 / c.samples.max(1) as f64,
            "B",
            c.samples,
        ),
        Metric::layer(
            "cwx-store.reopen_ms",
            ns("store.reopen") as f64 / 1e6,
            "ms",
            1,
        ),
        Metric::layer(
            "cwx-store.read_series_ns_per_entry_raw",
            per(ns("store.read_series.raw"), c.raw_entries),
            "ns",
            c.raw_entries,
        ),
        Metric::layer(
            "cwx-store.read_series_ns_per_entry_10s",
            per(ns("store.read_series.10s"), c.ten_entries),
            "ns",
            c.ten_entries,
        ),
        Metric::layer(
            "cwx-store.decode_ns_per_sample",
            per(ns("store.codec_decode"), c.codec_samples),
            "ns",
            c.codec_samples,
        ),
        Metric::layer(
            "cwx-store.fold_ns_per_sample",
            per(ns("store.fold_samples"), c.fold_samples),
            "ns",
            c.fold_samples,
        ),
        Metric::layer(
            "cwx-store.fold_ns_per_bucket",
            per(ns("store.fold_buckets"), c.fold_buckets),
            "ns",
            c.fold_buckets,
        ),
        Metric::layer(
            "cwx-store.fallback_shards",
            c.fallback_shards as f64,
            "count",
            1,
        ),
        Metric::layer(
            "cwx-util.wheel_ns_per_event",
            per(ns("util.wheel"), c.wheel_events),
            "ns",
            c.wheel_events,
        ),
        Metric::layer(
            "cwx-hw.step_ns_per_node",
            per(ns("hw.step_fleet"), c.hw_node_steps),
            "ns",
            c.hw_node_steps,
        ),
    ];
    for (i, class) in ["scan10s", "rawp99", "tier5m", "tier1h", "recent5m"]
        .iter()
        .enumerate()
    {
        m.push(Metric::layer(
            format!("cwx-store.query_ns_per_entry_{class}"),
            per(ns(CLASS_WARM[i]), c.scanned[i]),
            "ns",
            c.scanned[i],
        ));
        m.push(Metric::layer(
            format!("cwx-store.scanned_entries_{class}"),
            c.scanned[i] as f64 / WARM_REPS as f64,
            "count",
            WARM_REPS,
        ));
        m.push(Metric::layer(
            format!("cwx-store.cold_ms_{class}"),
            ns(CLASS_COLD[i]) as f64 / 1e6,
            "ms",
            1,
        ));
    }
    m
}

/// Which workload's short traced run supplies an `[S]` row (rows are
/// emitted as `name@workload`; the designated one loses its suffix).
fn source_of(name: &str) -> &'static str {
    if name.starts_with("cwx-store.cache_") {
        "query_dash"
    } else if name.starts_with("cwx-fed.")
        || name.starts_with("clusterworx.world_")
        || name.starts_with("bench.sim_")
    {
        "sim_fleet"
    } else {
        "ingest_live"
    }
}

fn keep_designated(mut outcome: Outcome, into: &mut Outcome) {
    // no end-to-end number is taken from a traced run
    outcome.metrics = outcome
        .metrics
        .into_iter()
        .filter(|m| m.kind == Kind::Layer)
        .filter_map(|m| {
            let (name, workload) = m.name.split_once('@')?;
            (source_of(name) == workload).then(|| Metric {
                name: name.to_string(),
                ..m.clone()
            })
        })
        .collect();
    into.absorb(outcome);
}

/// The traced suite at `seconds` measured seconds per workload, every
/// shape shrunk by `f` when `f < 1` (smoke tests).
pub fn traced_suite(
    seed: u64,
    seconds: f64,
    f: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sized = |s: &live::LiveShape| live::LiveShape {
        warmup_secs: (s.warmup_secs / 3.0).max(0.5),
        ..s.scaled(f)
    };
    let (dash_shape, sim_shape, twin_shape) = (
        dash::QUERY_DASH.scaled(f),
        simfleet::SIM_FLEET.scaled(f),
        TWIN.scaled(f),
    );

    keep_designated(
        live::run(&sized(&live::INGEST_LIVE), seed, seconds, 1, tracer)?,
        &mut out,
    );
    keep_designated(
        live::run(&sized(&live::LIVE_MIXED), seed, seconds, 1, tracer)?,
        &mut out,
    );
    keep_designated(dash::run(&dash_shape, seed, seconds, 1, tracer)?, &mut out);
    keep_designated(simfleet::run(&sim_shape, seed, seconds, tracer)?, &mut out);

    // the twin, spans on then off: same inputs, same counts
    let dir = crate::report::work_dir().join("twin");
    let epoch = Instant::now();
    let mut on = Tracer::new(true, epoch);
    let t_on = Instant::now();
    let counts = run_twin(&twin_shape, seed, &mut on, &dir)?;
    let wall_on = t_on.elapsed().as_secs_f64();
    let mut off = Tracer::new(false, epoch);
    let t_off = Instant::now();
    let counts_off = run_twin(&twin_shape, seed, &mut off, &dir)?;
    let wall_off = t_off.elapsed().as_secs_f64();
    out.check(
        "twin:deterministic",
        counts == counts_off,
        "two passes over the same seed did the same work, count for count",
    );
    out.metrics.extend(twin_metrics(&counts, &on.totals()));
    out.metrics.push(Metric::layer(
        "bench.trace_overhead_share",
        wall_on / wall_off.max(1e-9) - 1.0,
        "share",
        1,
    ));
    tracer.absorb(on);

    // the unattributed remainder of sim_fleet: 1 − Σ(count × unit cost) ÷ wall
    let get = |name: &str| out.get(name).map(|m| m.value);
    if let (Some(wall), Some(node_s), Some(events), Some(wheel), Some(step), Some(tick)) = (
        get("bench.sim_round_wall_s"),
        get("bench.sim_node_s_per_round"),
        get("cwx-fed.sub_events"),
        get("cwx-util.wheel_ns_per_event"),
        get("cwx-hw.step_ns_per_node"),
        get("cwx-monitor.agent_tick_us"),
    ) {
        let (hw_step_secs, agent_interval_secs) = surface::cluster_cadence_secs();
        let attributed_ns = events * wheel
            + node_s / hw_step_secs * step
            + node_s / agent_interval_secs * tick * 1e3;
        out.metrics.push(Metric::layer(
            "clusterworx.world_other_share",
            1.0 - attributed_ns / (wall * 1e9),
            "share",
            1,
        ));
    }
    // the table is exactly LAYER_METRICS: helper rows that only fed the
    // lines above are kept for the log but leave the per-layer kind, and
    // a row that failed to materialise is an error, not a silent gap
    for m in &mut out.metrics {
        if !LAYER_METRICS.iter().any(|(name, _, _)| *name == m.name) {
            m.kind = Kind::Detail;
        }
    }
    for (name, unit, _) in LAYER_METRICS {
        match out.get(name) {
            Some(m) if m.unit == *unit => {}
            Some(m) => {
                return Err(format!(
                    "per-layer metric {name} has unit {:?}, table says {unit:?}",
                    m.unit
                ))
            }
            None => return Err(format!("per-layer metric {name} was not measured")),
        }
    }
    Ok(out)
}

/// Every per-layer metric of `BENCHMARK.json`: name, unit, direction.
pub const LAYER_METRICS: &[(&str, &str, Better)] = {
    use Better::{Higher, Lower};
    &[
        ("cwx-proc.gather_us_per_tick", "us", Lower),
        ("cwx-proc.regenerations_per_tick", "count", Lower),
        ("cwx-monitor.agent_tick_us", "us", Lower),
        ("cwx-monitor.consolidate_ns_per_offer", "ns", Lower),
        ("cwx-monitor.suppressed_share", "share", Higher),
        ("cwx-monitor.encode_ns_per_value", "ns", Lower),
        ("cwx-monitor.wire_bytes_per_sample", "B", Lower),
        ("cwx-monitor.decode_ns_per_value", "ns", Lower),
        ("cwx-net.frame_ns_per_frame", "ns", Lower),
        ("cwx-net.bytes_per_frame", "B", Lower),
        ("cwx-net.server_sys_share", "share", Lower),
        ("cwx-net.ctx_switches_per_kframe", "1/kframe", Lower),
        ("clusterworx.ingest_rx_to_visible_p50_us", "us", Lower),
        ("clusterworx.ingest_rx_to_visible_p99_us", "us", Lower),
        ("clusterworx.ingest_frames", "count", Higher),
        ("clusterworx.ingest_samples", "count", Higher),
        ("clusterworx.decode_errors", "count", Lower),
        ("clusterworx.backpressure_trips", "count", Lower),
        ("clusterworx.evicted", "count", Lower),
        ("clusterworx.queries", "count", Higher),
        ("clusterworx.queries_shed", "count", Lower),
        ("clusterworx.executor_errors", "count", Lower),
        ("clusterworx.server_events_ns_per_report", "ns", Lower),
        ("clusterworx.cwq1_codec_us_per_query", "us", Lower),
        ("cwx-events.observe_ns_per_value", "ns", Lower),
        ("cwx-events.firings", "count", Lower),
        ("cwx-store.append_ns_per_sample", "ns", Lower),
        ("cwx-store.wal_bytes_per_sample", "B", Lower),
        ("cwx-store.flush_ms", "ms", Lower),
        ("cwx-store.compact_ms", "ms", Lower),
        ("cwx-store.segment_bytes_per_sample", "B", Lower),
        ("cwx-store.reopen_ms", "ms", Lower),
        ("cwx-store.read_series_ns_per_entry_raw", "ns", Lower),
        ("cwx-store.read_series_ns_per_entry_10s", "ns", Lower),
        ("cwx-store.decode_ns_per_sample", "ns", Lower),
        ("cwx-store.fold_ns_per_bucket", "ns", Lower),
        ("cwx-store.fold_ns_per_sample", "ns", Lower),
        ("cwx-store.query_ns_per_entry_scan10s", "ns", Lower),
        ("cwx-store.query_ns_per_entry_rawp99", "ns", Lower),
        ("cwx-store.query_ns_per_entry_tier5m", "ns", Lower),
        ("cwx-store.query_ns_per_entry_tier1h", "ns", Lower),
        ("cwx-store.query_ns_per_entry_recent5m", "ns", Lower),
        ("cwx-store.scanned_entries_scan10s", "count", Lower),
        ("cwx-store.scanned_entries_rawp99", "count", Lower),
        ("cwx-store.scanned_entries_tier5m", "count", Lower),
        ("cwx-store.scanned_entries_tier1h", "count", Lower),
        ("cwx-store.scanned_entries_recent5m", "count", Lower),
        ("cwx-store.cold_ms_scan10s", "ms", Lower),
        ("cwx-store.cold_ms_rawp99", "ms", Lower),
        ("cwx-store.cold_ms_tier5m", "ms", Lower),
        ("cwx-store.cold_ms_tier1h", "ms", Lower),
        ("cwx-store.cold_ms_recent5m", "ms", Lower),
        ("cwx-store.fallback_shards", "count", Lower),
        ("cwx-store.cache_hit_share_raw", "share", Higher),
        ("cwx-store.cache_hit_share_10s", "share", Higher),
        ("cwx-store.cache_hit_share_5m", "share", Higher),
        ("cwx-store.cache_hit_share_1h", "share", Higher),
        ("cwx-util.wheel_ns_per_event", "ns", Lower),
        ("cwx-hw.step_ns_per_node", "ns", Lower),
        ("cwx-fed.sub_busy_s", "s", Lower),
        ("cwx-fed.head_busy_s", "s", Lower),
        ("cwx-fed.head_busy_share", "share", Lower),
        ("cwx-fed.uplink_frames", "count", Lower),
        ("cwx-fed.uplink_bytes", "count", Lower),
        ("cwx-fed.sub_events", "count", Lower),
        ("clusterworx.world_events_per_wall_s", "1/s", Higher),
        ("clusterworx.world_other_share", "share", Lower),
        ("bench.gen_late_p99_ms", "ms", Lower),
        ("bench.frames_sent", "count", Higher),
        ("bench.samples_sent", "count", Higher),
        ("bench.trace_overhead_share", "share", Lower),
    ]
};
