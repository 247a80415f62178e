//! `sim_fleet`: the simulator path — timing wheel, hardware stepping,
//! agent ticks, event engine, world/server/MemStore, federation head.
//! No sockets, no disk.
//!
//! A *round* builds a federation, boots it (set-up, untimed), then
//! steps a fixed stretch of simulated time one uplink epoch at a time
//! with one cluster cut off and healed along the way. The simulated
//! work per round is fixed, so every `[C]` count and the head's audit
//! hash must repeat exactly; rounds repeat until the measured wall time
//! reaches `--seconds`, which also gives several set-up samples per run.

use std::time::Instant;

use crate::procfs;
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::surface::{Fleet, FleetCounters};
use crate::trace::Tracer;

/// Shape of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct SimShape {
    /// Sub-clusters.
    pub clusters: u16,
    /// Nodes per sub-cluster.
    pub nodes_per: u32,
    /// Simulated seconds of boot before the timed stretch.
    pub boot_secs: u64,
    /// Timed simulated seconds.
    pub timed_secs: u64,
    /// Cluster whose uplink is cut, and when (seconds into the timed
    /// stretch) it is cut and healed.
    pub partition: (u16, u64, u64),
}

/// 4 clusters × 1250 nodes; 60 s boot, then 100 simulated seconds with
/// cluster 2 cut off from +10 s to +60 s (long enough for the head to
/// mark it stale, short enough to settle before the round ends).
pub const SIM_FLEET: SimShape = SimShape {
    clusters: 4,
    nodes_per: 1250,
    boot_secs: 60,
    timed_secs: 100,
    partition: (2, 10, 60),
};

impl SimShape {
    /// Shrink the clusters by `f` (smoke tests).
    pub fn scaled(&self, f: f64) -> SimShape {
        if f >= 1.0 {
            return self.clone();
        }
        SimShape {
            nodes_per: ((self.nodes_per as f64 * f) as u32).max(8),
            ..self.clone()
        }
    }

    fn nodes(&self) -> u64 {
        self.clusters as u64 * self.nodes_per as u64
    }
}

struct Round {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    epoch_ms: Vec<f64>,
    counters: FleetCounters,
    census_ok: bool,
    nodes_up: u32,
}

fn round(shape: &SimShape, seed: u64, tracer: &mut Tracer, round_no: u64) -> Round {
    let t0 = Instant::now();
    let mut fleet = Fleet::build(seed, shape.clusters, shape.nodes_per);
    fleet.run_for(shape.boot_secs);
    let setup_s = t0.elapsed().as_secs_f64();
    let before = fleet.counters();

    let epoch = fleet.epoch_secs().max(1);
    let (cluster, cut_at, heal_at) = shape.partition;
    let mut epoch_ms = Vec::new();
    let cpu0 = procfs::sample(None).cpu_s();
    let t_run = Instant::now();
    let mut at = 0;
    while at < shape.timed_secs {
        if at == cut_at {
            fleet.disconnect(cluster);
        }
        if at == heal_at {
            fleet.heal(cluster);
        }
        let step = epoch.min(shape.timed_secs - at);
        let e0 = Instant::now();
        tracer.span("fed.run_for", round_no * 1_000_000 + at, |_| {
            fleet.run_for(step)
        });
        epoch_ms.push(e0.elapsed().as_secs_f64() * 1e3);
        at += step;
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    let cpu_s = procfs::sample(None).cpu_s() - cpu0;
    let after = fleet.counters();
    Round {
        setup_s,
        wall_s,
        cpu_s,
        epoch_ms,
        counters: FleetCounters {
            sub_busy_s: after.sub_busy_s - before.sub_busy_s,
            head_busy_s: after.head_busy_s - before.head_busy_s,
            sub_events: after.sub_events - before.sub_events,
            uplink_frames: after.uplink_frames - before.uplink_frames,
            uplink_bytes: after.uplink_bytes - before.uplink_bytes,
            audit_hash: after.audit_hash,
        },
        census_ok: fleet.census_matches(),
        nodes_up: fleet.nodes_up(),
    }
}

/// Run rounds until `seconds` of timed stepping have been measured.
pub fn run(
    shape: &SimShape,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    // stop where one more round would overshoot `seconds` by more than
    // stopping undershoots it
    let mut last = 0.0;
    while rounds.is_empty() || measured + last / 2.0 < seconds {
        let r = round(shape, seed, tracer, rounds.len() as u64);
        last = r.wall_s;
        measured += last;
        rounds.push(r);
    }
    let proc1 = procfs::sample(None);

    let first = &rounds[0];
    out.check(
        "sim:census",
        rounds.iter().all(|r| r.census_ok),
        "head aggregate equals the sub-clusters' ground truth after the heal",
    );
    out.check(
        "sim:all_up",
        rounds.iter().all(|r| r.nodes_up as u64 == shape.nodes()),
        format!(
            "{} of {} nodes up after heal + settle",
            first.nodes_up,
            shape.nodes()
        ),
    );
    // same seed, same simulated work: every count must repeat exactly
    let same =
        |f: fn(&FleetCounters) -> u64| rounds.iter().all(|r| f(&r.counters) == f(&first.counters));
    let deterministic = same(|c| c.audit_hash)
        && same(|c| c.sub_events)
        && same(|c| c.uplink_frames)
        && same(|c| c.uplink_bytes);
    out.check(
        "sim:deterministic",
        deterministic,
        format!(
            "{} same-seed rounds, audit hash {:016x}",
            rounds.len(),
            first.counters.audit_hash
        ),
    );
    out.attempted += rounds.iter().map(|r| r.epoch_ms.len() as u64).sum::<u64>();

    let node_s = (shape.nodes() * shape.timed_secs) as f64;
    let rates: Vec<f64> = rounds.iter().map(|r| node_s / r.wall_s).collect();
    let epochs = stats::sorted(
        &rounds
            .iter()
            .flat_map(|r| r.epoch_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let setups = stats::sorted(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let m = &mut out.metrics;
    m.push(Metric::gated(
        "setup_s",
        stats::median(&setups),
        "s",
        setups.len() as u64,
    ));
    m.push(Metric::detail("peak_rss_mib", proc1.peak_rss_mib, "MiB", 1));
    m.push(Metric::gated(
        "cpu_us_per_kunit",
        cpu_s * 1e9 / (node_s * rounds.len() as f64),
        "us",
        rounds.len() as u64,
    ));
    m.push(Metric::gated(
        "bytes_per_kunit",
        first.counters.uplink_bytes as f64 * 1e3 / node_s,
        "B",
        rounds.len() as u64,
    ));
    m.push(Metric::gated(
        "op_p50_ms",
        stats::median(&epochs),
        "ms",
        epochs.len() as u64,
    ));
    m.push(Metric::detail(
        "sim_epoch_p50_ms",
        stats::median(&epochs),
        "ms",
        epochs.len() as u64,
    ));
    m.push(Metric::detail(
        "sim_node_s_per_wall_s",
        stats::median(&stats::sorted(&rates)),
        "1/s",
        rates.len() as u64,
    ));
    let c = &first.counters;
    let med = |f: fn(&Round) -> f64| {
        stats::median(&stats::sorted(&rounds.iter().map(f).collect::<Vec<_>>()))
    };
    let sub_busy = med(|r| r.counters.sub_busy_s);
    let head_busy = med(|r| r.counters.head_busy_s);
    let round_wall = med(|r| r.wall_s);
    for (name, v, unit) in [
        ("cwx-fed.sub_busy_s", sub_busy, "s"),
        ("cwx-fed.head_busy_s", head_busy, "s"),
        (
            "cwx-fed.head_busy_share",
            head_busy / (head_busy + sub_busy).max(1e-12),
            "share",
        ),
        ("cwx-fed.uplink_frames", c.uplink_frames as f64, "count"),
        ("cwx-fed.uplink_bytes", c.uplink_bytes as f64, "count"),
        ("cwx-fed.sub_events", c.sub_events as f64, "count"),
        (
            "clusterworx.world_events_per_wall_s",
            c.sub_events as f64 / round_wall.max(1e-9),
            "1/s",
        ),
        ("bench.sim_round_wall_s", round_wall, "s"),
        ("bench.sim_node_s_per_round", node_s, "count"),
    ] {
        m.push(Metric::layer(
            format!("{name}@sim_fleet"),
            v,
            unit,
            rounds.len() as u64,
        ));
    }
    Ok(out)
}
