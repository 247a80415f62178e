//! The chaos runner: build the cluster a `[cluster]` manifest
//! describes, inject every scheduled fault, run the invariant checker
//! alongside, and measure how the management plane coped.

use std::sync::{Arc, Mutex};

use clusterworx::{
    chassis_restart, schedule_fault, set_agent_fault, Cluster, ClusterConfig, World,
};
use cwx_icebox::ProbeFault;
use cwx_monitor::AgentFault;
use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};

use crate::fault::FaultKind;
use crate::invariants::{InvariantChecker, Violation};
use crate::manifest::Manifest;
use crate::snapshot::horizon_nanos;

/// What a chaos run produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Invariant violations (empty = the management plane kept every
    /// promise).
    pub violations: Vec<Violation>,
    /// FNV-1a fingerprint of the audit trail — identical for identical
    /// (manifest, seed) pairs.
    pub audit_hash: u64,
    /// Audit records written.
    pub audit_len: usize,
    /// Mean seconds from an outage fault to the server noticing it
    /// (NaN when the run had no detectable outage).
    pub detection_latency_secs: f64,
    /// Mean seconds from an outage fault to the node back up and
    /// reachable (NaN when nothing recovered).
    pub mttr_secs: f64,
    /// Mean fraction of the fleet up, sampled over the whole run.
    pub availability: f64,
    /// Nodes with their OS up at the end of the settle window.
    pub final_up: usize,
    /// Nodes quarantined by flap detection at the end.
    pub quarantined: Vec<u32>,
    /// Emails the notifier actually sent.
    pub emails: usize,
    /// Storm episodes the notifier rate-limited.
    pub storms: u64,
}

/// The checker and metrics are shared with event handlers, which must be
/// `Send`; a lock fails only after one of those handlers panicked.
const POISONED: &str = "a chaos event handler panicked";

/// Per-outage bookkeeping for the detection/MTTR metrics.
#[derive(Debug, Clone, Copy)]
struct Outage {
    node: u32,
    t0: SimTime,
    detected: Option<SimTime>,
    recovered: Option<SimTime>,
}

#[derive(Debug, Default)]
struct Metrics {
    outages: Vec<Outage>,
    up_samples: f64,
    samples: u64,
}

/// Apply one fault to the running world.
fn apply_fault(sim: &mut Sim<World>, kind: FaultKind) {
    let now = sim.now();
    match kind {
        FaultKind::PartitionRack(r) => {
            let seg = sim.world().rack_segment(r);
            sim.world_mut().net.partition(seg);
        }
        FaultKind::HealRack(r) => {
            let seg = sim.world().rack_segment(r);
            sim.world_mut().net.heal(seg);
        }
        FaultKind::RackLoss(r, loss) => {
            let seg = sim.world().rack_segment(r);
            sim.world_mut().net.set_loss(seg, loss);
        }
        FaultKind::RackBandwidth(r, bps) => {
            let seg = sim.world().rack_segment(r);
            sim.world_mut().net.set_bandwidth(seg, bps);
        }
        FaultKind::ChassisRestart(c) => chassis_restart(sim, c),
        FaultKind::AgentCrash(n) => set_agent_fault(sim, n, Some(AgentFault::Crashed)),
        FaultKind::AgentHang(n, secs) => set_agent_fault(
            sim,
            n,
            Some(AgentFault::Hung {
                until: Some(now + SimDuration::from_secs_f64(secs)),
            }),
        ),
        FaultKind::AgentDelay(n, secs) => set_agent_fault(
            sim,
            n,
            Some(AgentFault::DelayedReports {
                extra: SimDuration::from_secs_f64(secs),
            }),
        ),
        FaultKind::AgentDuplicate(n) => {
            set_agent_fault(sim, n, Some(AgentFault::DuplicatedReports))
        }
        FaultKind::AgentRecover(n) => set_agent_fault(sim, n, None),
        FaultKind::KernelPanic(n) => schedule_fault(sim, now, n, cwx_hw::node::Fault::KernelPanic),
        FaultKind::FanFailure(n) => schedule_fault(sim, now, n, cwx_hw::node::Fault::FanFailure),
        FaultKind::PsuFailure(n) => schedule_fault(sim, now, n, cwx_hw::node::Fault::PsuFailure),
        FaultKind::MemoryLeak(n) => schedule_fault(sim, now, n, cwx_hw::node::Fault::MemoryLeak),
        FaultKind::ProbeStuck(n) => {
            let (bx, port) = World::rack_of(n);
            sim.world_mut().iceboxes[bx].set_probe_fault(port, Some(ProbeFault::Stuck));
        }
        FaultKind::ProbeSkew(n, delta) => {
            let (bx, port) = World::rack_of(n);
            sim.world_mut().iceboxes[bx]
                .set_probe_fault(port, Some(ProbeFault::Skewed { delta_c: delta }));
        }
        FaultKind::ProbeClear(n) => {
            let (bx, port) = World::rack_of(n);
            sim.world_mut().iceboxes[bx].set_probe_fault(port, None);
        }
        FaultKind::ConsoleGarbage(n) => {
            let (bx, port) = World::rack_of(n);
            let seed = sim.world().cfg.seed ^ (n as u64);
            sim.world_mut().iceboxes[bx].feed_garbage(port, seed, 256);
        }
        FaultKind::ClusterDisconnect(_) | FaultKind::ClusterHeal(_) => {
            unreachable!("a parsed [cluster] manifest has no {kind}")
        }
    }
}

/// Run a `[cluster]` manifest's fault schedule on the cluster it
/// describes, checking its `[invariants]` policy throughout, and hand
/// back the report with the finished simulation so callers can dig
/// into the audit trail, outbox or per-node state beyond what the
/// report summarises.
///
/// # Panics
///
/// If `m` is a `[federation]` manifest, or schedules a federation fault
/// (a parsed manifest never does).
pub fn run_chaos(m: &Manifest) -> (CampaignReport, Sim<World>) {
    run_chaos_observed(m, &[], &mut |_, _| {})
}

/// [`run_chaos`], pausing at each time in `observe_at` (simulated
/// nanoseconds, strictly ascending — nanos, not seconds, so a capture
/// time recorded in a snapshot file replays to the exact same instant)
/// to hand the paused simulation to `observer` read-only — the snapshot
/// subsystem's capture hook.
///
/// The pauses are fingerprint-neutral: the run is split with
/// [`Sim::run_until`], which executes exactly the events a straight
/// run would, allocates no sequence numbers, and advances the clock to
/// each boundary exactly as the unsplit run does — so a run observed at
/// any set of times is byte-identical to one never observed at all
/// (pinned by `observed_run_is_fingerprint_neutral`).
pub(crate) fn run_chaos_observed(
    m: &Manifest,
    observe_at: &[u64],
    observer: &mut dyn FnMut(u64, &Sim<World>),
) -> (CampaignReport, Sim<World>) {
    let spec = m.chaos().expect("run_chaos needs a [cluster] manifest");
    assert!(
        spec.rack_network
            || !m.faults.iter().any(|(_, k)| {
                matches!(k, FaultKind::PartitionRack(_) | FaultKind::HealRack(_))
            }),
        "rack partitions need rack_network"
    );
    let n = spec.n_nodes;
    let mut cfg = ClusterConfig {
        n_nodes: n,
        seed: m.seed,
        rack_network: spec.rack_network,
        ..ClusterConfig::default()
    };
    if let Some(t) = spec.flap_threshold {
        cfg.flap_threshold = t;
    }
    if let Some(secs) = spec.quarantine_release_secs {
        cfg.quarantine_release_after = Some(SimDuration::from_secs_f64(secs));
    }
    let policy = spec.policy;
    let mut sim = Cluster::build(cfg);

    let checker = Arc::new(Mutex::new(InvariantChecker::new(n, policy)));
    let metrics = Arc::new(Mutex::new(Metrics::default()));

    // the fault schedule
    for &(at_secs, kind) in &m.faults {
        let checker = Arc::clone(&checker);
        let metrics = Arc::clone(&metrics);
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            move |sim| {
                let nodes = outage_nodes(sim.world(), kind);
                if !nodes.is_empty() {
                    let now = sim.now();
                    let mut m = metrics.lock().expect(POISONED);
                    m.outages.extend(nodes.into_iter().map(|node| Outage {
                        node,
                        t0: now,
                        detected: None,
                        recovered: None,
                    }));
                }
                apply_fault(sim, kind);
                if destructive(kind) {
                    // the archive must survive every kill
                    let checker = Arc::clone(&checker);
                    sim.schedule_in(SimDuration::from_secs(1), move |sim| {
                        checker
                            .lock()
                            .expect(POISONED)
                            .check_store_readable(sim.now(), sim.world());
                    });
                }
            },
        );
    }

    // the runtime scan: stuck-transient checks, metric sampling
    {
        let checker = Arc::clone(&checker);
        let metrics = Arc::clone(&metrics);
        let every = SimDuration::from_secs_f64(policy.check_every_secs.max(1.0));
        sim.schedule_every(every, move |sim| {
            let now = sim.now();
            let w = sim.world();
            checker.lock().expect(POISONED).scan(now, w);
            let mut m = metrics.lock().expect(POISONED);
            m.up_samples += w.up_count() as f64 / w.nodes.len().max(1) as f64;
            m.samples += 1;
            for o in m.outages.iter_mut() {
                let hw_up = w.nodes[o.node as usize].hw.is_up();
                let reachable = w
                    .server
                    .node_status(o.node)
                    .map(|s| s.reachable)
                    .unwrap_or(false);
                if o.detected.is_none() && (!reachable || !hw_up) {
                    o.detected = Some(now);
                }
                if o.detected.is_some() && o.recovered.is_none() && hw_up && reachable {
                    o.recovered = Some(now);
                }
            }
            true
        });
    }

    let total_n = horizon_nanos(m);
    debug_assert!(
        observe_at.windows(2).all(|w| w[0] < w[1]),
        "observe_at must be strictly ascending"
    );
    for &t in observe_at.iter().filter(|&&t| t <= total_n) {
        sim.run_until(SimTime::ZERO + SimDuration::from_nanos(t));
        observer(t, &sim);
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_nanos(total_n));

    // end-of-run checks over the full record
    let now = sim.now();
    {
        let mut ck = checker.lock().expect(POISONED);
        let w = sim.world();
        ck.check_transition_legality(w);
        ck.check_command_accounting(now, w);
        ck.check_convergence(now, w);
    }

    let w = sim.world();
    let metrics = metrics.lock().expect(POISONED);
    let det: Vec<f64> = metrics
        .outages
        .iter()
        .filter_map(|o| o.detected.map(|t| t.since(o.t0).as_secs_f64()))
        .collect();
    let rec: Vec<f64> = metrics
        .outages
        .iter()
        .filter_map(|o| o.recovered.map(|t| t.since(o.t0).as_secs_f64()))
        .collect();
    let quarantined: Vec<u32> = (0..n).filter(|&i| w.control.quarantined(i)).collect();
    let violations = checker.lock().expect(POISONED).violations().to_vec();
    let report = CampaignReport {
        violations,
        audit_hash: cwx_util::hash::fnv1a_debug(w.control.audit()),
        audit_len: w.control.audit().len(),
        detection_latency_secs: mean(&det),
        mttr_secs: mean(&rec),
        availability: if metrics.samples == 0 {
            f64::NAN
        } else {
            metrics.up_samples / metrics.samples as f64
        },
        final_up: w.up_count(),
        quarantined,
        emails: w.server.outbox().len(),
        storms: w.server.storms(),
    };
    (report, sim)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn destructive(kind: FaultKind) -> bool {
    matches!(
        kind,
        FaultKind::KernelPanic(_)
            | FaultKind::PsuFailure(_)
            | FaultKind::ChassisRestart(_)
            | FaultKind::AgentCrash(_)
    )
}

/// The nodes an outage fault takes down, which the availability and
/// MTTR metrics track; empty for every other kind.
fn outage_nodes(w: &World, kind: FaultKind) -> Vec<u32> {
    match kind {
        FaultKind::KernelPanic(n) | FaultKind::PsuFailure(n) => vec![n],
        FaultKind::PartitionRack(rack) => (0..w.nodes.len() as u32)
            .filter(|&n| World::rack_of(n).0 == rack)
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_run_is_fingerprint_neutral() {
        let m = Manifest::parse(
            r#"
scenario_version = 1
name = "observer-neutrality"
seed = 11

[cluster]
nodes = 20

[run]
duration = 900
settle = 300

[[fault]]
at = 100
kind = "kernel-panic"
node = 3

[[fault]]
at = 250
kind = "agent-crash"
node = 7

[[fault]]
at = 400
kind = "probe-skew"
node = 5
delta = 12.0
"#,
        )
        .expect("parses");
        let straight = run_chaos(&m);
        let mut captures = Vec::new();
        let observed = run_chaos_observed(
            &m,
            &[50_000_000_000, 250_000_000_000, 777_500_000_000],
            &mut |t, sim| captures.push((t, sim.now().as_nanos(), sim.events_executed())),
        );
        assert_eq!(captures.len(), 3, "observer fires at every requested time");
        assert_eq!(
            straight.0.audit_hash, observed.0.audit_hash,
            "pausing to observe must not change the audit trail"
        );
        assert_eq!(straight.0.final_up, observed.0.final_up);
        assert_eq!(
            straight.1.events_executed(),
            observed.1.events_executed(),
            "same events dispatched with and without pauses"
        );
    }
}
