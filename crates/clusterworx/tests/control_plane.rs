//! The control plane is one state machine with two drivers: the
//! discrete-event simulation and the wall-clock realtime deployment.
//! These tests prove (a) both drivers walk the identical lifecycle
//! transitions for the same administrative action script, and (b) under
//! heavy chassis-command loss every fired power action terminates in the
//! audit trail — completed or failed after bounded retries, never
//! silently dropped.

use std::time::Duration;

use clusterworx::world::{power_off_node, power_on_node};
use clusterworx::{
    AuditEntry, AuditRecord, Cluster, ClusterConfig, LifecycleState, RealTimeConfig,
    RealTimeDeployment, SuppressReason, WorkloadMix,
};
use cwx_events::Action;
use cwx_util::time::{SimDuration, SimTime};

/// A node's story as the audit trail tells it: lifecycle transitions
/// plus suppressed actions, with the boot/adoption prefix (everything
/// through the first arrival at `Up`) stripped. The simulation boots
/// `Off → PoweringOn → Bios → Up`; the realtime deployment adopts a
/// running fleet with a forced `Off → Up`. After that first `Up` the
/// two must agree exactly.
type Story = (
    Vec<(LifecycleState, LifecycleState)>,
    Vec<(Action, SuppressReason)>,
);

fn node_story(audit: &[AuditRecord], node: u32) -> Story {
    let mut transitions = Vec::new();
    let mut suppressed = Vec::new();
    for r in audit {
        if r.node != Some(node) {
            continue;
        }
        match &r.entry {
            AuditEntry::Transition { from, to } => transitions.push((*from, *to)),
            AuditEntry::ActionSuppressed { action, reason } => {
                suppressed.push((action.clone(), *reason))
            }
            _ => {}
        }
    }
    if let Some(pos) = transitions
        .iter()
        .position(|(_, to)| *to == LifecycleState::Up)
    {
        transitions.drain(..=pos);
    }
    (transitions, suppressed)
}

/// The script both deployments execute: a power-down, a reboot, a halt,
/// and — once the power-down has landed — a duplicate power-down that
/// the dedup rules must suppress.
const DOWN_NODE: u32 = 1;
const REBOOT_NODE: u32 = 2;
const HALT_NODE: u32 = 0;

#[test]
fn sim_and_realtime_drive_identical_state_machines() {
    // --- the simulated deployment runs the script on virtual time
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 3,
        seed: 71,
        workload: WorkloadMix::Constant(0.3),
        ..Default::default()
    });
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(sim.world().up_count(), 3, "fleet must boot first");
    let now = sim.now();
    let srv = &mut sim.world_mut().server;
    srv.request_action(now, DOWN_NODE, Action::PowerDown);
    srv.request_action(now, REBOOT_NODE, Action::Reboot);
    srv.request_action(now, HALT_NODE, Action::Halt);
    sim.run_for(SimDuration::from_secs(60));
    let now = sim.now();
    sim.world_mut()
        .server
        .request_action(now, DOWN_NODE, Action::PowerDown);
    sim.run_for(SimDuration::from_secs(60));
    let sim_audit: Vec<AuditRecord> = sim.world().control.audit().to_vec();

    // --- the realtime deployment runs the same script on the wall clock
    let dep = RealTimeDeployment::start(RealTimeConfig {
        n_nodes: 3,
        interval: Duration::from_millis(10),
        ..RealTimeConfig::default()
    });
    dep.control()
        .lock()
        .set_reboot_delay(SimDuration::from_millis(200));
    std::thread::sleep(Duration::from_millis(150)); // fleet adoption settles
    {
        let server = dep.server();
        let mut s = server.write();
        s.request_action(SimTime::ZERO, DOWN_NODE, Action::PowerDown);
        s.request_action(SimTime::ZERO, REBOOT_NODE, Action::Reboot);
        s.request_action(SimTime::ZERO, HALT_NODE, Action::Halt);
    }
    // reboot budget: off + 200ms pause + sequenced energize + 100ms boot
    std::thread::sleep(Duration::from_millis(2500));
    dep.server()
        .write()
        .request_action(SimTime::ZERO, DOWN_NODE, Action::PowerDown);
    std::thread::sleep(Duration::from_millis(400));
    let control = dep.control();
    dep.shutdown();
    let rt_audit: Vec<AuditRecord> = control.lock().audit().to_vec();

    // --- identical transitions and identical dedup decisions, per node
    for node in 0..3u32 {
        let sim_story = node_story(&sim_audit, node);
        let rt_story = node_story(&rt_audit, node);
        assert_eq!(
            sim_story, rt_story,
            "node{node}: sim and realtime walked different state machines"
        );
    }
    // sanity that the script actually exercised the machine
    let (down_t, down_s) = node_story(&sim_audit, DOWN_NODE);
    assert_eq!(
        down_t,
        vec![(LifecycleState::Up, LifecycleState::Off)],
        "power-down lifecycle"
    );
    assert_eq!(
        down_s,
        vec![(Action::PowerDown, SuppressReason::PoweredOff)],
        "duplicate suppressed on both sides"
    );
    let (reboot_t, _) = node_story(&sim_audit, REBOOT_NODE);
    assert_eq!(
        reboot_t,
        vec![
            (LifecycleState::Up, LifecycleState::Off),
            (LifecycleState::Off, LifecycleState::PoweringOn),
            (LifecycleState::PoweringOn, LifecycleState::Bios),
            (LifecycleState::Bios, LifecycleState::Up),
        ],
        "reboot lifecycle"
    );
    let (halt_t, _) = node_story(&sim_audit, HALT_NODE);
    assert_eq!(
        halt_t,
        vec![(LifecycleState::Up, LifecycleState::Halted)],
        "halt lifecycle"
    );
}

#[test]
fn lossy_chassis_commands_always_terminate_in_audit() {
    // 10% of chassis commands vanish in transit; a burst of power
    // cycles must still leave zero commands in flight and a terminal
    // audit record (completed or failed) for every command that went on
    // the wire.
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 12,
        seed: 4242,
        workload: WorkloadMix::Constant(0.3),
        icebox_command_loss: 0.10,
        ..Default::default()
    });
    sim.run_for(SimDuration::from_secs(200));
    for n in 0..12 {
        power_off_node(&mut sim, n);
    }
    sim.run_for(SimDuration::from_secs(120));
    for n in 0..12 {
        power_on_node(&mut sim, n);
    }
    sim.run_for(SimDuration::from_secs(240));
    for n in 0..6 {
        power_off_node(&mut sim, n);
    }
    sim.run_for(SimDuration::from_secs(240));

    let cp = &sim.world().control;
    assert_eq!(cp.outstanding(), 0, "no command may be left in flight");
    let stats = cp.stats();
    assert!(
        stats.retries > 0,
        "10% loss over 30 commands must cause retries: {stats:?}"
    );
    let (mut fired, mut completed, mut failed) = (0u64, 0u64, 0u64);
    for r in cp.audit() {
        match &r.entry {
            AuditEntry::CommandIssued { attempt: 1, .. } => fired += 1,
            AuditEntry::CommandCompleted { .. } => completed += 1,
            AuditEntry::CommandFailed { .. } => failed += 1,
            _ => {}
        }
    }
    assert!(fired >= 30, "the burst reached the wire: {fired}");
    assert_eq!(
        fired,
        completed + failed,
        "every fired command must reach a terminal audit state"
    );
    assert_eq!(
        completed + failed,
        stats.commands_completed + stats.commands_failed,
        "stats agree with the audit trail"
    );
}
