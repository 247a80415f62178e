//! End-to-end integration: the full managed-cluster lifecycle across
//! every crate — boot, monitor, fail, heal, observe.

use clusterworx::world::{power_off_node, power_on_node, schedule_fault};
use clusterworx::{dashboard, Cluster, ClusterConfig, WorkloadMix, World};
use cwx_events::Action;
use cwx_hw::node::Fault;
use cwx_hw::HealthState;
use cwx_util::time::{SimDuration, SimTime};

#[test]
fn full_lifecycle_with_mixed_failures() {
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 24,
        seed: 99,
        workload: WorkloadMix::Constant(0.9),
        ..Default::default()
    });

    // phase 1: everything boots and reports
    sim.run_for(SimDuration::from_secs(300));
    assert_eq!(sim.world().up_count(), 24);
    let early_reports = sim.world().server.stats().reports_rx;
    assert!(early_reports > 24 * 20, "agents reporting: {early_reports}");

    // phase 2: three different failures at once
    let base = sim.now();
    schedule_fault(
        &mut sim,
        base + SimDuration::from_secs(10),
        3,
        Fault::FanFailure,
    );
    schedule_fault(
        &mut sim,
        base + SimDuration::from_secs(20),
        7,
        Fault::KernelPanic,
    );
    schedule_fault(
        &mut sim,
        base + SimDuration::from_secs(30),
        11,
        Fault::PsuFailure,
    );
    sim.run_for(SimDuration::from_secs(900));

    let w = sim.world();
    // fan failure: powered down before burning
    assert!(w
        .action_log()
        .iter()
        .any(|a| a.node == 3 && a.action == Action::PowerDown));
    assert_ne!(w.nodes[3].hw.health(), HealthState::Burned);
    // kernel panic: rebooted and healthy again
    assert!(w
        .action_log()
        .iter()
        .any(|a| a.node == 7 && a.action == Action::Reboot));
    assert!(w.nodes[7].hw.is_up(), "panicked node must be healed");
    // PSU failure: dead silicon — node stays dark, server notices
    assert!(!w.nodes[11].hw.is_up());
    assert!(!w
        .server
        .node_status(11)
        .map(|s| s.reachable)
        .unwrap_or(true));

    // mail went out, bounded by episode dedup
    assert!(!w.server.outbox().is_empty());

    // dashboard reflects reality
    let rows = dashboard::rows(w, sim.now());
    assert_eq!(rows[3].status, "off");
    assert_eq!(rows[7].status, "up");
    // history kept flowing for healthy nodes the whole time (uptime
    // changes every tick, so delta consolidation never suppresses it)
    let hist = w
        .server
        .history()
        .range(0, "uptime.secs", SimTime::ZERO, sim.now());
    assert!(hist.len() > 100, "continuous history: {}", hist.len());
    // while a constant monitor is (correctly) sparse under delta
    let sparse = w
        .server
        .history()
        .range(0, "cpu.util_pct", SimTime::ZERO, sim.now());
    assert!(
        sparse.len() < hist.len() / 4,
        "delta suppresses constants: {}",
        sparse.len()
    );
}

#[test]
fn administrative_power_control_round_trip() {
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 6,
        seed: 5,
        ..Default::default()
    });
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(sim.world().up_count(), 6);

    // administrator takes node 2 down, later brings it back
    power_off_node(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(60));
    assert_eq!(sim.world().up_count(), 5);
    let (bx, port) = World::rack_of(2);
    assert!(!sim.world().iceboxes[bx].relay_on(port));

    power_on_node(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(sim.world().up_count(), 6);
    // the rebooted node resumed reporting with a fresh agent
    assert!(sim.world().server.node_status(2).unwrap().reachable);
    // and its second boot is in the console capture
    let log = sim.world().iceboxes[bx].console_log(port);
    assert!(
        log.matches("Testing DRAM: done").count() >= 2,
        "two boots on the console"
    );
}

#[test]
fn consolidation_ablation_visible_at_cluster_level() {
    let run = |delta| {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 10,
            seed: 3,
            delta_enabled: delta,
            // the ablation measures the paper's wire, text + LZSS
            text_wire: true,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(400));
        sim.world().server.stats().bytes_rx
    };
    let with_delta = run(true);
    let without = run(false);
    assert!(
        with_delta * 2 < without,
        "delta consolidation halves server ingest at least: {with_delta} vs {without}"
    );
}

#[test]
fn cluster_simulation_is_deterministic() {
    let run = || {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 12,
            seed: 777,
            workload: WorkloadMix::Mixed,
            loss: 0.01,
            ..Default::default()
        });
        schedule_fault(
            &mut sim,
            SimTime::ZERO + SimDuration::from_secs(200),
            5,
            Fault::FanFailure,
        );
        sim.run_for(SimDuration::from_secs(600));
        let w = sim.world();
        (
            w.server.stats(),
            w.action_log().len(),
            w.server.outbox().len(),
            w.net.stats(),
            sim.events_executed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn memory_leak_is_flagged_then_oom_heals_by_reboot() {
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 4,
        seed: 44,
        workload: WorkloadMix::Constant(0.2),
        ..Default::default()
    });
    sim.run_for(SimDuration::from_secs(120));
    let when = sim.now() + SimDuration::from_secs(10);
    schedule_fault(&mut sim, when, 2, Fault::MemoryLeak);
    // the leak takes minutes to fill 1 GiB RAM + 2 GiB swap
    sim.run_for(SimDuration::from_secs(900));
    {
        let w = sim.world();
        // the administrator was warned about swap pressure before the OOM
        assert!(
            w.server
                .outbox()
                .iter()
                .any(|m| m.event == "swap-pressure" && m.nodes == vec![2]),
            "swap warning missing: {:?}",
            w.server
                .outbox()
                .iter()
                .map(|m| &m.subject)
                .collect::<Vec<_>>()
        );
    }
    // run long enough for the OOM panic and the connectivity-driven heal
    sim.run_for(SimDuration::from_secs(1200));
    let w = sim.world();
    assert!(
        w.action_log()
            .iter()
            .any(|a| a.node == 2 && a.action == Action::Reboot),
        "OOM panic must be healed by reboot: {:?}",
        w.action_log()
    );
    assert!(w.nodes[2].hw.is_up(), "node back after the OOM reboot");
    // the OOM kill is on the ICE Box console for post-mortem
    let (bx, port) = World::rack_of(2);
    assert!(w.iceboxes[bx].console_log(port).contains("Out of Memory"));
    // swap is healthy again, so the episode closed
    let hist = w.server.history().latest(2, "swap.free").unwrap();
    assert!(hist.value > 1_500_000.0, "swap recovered: {}", hist.value);
}
