//! Monitoring under a degraded management network: lost reports must
//! degrade gracefully (staleness, not crashes), corrupt payloads must be
//! counted and dropped, and the cluster must stay managed throughout.

use clusterworx::world::deliver_report;
use clusterworx::{Cluster, ClusterConfig, WorkloadMix};
use cwx_util::time::{SimDuration, SimTime};

#[test]
fn report_loss_degrades_gracefully() {
    // 20% loss on the management segment — brutal, but the system must
    // keep functioning
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 10,
        seed: 17,
        loss: 0.20,
        workload: WorkloadMix::Mixed,
        ..Default::default()
    });
    sim.run_for(SimDuration::from_secs(900));
    let w = sim.world();

    // all nodes still up; most reports arrive
    assert_eq!(w.up_count(), 10);
    let st = w.server.stats();
    assert_eq!(
        st.decode_errors, 0,
        "loss drops whole datagrams, never corrupts them"
    );
    let net = w.net.stats();
    assert!(net.lost > 0, "the network actually lost traffic: {net:?}");
    // a lost delta leaves the next one refused, not mis-decoded, and the
    // server asks that agent for a reset frame
    assert!(st.refused > 0, "the decoder refused deltas: {st:?}");
    assert!(w.resync_requests > 0, "refusals were answered");
    // history still accumulates for every node despite holes
    for i in 0..10 {
        let hist = w
            .server
            .history()
            .range(i, "uptime.secs", SimTime::ZERO, sim.now());
        assert!(hist.len() > 50, "node{i} history too thin: {}", hist.len());
    }
}

#[test]
fn total_silence_marks_nodes_unreachable_but_recovers() {
    // 100% loss: the server hears nothing at all after boot
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 4,
        seed: 18,
        loss: 0.0,
        ..Default::default()
    });
    sim.run_for(SimDuration::from_secs(120));
    assert!(sim.world().server.node_status(0).unwrap().reachable);

    // the segment deteriorates to total loss mid-run
    // (cwx-net loss is fixed per segment, so emulate by building a
    //  second cluster at loss=1.0 and checking it never becomes
    //  reachable — the complementary assertion)
    let mut dead = Cluster::build(ClusterConfig {
        n_nodes: 4,
        seed: 18,
        loss: 1.0,
        ..Default::default()
    });
    dead.run_for(SimDuration::from_secs(600));
    let w = dead.world();
    // the hardware itself is fine — only the network is dead — but the
    // server cannot know that, so it reboots nodes trying to heal them
    // (reboot thrash is the correct emergent behaviour of the paper's
    // "UDP echo ... to ensure network connectivity" rule)
    assert!(w
        .nodes
        .iter()
        .all(|n| n.hw.health() == cwx_hw::HealthState::Healthy));
    for i in 0..4 {
        let reachable = w
            .server
            .node_status(i)
            .map(|s| s.reachable)
            .unwrap_or(false);
        assert!(!reachable, "node{i} must read unreachable under total loss");
    }
    // and the UDP-echo rule asked for reboots trying to heal them
    assert!(
        w.action_log()
            .iter()
            .any(|a| a.action == cwx_events::Action::Reboot),
        "{:?}",
        w.action_log()
    );
}

#[test]
fn corrupt_payloads_are_counted_not_fatal() {
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 3,
        seed: 19,
        ..Default::default()
    });
    sim.run_for(SimDuration::from_secs(120));
    // a misbehaving client blasts garbage at the server port
    for junk in [
        &b"total garbage"[..],
        b"CWZ1\xff\xff\xff\xff",
        b"",
        b"CWX1 node=x",
    ] {
        deliver_report(&mut sim, junk);
    }
    sim.run_for(SimDuration::from_secs(60));
    let st = sim.world().server.stats();
    assert_eq!(st.decode_errors, 4);
    // normal operation continued around the garbage
    assert_eq!(sim.world().up_count(), 3);
    assert!(st.reports_rx > 30);
}
