//! Fixed-seed determinism: the acceptance contract for the scaled
//! engine. A seeded run must produce a byte-identical action/audit
//! trail run-to-run, and the benchmark's fleet shape stays pinned.

use clusterworx::config::{ClusterConfig, WorkloadMix};
use clusterworx::world::schedule_fault;
use clusterworx::Cluster;
use cwx_hw::Fault;
use cwx_util::time::{SimDuration, SimTime};

/// Drive a busy little cluster (boots, faults, event-engine actions,
/// reports) and serialize everything observable about the run.
fn run_trace(seed: u64) -> String {
    run_trace_of(24, 600, seed)
}

fn run_trace_of(n_nodes: u32, secs: u64, seed: u64) -> String {
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes,
        seed,
        workload: WorkloadMix::Mixed,
        ..Default::default()
    });
    schedule_fault(
        &mut sim,
        SimTime::ZERO + SimDuration::from_secs(120),
        3,
        Fault::FanFailure,
    );
    schedule_fault(
        &mut sim,
        SimTime::ZERO + SimDuration::from_secs(200),
        17,
        Fault::KernelPanic,
    );
    sim.run_for(SimDuration::from_secs(secs));
    let w = sim.world();
    let mut out = String::new();
    use std::fmt::Write;
    for a in &w.action_log() {
        writeln!(out, "{} node{} {:?}", a.time.as_nanos(), a.node, a.action).unwrap();
    }
    for r in w.control.audit() {
        writeln!(
            out,
            "audit {} {} {:?} {:?}",
            r.seq,
            r.time.as_nanos(),
            r.node,
            r.entry
        )
        .unwrap();
    }
    writeln!(out, "stats {:?}", w.server.stats()).unwrap();
    writeln!(out, "history {}", w.server.history().total_samples()).unwrap();
    writeln!(out, "outbox {}", w.server.outbox().len()).unwrap();
    writeln!(out, "up {}", w.up_count()).unwrap();
    writeln!(out, "events {}", sim.events_executed()).unwrap();
    for (i, st) in w.nodes.iter().enumerate() {
        writeln!(
            out,
            "node{} temp {:.9} watts {:.9} up {}",
            i,
            st.hw.temperature_c(),
            st.hw.power_watts(),
            st.hw.is_up()
        )
        .unwrap();
    }
    out
}

#[test]
fn identical_runs_for_identical_seeds() {
    let a = run_trace(7);
    let b = run_trace(7);
    assert_eq!(a, b, "same seed, different trace");
    let c = run_trace(8);
    assert_ne!(a, c, "different seeds should not collide");
}

/// The benchmark's fleet shape: one 1250-node world. The trace — audit
/// trail, server byte and sample counts, every node's physics — must
/// stay what it was before the report path was rebuilt: the hash below
/// was captured at commit `49f96f3`, when this world still stepped its
/// nodes on two threads.
#[test]
fn wide_fleet_is_pinned() {
    const PINNED: u64 = 0xc377_4afb_2d4b_42d2;
    let trace = run_trace_of(1250, 150, 7);
    assert!(trace.contains("stats ServerStats { reports_rx: "));
    assert!(!trace.contains("reports_rx: 0,"), "agents never reported");
    let hash = cwx_util::hash::fnv1a(trace.as_bytes());
    assert_eq!(hash, PINNED, "trace hash is {hash:#018x}");
}
