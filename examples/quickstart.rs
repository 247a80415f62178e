//! Quickstart: build a simulated 32-node cluster, let ClusterWorX manage
//! it for ten simulated minutes, and look around.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use clusterworx::{dashboard, Cluster, ClusterConfig, WorkloadMix};
use cwx_util::time::{SimDuration, SimTime};

fn main() {
    // a 32-node cluster with a realistic workload mix, LinuxBIOS
    // firmware and the monitoring pipeline at product settings
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: 32,
        seed: 2003,
        workload: WorkloadMix::Mixed,
        ..Default::default()
    });

    // ten simulated minutes: nodes power on (sequenced through the ICE
    // Boxes), boot, start their agents, and report
    sim.run_for(SimDuration::from_secs(600));

    let now = sim.now();
    let world = sim.world();

    println!("{}", dashboard::render(world, now));

    let stats = world.server.stats();
    println!(
        "server: {} reports, {} values, {} wire bytes, {} decode errors",
        stats.reports_rx, stats.values_rx, stats.bytes_rx, stats.decode_errors
    );

    // historical graphing: chart one node's CPU temperature over the run
    let history = world.server.history();
    print!(
        "\n{}",
        dashboard::chart(&**history, 5, "temp.cpu", SimTime::ZERO, now, 60, 10)
    );

    // compare performance between nodes (paper: "compare performance
    // between nodes"): the latest CPU sample of every node that has one
    let mut rows: Vec<(u32, f64)> = history
        .series()
        .into_iter()
        .filter(|(_, key)| key == "cpu.util_pct")
        .filter_map(|(node, key)| history.latest(node, &key).map(|s| (node, s.value)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nbusiest nodes right now:");
    for (node, cpu) in rows.iter().take(5) {
        println!("  node{node:03}: {cpu:.1}% cpu");
    }
    assert_eq!(rows.len(), 32, "every node reports its CPU");

    println!("\nemails sent: {}", world.server.outbox().len());
    assert_eq!(world.up_count(), 32, "every node should be up");
}
