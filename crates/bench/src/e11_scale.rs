//! E11: monitoring scalability (paper §7: ClusterWorX "scales to meet
//! the needs of any size system"; §5.3: monitoring "must be gathered
//! from the cluster without impacting application performance",
//! minimizing CPU and network bandwidth).
//!
//! We sweep cluster sizes and measure the management-network load and
//! server-side processing rate the monitoring pipeline produces, with
//! the consolidation ablation alongside.

use clusterworx::{Cluster, ClusterConfig, WorkloadMix};
use cwx_net::{SegmentId, FAST_ETHERNET_BPS};
use cwx_util::time::SimDuration;

/// One sweep row.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Nodes monitored.
    pub n_nodes: u32,
    /// Delta consolidation enabled?
    pub delta: bool,
    /// Reports the server received per simulated second.
    pub reports_per_sec: f64,
    /// Monitoring bytes on the wire per simulated second.
    pub wire_bytes_per_sec: f64,
    /// Values the server processed per simulated second.
    pub values_per_sec: f64,
    /// Mean wire bytes per node per second.
    pub bytes_per_node_per_sec: f64,
    /// Fraction of a fast-Ethernet segment the monitoring consumes.
    pub segment_fraction: f64,
    /// Wall-clock seconds the measured window took to simulate.
    pub wall_secs: f64,
    /// Simulation events dispatched per wall-clock second over the
    /// measured window — the engine-throughput column that shows the
    /// event queue holding up as the cluster grows.
    pub events_per_sec: f64,
}

/// Simulate `secs` of monitoring on an `n`-node cluster whose agents
/// send the paper's text + LZSS wire.
pub fn monitor_load(seed: u64, n: u32, secs: u64, delta: bool) -> ScaleRow {
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: n,
        seed,
        workload: WorkloadMix::Mixed,
        delta_enabled: delta,
        // the paper's bandwidth claim is about its own wire (§5.3.3)
        text_wire: true,
        // coarser hardware step at large n keeps the event count sane
        // without changing the monitoring pipeline under test
        hw_step: SimDuration::from_secs(5),
        ..Default::default()
    });
    // boot + settle, then measure over a clean window
    sim.run_for(SimDuration::from_secs(60));
    let stats0 = sim.world().server.stats();
    let wire0 = sim.world().net.segment(SegmentId(0)).wire_bytes();
    let events0 = sim.events_executed();
    let t0 = std::time::Instant::now();
    sim.run_for(SimDuration::from_secs(secs));
    let wall_secs = t0.elapsed().as_secs_f64();
    let stats1 = sim.world().server.stats();
    let wire1 = sim.world().net.segment(SegmentId(0)).wire_bytes();
    let events1 = sim.events_executed();

    let dt = secs as f64;
    let wire_rate = (wire1 - wire0) as f64 / dt;
    ScaleRow {
        n_nodes: n,
        delta,
        reports_per_sec: (stats1.reports_rx - stats0.reports_rx) as f64 / dt,
        wire_bytes_per_sec: wire_rate,
        values_per_sec: (stats1.values_rx - stats0.values_rx) as f64 / dt,
        bytes_per_node_per_sec: wire_rate / n as f64,
        segment_fraction: wire_rate / FAST_ETHERNET_BPS as f64,
        wall_secs,
        events_per_sec: (events1 - events0) as f64 / wall_secs.max(1e-9),
    }
}

/// The full sweep.
pub fn sweep(seed: u64, sizes: &[u32], secs: u64) -> Vec<ScaleRow> {
    let mut out = Vec::new();
    for &n in sizes {
        out.push(monitor_load(seed, n, secs, true));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_grows_linearly_and_stays_small() {
        let a = monitor_load(3, 20, 300, true);
        let b = monitor_load(3, 80, 300, true);
        // linear in N (within 40% tolerance for boot jitter)
        let ratio = b.wire_bytes_per_sec / a.wire_bytes_per_sec;
        assert!((2.4..=5.6).contains(&ratio), "expected ~4x: {ratio}");
        // and tiny in absolute terms: even 80 nodes use well under 1% of
        // fast Ethernet
        assert!(b.segment_fraction < 0.01, "{b:?}");
        assert!(
            a.reports_per_sec > 20.0 / 5.0 * 0.8,
            "one report per node per 5s: {a:?}"
        );
    }

    #[test]
    fn delta_cuts_per_node_bandwidth() {
        let with = monitor_load(4, 30, 300, true);
        let without = monitor_load(4, 30, 300, false);
        assert!(
            with.bytes_per_node_per_sec < without.bytes_per_node_per_sec * 0.6,
            "delta must cut the per-node stream: {} vs {}",
            with.bytes_per_node_per_sec,
            without.bytes_per_node_per_sec
        );
    }
}
