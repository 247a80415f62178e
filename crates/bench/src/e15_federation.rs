//! E15: federation scale — E11's question one tier up. A flat server
//! tops out well below production density (BNL "Software Scalability
//! Issues in Large Clusters"); the federation head must aggregate many
//! full clusters while doing far less work per node than any
//! sub-server does. We sweep federation shapes up to 10×10k (100k
//! nodes) and report per-tier load: wall-clock CPU and event/frame
//! rates for the head vs the sub-server tier.

use clusterworx::ClusterConfig;
use cwx_fed::{FederationConfig, FederationSim};
use cwx_util::time::SimDuration;

/// One federation sweep row.
#[derive(Debug, Clone)]
pub struct FedScaleRow {
    /// Sub-clusters in the federation.
    pub clusters: u16,
    /// Nodes per sub-cluster.
    pub nodes_per: u32,
    /// Total nodes under the head.
    pub total_nodes: u32,
    /// Head CPU over the measured window, wall seconds.
    pub head_busy_secs: f64,
    /// Sub-server tier CPU over the measured window: each sub-world's
    /// stepping time, summed ([`cwx_fed::FedLoad::sub_busy`]). Sub-worlds
    /// step concurrently, so this exceeds `wall_secs` on several CPUs.
    pub sub_busy_secs: f64,
    /// Federation frames the head ingested per simulated second.
    pub head_frames_per_sec: f64,
    /// Uplink bytes per simulated second (the whole federation tier).
    pub uplink_bytes_per_sec: f64,
    /// Sub-tier simulation events per wall second (engine throughput).
    pub sub_events_per_wall_sec: f64,
    /// Head share of total management CPU (head / (head + subs)).
    pub head_cpu_share: f64,
    /// Wall seconds the measured window took.
    pub wall_secs: f64,
    /// Whether the head census exactly matched the summed ground truth
    /// at the end of the window (must always be true).
    pub aggregate_ok: bool,
}

/// Simulate `secs` of a `clusters`×`nodes_per` federation and measure
/// the per-tier load over the post-boot window.
pub fn federation_load(seed: u64, clusters: u16, nodes_per: u32, secs: u64) -> FedScaleRow {
    let mut cfg = FederationConfig::uniform(clusters, nodes_per, seed);
    // same coarsening E11 applies at large n: the hardware step is not
    // the tier under test
    for c in &mut cfg.clusters {
        *c = ClusterConfig {
            hw_step: SimDuration::from_secs(5),
            ..c.clone()
        };
    }
    cfg.uplink_interval = SimDuration::from_secs(10);
    let mut fed = FederationSim::build(cfg);

    // boot + settle, then measure over a clean window
    fed.run_for(SimDuration::from_secs(60));
    let load0 = fed.load();
    let frames0 = fed.head().stats().frames_rx;
    let (_, bytes0) = fed.uplink_stats();
    let t0 = std::time::Instant::now();
    fed.run_for(SimDuration::from_secs(secs));
    let wall_secs = t0.elapsed().as_secs_f64();
    let load1 = fed.load();
    let frames1 = fed.head().stats().frames_rx;
    let (_, bytes1) = fed.uplink_stats();

    let dt = secs as f64;
    let head_busy = (load1.head_busy - load0.head_busy).as_secs_f64();
    let sub_busy = (load1.sub_busy - load0.sub_busy).as_secs_f64();
    FedScaleRow {
        clusters,
        nodes_per,
        total_nodes: clusters as u32 * nodes_per,
        head_busy_secs: head_busy,
        sub_busy_secs: sub_busy,
        head_frames_per_sec: (frames1 - frames0) as f64 / dt,
        uplink_bytes_per_sec: (bytes1 - bytes0) as f64 / dt,
        sub_events_per_wall_sec: (load1.sub_events - load0.sub_events) as f64 / wall_secs.max(1e-9),
        head_cpu_share: head_busy / (head_busy + sub_busy).max(1e-12),
        wall_secs,
        aggregate_ok: fed.aggregate().counts == fed.sub_counts_sum(),
    }
}

/// The federation shapes the experiment sweeps: `(clusters, nodes_per)`.
pub const SHAPES: [(u16, u32); 3] = [(4, 2_500), (10, 5_000), (10, 10_000)];

/// The full sweep.
pub fn sweep(seed: u64, shapes: &[(u16, u32)], secs: u64) -> Vec<FedScaleRow> {
    shapes
        .iter()
        .map(|&(c, n)| federation_load(seed, c, n, secs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_does_far_less_work_than_the_sub_tier() {
        let r = federation_load(5, 3, 64, 300);
        assert!(r.aggregate_ok, "census must match ground truth");
        assert!(
            r.head_cpu_share < 0.5,
            "the head must be the cheap tier: {r:?}"
        );
        assert!(r.head_frames_per_sec > 0.0, "uplinks must flow: {r:?}");
    }

    #[test]
    fn uplink_traffic_is_tiny_compared_to_node_monitoring() {
        // 3 clusters x 64 nodes: the federation tier moves a few frames
        // per uplink interval, orders of magnitude below the agent tier
        let r = federation_load(6, 3, 64, 300);
        assert!(
            r.uplink_bytes_per_sec < 10_000.0,
            "rollups must stay consolidated: {r:?}"
        );
    }
}
