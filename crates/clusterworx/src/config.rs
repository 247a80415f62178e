//! Cluster construction parameters.

use std::sync::Arc;

use cwx_bios::Firmware;
use cwx_store::Store;
use cwx_util::time::SimDuration;

/// How node workloads are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadMix {
    /// Every node idles.
    Idle,
    /// Every node runs at a constant utilisation.
    Constant(f64),
    /// A realistic mix: 60% batch jobs, 30% noisy background, 10% idle,
    /// assigned round-robin by node index.
    Mixed,
}

/// Parameters for [`crate::Cluster::build`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Identity of this cluster inside a federation (prefix on audit
    /// rows and cluster-qualified event ids). `0` for standalone
    /// deployments.
    pub cluster_id: u16,
    /// Number of compute nodes.
    pub n_nodes: u32,
    /// Experiment seed (drives every random draw).
    pub seed: u64,
    /// Hardware/thermal integration step.
    pub hw_step: SimDuration,
    /// Monitoring agent sampling interval.
    pub agent_interval: SimDuration,
    /// Per-receiver packet loss on the segment.
    pub loss: f64,
    /// Node firmware.
    pub firmware: Firmware,
    /// Workload assignment.
    pub workload: WorkloadMix,
    /// Delta consolidation in the agents (off = E7 ablation).
    pub delta_enabled: bool,
    /// Agents send the paper's wire, text + LZSS (§5.3.3), instead of
    /// sequence-checked `CWB1`: the baseline the paper's bandwidth
    /// figures (E11) are measured on.
    pub text_wire: bool,
    /// Power nodes on automatically at t = 0.
    pub autostart: bool,
    /// Nodes with a bad DIMM: their boots fail the memory check.
    /// LinuxBIOS reports the failure on the serial console (captured by
    /// the ICE Box); a vendor BIOS just beeps at a monitor nobody has.
    pub bad_memory_nodes: Vec<u32>,
    /// The server's history store, opened by the caller (a
    /// `cwx_store::disk::DiskStore` survives server restarts). `None`
    /// keeps history in the in-memory ring.
    pub store: Option<Arc<dyn Store>>,
    /// Fraction of ICE Box commands lost in transit (fault injection for
    /// the control plane's retry machinery). `0.0` = reliable chassis
    /// link, the default.
    pub icebox_command_loss: f64,
    /// Flap detection: Up-entries inside the flap window
    /// ([`crate::actions::FlapPolicy::window`]) that quarantine a node.
    /// `0` disables flap detection.
    pub flap_threshold: u32,
    /// Automatic quarantine release delay; `None` = manual release only.
    pub quarantine_release_after: Option<SimDuration>,
    /// Build one network segment per chassis bridged by a backbone
    /// instead of a single shared segment. Rack segments can then be
    /// partitioned independently (the chaos campaigns' partition
    /// surface); the flat default keeps existing experiments identical.
    pub rack_network: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cluster_id: 0,
            n_nodes: 16,
            seed: 42,
            hw_step: SimDuration::from_secs(1),
            agent_interval: SimDuration::from_secs(5),
            loss: 0.0,
            firmware: Firmware::LinuxBios,
            workload: WorkloadMix::Mixed,
            delta_enabled: true,
            text_wire: false,
            autostart: true,
            bad_memory_nodes: Vec::new(),
            store: None,
            icebox_command_loss: 0.0,
            flap_threshold: 4,
            quarantine_release_after: None,
            rack_network: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ClusterConfig::default();
        assert!(c.n_nodes > 0);
        assert!(c.agent_interval.as_secs_f64() >= c.hw_step.as_secs_f64());
        assert_eq!(c.firmware, Firmware::LinuxBios);
        assert!(c.delta_enabled && c.autostart);
    }
}
