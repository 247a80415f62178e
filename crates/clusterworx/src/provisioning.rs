//! Provisioning operations on a live cluster: cloning an image to a
//! node group and adding new nodes.
//!
//! "With ClusterWorX, cloning an image or adding a node to the cluster
//! becomes as simple as a few mouse clicks. Administrators are able to
//! load the OS and applications to build the required functionality into
//! an image. Then ClusterWorX automatically clones the images to
//! selected nodes."
//!
//! Cloning uses two-level simulation: the detailed multicast protocol
//! (`cwx-clone`) runs as an inner deterministic simulation to obtain the
//! per-node completion times, which are then replayed as world events —
//! the nodes drop out of monitoring, sit dark while the image streams,
//! and come back (with the new image recorded) exactly when the protocol
//! says they would.

use cwx_clone::image::Image;
use cwx_clone::protocol::{run_clone, CloneConfig};
use cwx_net::FAST_ETHERNET_BPS;
use cwx_util::sim::Sim;
use cwx_util::time::SimDuration;

use crate::groups::Groups;
use crate::world::{power_off_node, power_on_node, World};

/// The image stamp a provisioned node carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstalledImage {
    /// Image name.
    pub name: String,
    /// Image version.
    pub version: u32,
    /// Checksum at install time.
    pub checksum: u64,
}

/// Outcome of a group-clone operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CloneOutcome {
    /// Nodes targeted.
    pub targets: Vec<u32>,
    /// Inner-protocol makespan (first power-off to last node back).
    pub makespan_secs: f64,
    /// Repair chunks the protocol needed.
    pub repair_chunks: u64,
}

/// Clone `image` to every member of `group`. Nodes power off, receive
/// the stream, write their disks, and boot back with the new image.
/// Returns `None` for an empty group.
pub fn clone_image_to_group(
    sim: &mut Sim<World>,
    groups: &Groups,
    group: &str,
    image: &Image,
    loss: f64,
) -> Option<CloneOutcome> {
    let targets = groups.members(group);
    if targets.is_empty() {
        return None;
    }
    // inner simulation: the full reliable-multicast protocol
    let (seed, firmware) = {
        let w = sim.world();
        (w.cfg.seed ^ 0xc10e, w.cfg.firmware)
    };
    let report = run_clone(
        seed,
        targets.len() as u32,
        FAST_ETHERNET_BPS,
        loss,
        CloneConfig {
            image_bytes: image.size_bytes,
            firmware,
            ..CloneConfig::default()
        },
    );

    // replay: targets go dark now, claimed by the provisioning overlay
    // state (deliberately dark while the image streams)
    for &node in &targets {
        power_off_node(sim, node);
        let now = sim.now();
        sim.world_mut().control.note_cloning(now, node);
    }
    // ...and come back at their protocol-determined completion times
    // (power_on_node replays the boot; subtract the boot the protocol
    // already accounted for by scheduling power-on a boot-length early
    // is needless precision — the shape is per-node staggered returns)
    let stamp = InstalledImage {
        name: image.name.clone(),
        version: image.version,
        checksum: image.checksum,
    };
    for (k, &node) in targets.iter().enumerate() {
        let when = report.per_node_operational[k];
        if !when.is_finite() {
            // the protocol evicted this node (dead receiver / broken
            // control channel): tell the control plane when the session
            // wraps up instead of leaving it parked in Cloning forever
            let at = SimDuration::from_secs_f64(report.makespan_secs.max(0.0));
            sim.schedule_in(at, move |sim| {
                let now = sim.now();
                sim.world_mut().control.note_clone_failed(now, node);
            });
            continue;
        }
        let stamp = stamp.clone();
        sim.schedule_in(SimDuration::from_secs_f64(when), move |sim| {
            sim.world_mut().nodes[node as usize].image = Some(stamp.clone());
            power_on_node(sim, node);
        });
    }
    Some(CloneOutcome {
        targets,
        makespan_secs: report.makespan_secs,
        repair_chunks: report.repair_chunks,
    })
}

/// Add a brand-new node to the running cluster: racked into the next
/// free ICE Box port, attached to the management segment, powered on.
/// Returns its node id.
pub fn add_node(sim: &mut Sim<World>) -> u32 {
    let node = {
        let w = sim.world_mut();
        let node = w.nodes.len() as u32;
        let workload = cwx_hw::workload::Workload::Idle;
        w.nodes.push(crate::world::NodeState {
            hw: cwx_hw::node::NodeHardware::new(
                cwx_hw::NodeId(node),
                cwx_hw::node::ThermalConfig::default(),
                workload,
            ),
            bios: cwx_bios::BiosChip::new(w.cfg.firmware),
            agent: None,
            pending_boot: Vec::new(),
            image: None,
            agent_fault: None,
            rng: crate::world::node_rng(w.cfg.seed, node),
        });
        w.control.add_node();
        // a new chassis every 10 nodes
        let (bx, _) = World::rack_of(node);
        while w.iceboxes.len() <= bx {
            w.iceboxes.push(cwx_icebox::chassis::IceBox::new());
        }
        // attach to the management network: its rack's segment on the
        // rack topology (adding one for a fresh chassis), else the
        // single shared segment
        let seg = if w.cfg.rack_network {
            while w.net.segment_count() <= 1 + bx {
                w.net
                    .add_segment(FAST_ETHERNET_BPS, SimDuration::from_micros(100), w.cfg.loss);
            }
            w.rack_segment(bx)
        } else {
            w.net
                .segment_of(World::SERVER_ADDR)
                .expect("server attached")
        };
        w.net.attach(World::addr_of(node), seg);
        w.cfg.n_nodes += 1;
        node
    };
    power_on_node(sim, node);
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::world::Cluster;
    use cwx_clone::image::ImageManager;

    #[test]
    fn group_clone_replays_the_protocol_in_the_world() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 12,
            seed: 71,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(sim.world().up_count(), 12);

        let mut mgr = ImageManager::with_prebuilt();
        let id = mgr.build(
            "rh73-new",
            cwx_clone::image::ImageKind::HardDisk,
            64 << 20,
            &["kernel-2.4.20"],
        );
        let image = mgr.get(id).unwrap().clone();

        let groups = Groups::by_rack(12);
        let outcome = clone_image_to_group(&mut sim, &groups, "rack0", &image, 0.005)
            .expect("nonempty group");
        assert_eq!(outcome.targets.len(), 10);

        // mid-clone: rack0 is dark, rack1 keeps working
        sim.run_for(SimDuration::from_secs(10));
        assert!(sim.world().up_count() <= 2);

        // after the protocol makespan (+boot margin) everyone is back
        sim.run_for(SimDuration::from_secs_f64(outcome.makespan_secs + 120.0));
        let w = sim.world();
        assert_eq!(w.up_count(), 12, "all nodes back after cloning");
        for &n in &outcome.targets {
            let img = w.nodes[n as usize].image.as_ref().expect("image stamped");
            assert_eq!(img.name, "rh73-new");
        }
        assert!(w.nodes[10].image.is_none(), "rack1 untouched");
        // monitoring resumed on recloned nodes
        assert!(w.server.history().latest(0, "uptime.secs").is_some());
    }

    #[test]
    fn empty_group_clone_is_none() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 2,
            ..Default::default()
        });
        let mgr = ImageManager::with_prebuilt();
        let image = mgr.find("rh73-compute").unwrap().clone();
        assert!(clone_image_to_group(&mut sim, &Groups::new(), "nope", &image, 0.0).is_none());
    }

    #[test]
    fn hot_added_node_joins_monitoring() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 10,
            seed: 72,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(sim.world().up_count(), 10);

        // "adding a node to the cluster becomes as simple as a few
        // mouse clicks" — node 10 lands in a fresh chassis
        let new = add_node(&mut sim);
        assert_eq!(new, 10);
        assert_eq!(sim.world().iceboxes.len(), 2);
        sim.run_for(SimDuration::from_secs(120));
        let w = sim.world();
        assert_eq!(w.up_count(), 11);
        assert!(w
            .server
            .node_status(new)
            .map(|s| s.reachable)
            .unwrap_or(false));
        assert!(w.server.history().latest(new, "load.one").is_some());
        // and it is probe-covered by its chassis
        let (bx, port) = World::rack_of(new);
        assert!(w.iceboxes[bx].probe(port).is_some());
    }
}
