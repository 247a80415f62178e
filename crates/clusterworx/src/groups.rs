//! Node groups: the GUI's bulk-management primitive.
//!
//! The product's screens operate on selections — "ClusterWorX
//! automatically clones the images to selected nodes", power-cycle a
//! rack, chart one partition. [`Groups`] is that selection model: named,
//! possibly overlapping sets of nodes, with bulk power operations and
//! per-group monitoring summaries.

use std::collections::{BTreeMap, BTreeSet};

use cwx_util::sim::Sim;

use crate::world::{power_off_node, power_on_node, World};

/// Named node groups.
#[derive(Debug, Default, Clone)]
pub struct Groups {
    map: BTreeMap<String, BTreeSet<u32>>,
}

/// Aggregate monitoring view of one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Group name.
    pub name: String,
    /// Members.
    pub members: usize,
    /// Members whose OS is up.
    pub up: usize,
    /// Mean of the latest `cpu.util_pct` across reporting members.
    pub mean_cpu_pct: f64,
    /// Max of the latest `temp.cpu` across reporting members.
    pub max_temp_c: f64,
}

impl Groups {
    /// Empty group set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Groups pre-populated by chassis: `rack0` = nodes 0–9, etc.
    pub fn by_rack(n_nodes: u32) -> Self {
        let mut g = Self::new();
        for node in 0..n_nodes {
            g.add(&format!("rack{}", World::rack_of(node).0), node);
        }
        g
    }

    /// Add a node to a group (created on first use).
    pub fn add(&mut self, group: &str, node: u32) {
        self.map.entry(group.to_string()).or_default().insert(node);
    }

    /// Remove a node from a group; drops the group when it empties.
    pub fn remove(&mut self, group: &str, node: u32) {
        if let Some(set) = self.map.get_mut(group) {
            set.remove(&node);
            if set.is_empty() {
                self.map.remove(group);
            }
        }
    }

    /// Members of a group (empty for unknown groups).
    pub fn members(&self, group: &str) -> Vec<u32> {
        self.map
            .get(group)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All group names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Groups a node belongs to.
    pub fn groups_of(&self, node: u32) -> Vec<&str> {
        self.map
            .iter()
            .filter(|(_, s)| s.contains(&node))
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

/// Power every member of a group on (sequenced through their chassis).
pub fn power_on_group(sim: &mut Sim<World>, groups: &Groups, group: &str) -> usize {
    let members = groups.members(group);
    for &n in &members {
        power_on_node(sim, n);
    }
    members.len()
}

/// Cut power to every member of a group.
pub fn power_off_group(sim: &mut Sim<World>, groups: &Groups, group: &str) -> usize {
    let members = groups.members(group);
    for &n in &members {
        power_off_node(sim, n);
    }
    members.len()
}

/// Build the monitoring summary of one group.
pub fn summarize(world: &World, groups: &Groups, group: &str) -> GroupSummary {
    let members = groups.members(group);
    let up = members
        .iter()
        .filter(|&&n| world.nodes.get(n as usize).is_some_and(|s| s.hw.is_up()))
        .count();
    let latest = |node: u32, key: &str| world.server.history().latest(node, key).map(|s| s.value);
    let cpus: Vec<f64> = members
        .iter()
        .filter_map(|&n| latest(n, "cpu.util_pct"))
        .collect();
    let temps: Vec<f64> = members
        .iter()
        .filter_map(|&n| latest(n, "temp.cpu"))
        .collect();
    GroupSummary {
        name: group.to_string(),
        members: members.len(),
        up,
        mean_cpu_pct: if cpus.is_empty() {
            f64::NAN
        } else {
            cpus.iter().sum::<f64>() / cpus.len() as f64
        },
        max_temp_c: temps.iter().copied().fold(f64::NAN, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, WorkloadMix};
    use crate::world::Cluster;
    use cwx_util::time::SimDuration;

    #[test]
    fn group_membership_operations() {
        let mut g = Groups::new();
        g.add("io", 1);
        g.add("io", 3);
        g.add("compute", 3);
        assert_eq!(g.members("io"), vec![1, 3]);
        assert_eq!(g.groups_of(3), vec!["compute", "io"]);
        g.remove("io", 1);
        g.remove("io", 3);
        assert!(g.members("io").is_empty());
        assert_eq!(g.names().count(), 1);
        assert!(g.members("nope").is_empty());
    }

    #[test]
    fn by_rack_matches_chassis_topology() {
        let g = Groups::by_rack(25);
        assert_eq!(g.members("rack0").len(), 10);
        assert_eq!(g.members("rack1").len(), 10);
        assert_eq!(g.members("rack2"), vec![20, 21, 22, 23, 24]);
    }

    #[test]
    fn group_power_operations_and_summary() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 20,
            seed: 8,
            workload: WorkloadMix::Constant(0.5),
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(180));
        let groups = Groups::by_rack(20);
        // take rack1 down for maintenance
        assert_eq!(power_off_group(&mut sim, &groups, "rack1"), 10);
        sim.run_for(SimDuration::from_secs(60));
        let s0 = summarize(sim.world(), &groups, "rack0");
        let s1 = summarize(sim.world(), &groups, "rack1");
        assert_eq!(s0.up, 10);
        assert_eq!(s1.up, 0);
        assert!(s0.mean_cpu_pct > 20.0, "{s0:?}");
        assert!(s0.max_temp_c > 30.0);
        // bring it back
        power_on_group(&mut sim, &groups, "rack1");
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(summarize(sim.world(), &groups, "rack1").up, 10);
    }
}
