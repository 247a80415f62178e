//! The scheduler bridge: SLURM-lite driving the managed cluster.
//!
//! Paper §5.3: "Monitoring is at the heart of cluster management. The
//! data is used to schedule tasks, load-balance devices and services,
//! notify administrators of software and hardware failures..." — and §6
//! presents SLURM as the resource manager the monitoring substrate
//! serves. This module closes that loop inside the simulation:
//!
//! * a [`slurm_lite::Controller`] lives alongside the ClusterWorX server,
//! * job allocations drive the *physical* workload of the allocated
//!   nodes (allocated ⇒ the node computes, heats up, pages memory —
//!   all of which the monitoring pipeline then observes),
//! * node-level reality flows back: a node that dies (fan failure →
//!   power-down, kernel panic, PSU loss) is reported to the controller
//!   as a node failure, its jobs are requeued, and a healed node
//!   returns to service automatically.

use cwx_hw::workload::Workload;
use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};
use slurm_lite::controller::NodeAllocState;
use slurm_lite::{Controller, SchedulerKind};

use crate::actions::DrainGate;
use crate::world::World;

/// Scheduler attachment state, stored in [`World::scheduler`].
pub struct SchedulerBridge {
    /// The SLURM-lite control daemon.
    pub controller: Controller,
    /// What each node was last told to do (avoids redundant workload
    /// churn).
    last_alloc: Vec<bool>,
    /// Nodes we have told the controller are down.
    reported_down: Vec<bool>,
    /// Utilisation a job imposes on its nodes.
    pub job_util: f64,
}

impl SchedulerBridge {
    fn new(n_nodes: u32, kind: SchedulerKind) -> Self {
        SchedulerBridge {
            controller: Controller::new(n_nodes, kind),
            last_alloc: vec![false; n_nodes as usize],
            reported_down: vec![false; n_nodes as usize],
            job_util: 0.92,
        }
    }
}

/// The control plane drains power-action targets through SLURM before
/// pulling the plug (paper §6: the resource manager must stop handing
/// the node work before the chassis cuts it).
impl DrainGate for SchedulerBridge {
    fn request_drain(&mut self, _now: SimTime, node: u32) -> bool {
        if self.controller.node_busy(node) {
            self.controller.drain_node(node);
            true
        } else {
            false
        }
    }

    fn is_drained(&self, node: u32) -> bool {
        self.controller.is_drained(node)
    }

    fn release(&mut self, node: u32) {
        self.controller.undrain_node(node);
    }
}

/// Attach a SLURM-lite controller to a built cluster and start the
/// periodic synchronization (every `sync_every`). Call right after
/// [`crate::Cluster::build`].
pub fn attach_scheduler(sim: &mut Sim<World>, kind: SchedulerKind, sync_every: SimDuration) {
    let n = sim.world().cfg.n_nodes;
    sim.world_mut().scheduler = Some(SchedulerBridge::new(n, kind));
    sim.schedule_every(sync_every, |sim| {
        sync_scheduler(sim);
        true
    });
}

/// Submit a job through the bridge (panics if no scheduler attached).
pub fn submit_job(
    sim: &mut Sim<World>,
    request: slurm_lite::JobRequest,
) -> Result<slurm_lite::JobId, slurm_lite::SlurmError> {
    let now = sim.now();
    let bridge = sim
        .world_mut()
        .scheduler
        .as_mut()
        .expect("scheduler attached");
    let id = bridge.controller.submit(now, request)?;
    Ok(id)
}

/// One synchronization pass: reconcile node reality with the
/// controller, advance it, then push allocations onto the hardware.
pub fn sync_scheduler(sim: &mut Sim<World>) {
    let now = sim.now();
    let w = sim.world_mut();
    let Some(bridge) = w.scheduler.as_mut() else {
        return;
    };

    // 1. node reality -> controller
    for (i, node) in w.nodes.iter().enumerate() {
        let usable = node.hw.is_up();
        if !usable && !bridge.reported_down[i] {
            // only report nodes the scheduler believes exist as capacity
            bridge.controller.node_fail(now, i as u32);
            bridge.reported_down[i] = true;
        } else if usable && bridge.reported_down[i] {
            bridge.controller.node_resume(i as u32);
            bridge.reported_down[i] = false;
        }
    }

    // 2. complete due work, run the scheduler
    bridge.controller.advance(now);

    // 3. allocations -> physical workload
    for (i, state) in bridge.controller.nodes().iter().enumerate() {
        let allocated = matches!(state, NodeAllocState::Allocated(_))
            || !bridge.controller.shared_jobs(i as u32).is_empty();
        if allocated != bridge.last_alloc[i] {
            bridge.last_alloc[i] = allocated;
            let workload = if allocated {
                Workload::Constant(bridge.job_util)
            } else {
                Workload::Idle
            };
            w.nodes[i].hw.set_workload(workload);
        }
    }

    // 4. a job completion may have finished a drain some power command
    // is gated on — give the control plane a chance to act on it now
    // rather than at its force-after deadline
    crate::world::pump_control(sim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, WorkloadMix};
    use crate::world::{schedule_fault, Cluster};
    use cwx_hw::node::Fault;
    use cwx_util::time::SimTime;
    use slurm_lite::{JobRequest, JobState};

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn build(n: u32) -> Sim<World> {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: n,
            seed: 21,
            workload: WorkloadMix::Idle, // the scheduler drives the load
            ..Default::default()
        });
        attach_scheduler(
            &mut sim,
            SchedulerKind::Backfill,
            SimDuration::from_secs(10),
        );
        sim
    }

    #[test]
    fn job_allocation_shows_up_in_the_monitoring_data() {
        let mut sim = build(8);
        sim.run_for(SimDuration::from_secs(120)); // boot + idle baseline
        submit_job(&mut sim, JobRequest::batch("alice", 4, 4000, 3600)).unwrap();
        sim.run_for(SimDuration::from_secs(400));

        let w = sim.world();
        let running: Vec<u32> = w
            .scheduler
            .as_ref()
            .unwrap()
            .controller
            .jobs()
            .filter(|j| j.state == JobState::Running)
            .flat_map(|j| j.allocation.clone())
            .collect();
        assert_eq!(running.len(), 4);
        // the monitoring pipeline sees the job run: allocated nodes hot,
        // idle nodes cold
        for i in 0..8u32 {
            let util = w
                .server
                .history()
                .latest(i, "cpu.util_pct")
                .map(|s| s.value)
                .unwrap_or(0.0);
            if running.contains(&i) {
                assert!(util > 70.0, "allocated node{i} must be loaded: {util}");
            } else {
                assert!(util < 20.0, "idle node{i} must be quiet: {util}");
            }
        }
    }

    #[test]
    fn jobs_complete_and_nodes_go_quiet() {
        let mut sim = build(4);
        sim.run_for(SimDuration::from_secs(120));
        let id = submit_job(&mut sim, JobRequest::batch("u", 2, 600, 300)).unwrap();
        sim.run_for(SimDuration::from_secs(600));
        let w = sim.world();
        let job = w.scheduler.as_ref().unwrap().controller.job(id).unwrap();
        assert_eq!(job.state, JobState::Completed);
        // hardware went idle again
        assert!(w.nodes.iter().all(|n| n.hw.utilization() < 0.1));
    }

    #[test]
    fn hardware_failure_requeues_the_job_elsewhere() {
        let mut sim = build(6);
        sim.run_for(SimDuration::from_secs(120));
        submit_job(&mut sim, JobRequest::batch("u", 2, 8000, 7000)).unwrap();
        sim.run_for(SimDuration::from_secs(100));
        let victim = {
            let w = sim.world();
            w.scheduler
                .as_ref()
                .unwrap()
                .controller
                .jobs()
                .find(|j| j.state == JobState::Running)
                .unwrap()
                .allocation[0]
        };
        // fan failure on an allocated node: ClusterWorX powers it down,
        // the bridge reports the node failure, SLURM requeues
        let when = sim.now() + SimDuration::from_secs(5);
        schedule_fault(&mut sim, when, victim, Fault::FanFailure);
        sim.run_for(SimDuration::from_secs(300));
        let w = sim.world();
        let ctl = &w.scheduler.as_ref().unwrap().controller;
        assert!(ctl.stats().node_failed >= 1, "{:?}", ctl.stats());
        let rerun: Vec<&slurm_lite::job::Job> = ctl
            .jobs()
            .filter(|j| j.state == JobState::Running)
            .collect();
        assert_eq!(rerun.len(), 1, "requeued job running again");
        assert!(
            !rerun[0].allocation.contains(&victim),
            "rescheduled away from the dead node: {:?}",
            rerun[0].allocation
        );
        // and the administrator got the fan-failure mail as usual
        assert!(w
            .server
            .outbox()
            .iter()
            .any(|m| m.event == "cpu-fan-failure"));
    }

    #[test]
    fn healed_node_returns_to_service() {
        let mut sim = build(2);
        sim.run_for(SimDuration::from_secs(120));
        // panic node 1: reboot heals it
        schedule_fault(&mut sim, t(150), 1, Fault::KernelPanic);
        sim.run_for(SimDuration::from_secs(400));
        let w = sim.world();
        assert!(w.nodes[1].hw.is_up(), "healed");
        let ctl = &w.scheduler.as_ref().unwrap().controller;
        // the controller saw it leave and come back
        assert_eq!(ctl.nodes()[1], NodeAllocState::Idle);
    }
}
