//! ClusterWorX — the integrated cluster management framework.
//!
//! This crate assembles every substrate into the system the paper
//! describes: a simulated cluster of nodes (hardware + LinuxBIOS + the
//! monitoring agent) racked into ICE Box chassis on a shared network,
//! managed by a central ClusterWorX server that
//!
//! * receives the agents' consolidated, compressed reports (decoded by
//!   whoever owns the channel: the simulated segment or a live
//!   connection),
//! * stores them in the history store at their gather time, for
//!   charting,
//! * samples the ICE Box probes out-of-band (so a hung node's
//!   temperature is still visible),
//! * evaluates administrator-defined events and executes their actions
//!   through the chassis (power-down / reboot / halt), and
//! * mails the administrator through the smart notifier.
//!
//! The whole thing runs on the deterministic discrete-event simulator:
//! [`Cluster::build`] wires the world and its recurring events, and the
//! experiment drivers (`crates/bench`) inject faults, advance time and
//! read the reports.
//!
//! ```
//! use clusterworx::{Cluster, ClusterConfig};
//! use cwx_util::time::SimDuration;
//!
//! let mut sim = Cluster::build(ClusterConfig { n_nodes: 4, ..ClusterConfig::default() });
//! sim.run_for(SimDuration::from_secs(120));
//! let up = sim.world().nodes.iter().filter(|n| n.hw.is_up()).count();
//! assert_eq!(up, 4);
//! ```

#![warn(missing_docs)]

pub mod actions;
pub mod config;
pub mod dashboard;
pub mod groups;
pub mod ingest;
pub mod lifecycle;
pub mod lite;
mod probes;
pub mod provisioning;
pub mod realtime;
pub mod scheduler;
pub mod server;
pub mod snapshot;
pub mod world;

pub use actions::{
    AuditEntry, AuditRecord, BootWatchdog, CommandTransport, ControlPlane, ControlStats, DrainGate,
    Effect, FlapPolicy, IssueOutcome, NoGate, PowerCmd, RetryPolicy, SuppressReason,
};
pub use config::{ClusterConfig, WorkloadMix};
pub use groups::Groups;
pub use lifecycle::{FailReason, LifecycleCounts, LifecycleState, LifecycleTracker, Transition};
pub use lite::LiteMonitor;
pub use provisioning::{add_node, clone_image_to_group};
pub use realtime::{RealTimeConfig, RealTimeDeployment};
pub use scheduler::{attach_scheduler, submit_job, SchedulerBridge};
pub use server::{ClusterSnapshot, NodeStatus, Server, ServerStats};
pub use world::{
    chassis_restart, schedule_fault, set_agent_fault, ActionLog, Cluster, NodeState, World,
};
