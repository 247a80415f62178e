//! The simulated cluster world and its event wiring.
//!
//! Node orchestration — what is legal, what is queued, what was done —
//! lives in the control plane ([`crate::lifecycle`] + [`crate::actions`]);
//! this module is the *driver*: it owns the physical substrates (hardware,
//! chassis, network, server), translates control-plane [`Effect`]s into
//! simulation events, and feeds hardware reality back in. The observation
//! paths (probe sampling, liveness housekeeping) are in `crate::probes`.

use std::sync::Arc;

use cwx_bios::{BiosChip, MemoryCheck};
use cwx_events::Action;
use cwx_hw::node::{Fault, HwEvent, NodeHardware, PowerState, ThermalConfig};
use cwx_hw::workload::Workload;
use cwx_hw::NodeId;
use cwx_icebox::chassis::{IceBox, NodeCommand, PortEffect, PortId, NODE_PORTS};
use cwx_monitor::agent::{Agent, AgentConfig};
use cwx_monitor::fault::AgentFault;
use cwx_monitor::snapshot::Sensors;
use cwx_monitor::transmit::WireDecoder;
use cwx_net::{Network, NodeAddr, FAST_ETHERNET_BPS};
use cwx_proc::synthetic::SyntheticProc;
use cwx_store::mem::MemStore;
use cwx_util::rng::rng as seeded_rng;
use cwx_util::sim::{EventId, Sim};
use cwx_util::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::actions::{
    CommandTransport, ControlPlane, Effect, FlapPolicy, IssueOutcome, NoGate, PowerCmd,
};
use crate::config::{ClusterConfig, WorkloadMix};
use crate::server::{commit, Arrival, Server};

/// What an action plug-in tells the framework to do after it ran (a
/// site script might drain the node and then ask for a power-cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PluginVerdict {
    /// Nothing further.
    Done,
    /// Power the node down after the script.
    ThenPowerDown,
    /// Power-cycle the node after the script.
    ThenReboot,
}

/// An executable action plug-in: called with the node the event fired
/// on. Stands in for the "shell scripts, perl scripts, symbolic links,
/// programs, and more" the paper allows as actions.
pub type ActionPlugin = Box<dyn FnMut(u32) -> PluginVerdict + Send>;

/// An executed event action (the audit trail).
#[derive(Debug, Clone, PartialEq)]
pub struct ActionLog {
    /// When it was executed.
    pub time: SimTime,
    /// Target node.
    pub node: u32,
    /// What was done.
    pub action: Action,
}

/// Per-node state bundle.
pub struct NodeState {
    /// The physical node.
    pub hw: NodeHardware,
    /// Its firmware.
    pub bios: BiosChip,
    /// The monitoring agent (present while the OS is up).
    pub agent: Option<Agent<SyntheticProc>>,
    /// In-flight boot-sequence events (energize, console phases, boot
    /// completion); cancelled wholesale when power changes.
    pub pending_boot: Vec<EventId>,
    /// The system image provisioned onto this node (None = factory).
    pub image: Option<crate::provisioning::InstalledImage>,
    /// Injected monitoring-daemon fault (chaos campaigns); the node's
    /// OS and workload keep running underneath a sick agent.
    pub agent_fault: Option<AgentFault>,
    /// This node's private noise stream: a node's hardware noise never
    /// depends on how many other nodes the world has, or on their draws.
    pub rng: StdRng,
}

/// The private noise stream for one node: derived from the cluster seed
/// and the node id, independent of every other node's.
pub fn node_rng(seed: u64, node: u32) -> StdRng {
    // splitmix-style index mix so adjacent nodes get unrelated streams
    let mixed = (seed ^ 0x5eed).wrapping_add((node as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    seeded_rng(mixed)
}

/// The whole simulated cluster.
pub struct World {
    /// Build parameters.
    pub cfg: ClusterConfig,
    /// Compute nodes.
    pub nodes: Vec<NodeState>,
    /// One chassis per 10 nodes.
    pub iceboxes: Vec<IceBox>,
    /// Shared management network (messages are report payloads).
    pub net: Network<Vec<u8>>,
    /// The server's end of the management segment: one decoder for
    /// every agent on it, its key table shared by all their names.
    decoder: WireDecoder,
    /// The management server.
    pub server: Server,
    /// The node-lifecycle control plane: every chassis action flows
    /// through its command bus and lands in its audit trail.
    pub control: ControlPlane,
    /// Optional SLURM-lite attachment (see [`crate::scheduler`]).
    pub scheduler: Option<crate::scheduler::SchedulerBridge>,
    /// Registered action plug-ins by name.
    action_plugins: std::collections::BTreeMap<String, ActionPlugin>,
    /// One-shot wake event for the control plane's timed work (retry
    /// backoffs, drain deadlines, reboot pauses): `(when, event)`.
    pub(crate) control_wake: Option<(SimTime, EventId)>,
    /// Command-loss draws for the chassis transport.
    pub(crate) cmd_rng: StdRng,
    pub(crate) rng: StdRng,
}

impl World {
    /// Chassis + port housing a node.
    pub fn rack_of(node: u32) -> (usize, PortId) {
        (
            (node as usize) / NODE_PORTS,
            PortId((node % NODE_PORTS as u32) as u8),
        )
    }

    /// Network address of a node's agent.
    pub fn addr_of(node: u32) -> NodeAddr {
        NodeAddr(node + 1)
    }

    /// Network address of the server.
    pub const SERVER_ADDR: NodeAddr = NodeAddr(0);

    /// Nodes whose OS is currently up.
    pub fn up_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.hw.is_up()).count()
    }

    /// The network segment serving chassis `bx`. With
    /// [`crate::ClusterConfig::rack_network`] that is the rack's own
    /// segment; on the flat topology it is the single shared segment.
    pub fn rack_segment(&self, bx: usize) -> cwx_net::SegmentId {
        if self.cfg.rack_network {
            cwx_net::SegmentId((1 + bx) as u16)
        } else {
            cwx_net::SegmentId(0)
        }
    }

    /// Register an action plug-in under `name`; events with
    /// `Action::Plugin(name)` will invoke it.
    pub fn register_action_plugin(&mut self, name: &str, plugin: ActionPlugin) {
        self.action_plugins.insert(name.to_string(), plugin);
    }

    /// Executed event actions in order — a projection of the control
    /// plane's audit trail (formerly a field updated in parallel).
    pub fn action_log(&self) -> Vec<ActionLog> {
        self.control.action_log()
    }

    /// Plug-in executions `(time, plugin name, node)` — also projected
    /// from the audit trail.
    pub fn plugin_log(&self) -> Vec<(SimTime, String, u32)> {
        self.control.plugin_log()
    }

    /// A point-in-time rollup of this cluster for federation export:
    /// lifecycle census from the control plane, liveness and traffic
    /// counters from the server, and the alarms raised since the last
    /// call (drained from the server's alarm feed).
    pub fn fed_snapshot(&mut self) -> crate::server::ClusterSnapshot {
        self.server
            .cluster_snapshot(self.control.lifecycle().counts())
    }
}

/// Notification batching window.
const NOTIFY_WINDOW: SimDuration = SimDuration::from_secs(30);

/// History retained per series.
const HISTORY_CAPACITY: usize = 720;

/// ICE Box probe sampling interval (out-of-band path).
const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Server housekeeping interval (mail flush, staleness checks).
const HOUSEKEEPING_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Namespace struct: builds simulated clusters.
pub struct Cluster;

impl Cluster {
    /// Wire a cluster world onto a fresh simulator and install its
    /// recurring events. Drive it with `run_for`/`run_until` (the
    /// recurring events never drain the queue).
    pub fn build(cfg: ClusterConfig) -> Sim<World> {
        let n = cfg.n_nodes;
        let mut nodes = Vec::with_capacity(n as usize);
        for i in 0..n {
            let workload = match cfg.workload {
                WorkloadMix::Idle => Workload::Idle,
                WorkloadMix::Constant(u) => Workload::Constant(u),
                WorkloadMix::Mixed => match i % 10 {
                    0..=5 => Workload::Batch {
                        peak: 0.95,
                        busy_secs: 240.0 + 30.0 * (i % 4) as f64,
                        gap_secs: 60.0,
                    },
                    6..=8 => Workload::Noisy {
                        mean: 0.35,
                        reversion: 0.2,
                        sigma: 0.25,
                    },
                    _ => Workload::Idle,
                },
            };
            nodes.push(NodeState {
                hw: NodeHardware::new(NodeId(i), ThermalConfig::default(), workload),
                bios: BiosChip::new(cfg.firmware),
                agent: None,
                pending_boot: Vec::new(),
                image: None,
                agent_fault: None,
                rng: node_rng(cfg.seed, i),
            });
        }
        let n_boxes = (n as usize).div_ceil(NODE_PORTS);
        let iceboxes = (0..n_boxes).map(|_| IceBox::new()).collect();
        let net = if cfg.rack_network {
            // one segment per chassis behind a fat backbone: the server
            // sits on the backbone, so partitioning one rack's segment
            // isolates exactly that chassis's nodes
            let mut net = Network::new(cfg.seed ^ 0xdead_beef);
            let backbone = net.add_segment(
                FAST_ETHERNET_BPS * 10,
                cwx_util::time::SimDuration::from_micros(100),
                0.0,
            );
            net.set_backbone(backbone);
            net.attach(World::SERVER_ADDR, backbone);
            for bx in 0..n_boxes {
                let seg = net.add_segment(
                    FAST_ETHERNET_BPS,
                    cwx_util::time::SimDuration::from_micros(100),
                    cfg.loss,
                );
                debug_assert_eq!(seg.0 as usize, 1 + bx);
            }
            for i in 0..n {
                let (bx, _) = World::rack_of(i);
                net.attach(World::addr_of(i), cwx_net::SegmentId((1 + bx) as u16));
            }
            net
        } else {
            Network::single_segment(cfg.seed ^ 0xdead_beef, n + 1, FAST_ETHERNET_BPS, cfg.loss)
        };
        let history = cfg
            .store
            .clone()
            .unwrap_or_else(|| Arc::new(MemStore::new(HISTORY_CAPACITY)));
        let server = Server::with_history(
            "cluster",
            NOTIFY_WINDOW,
            history,
            cfg.agent_interval * crate::probes::STALE_AGENT_INTERVALS,
        );
        let control = {
            let mut c = ControlPlane::new(n as usize);
            c.set_flap_policy(FlapPolicy {
                // threshold 0 disables the detector outright
                threshold: if cfg.flap_threshold == 0 {
                    u32::MAX
                } else {
                    cfg.flap_threshold
                },
                release_after: cfg.quarantine_release_after,
                ..FlapPolicy::default()
            });
            c
        };
        let world = World {
            nodes,
            iceboxes,
            net,
            decoder: WireDecoder::new(),
            server,
            control,
            scheduler: None,
            action_plugins: std::collections::BTreeMap::new(),
            control_wake: None,
            // command-loss draws get their own stream so enabling loss
            // injection cannot perturb any other random sequence
            cmd_rng: seeded_rng(cfg.seed ^ 0x1ce_b0c5),
            // separate stream for firmware boot-plan randomness
            // (hardware noise lives in the per-node RNGs)
            rng: seeded_rng(cfg.seed ^ 0x5eed),
            cfg,
        };
        let mut sim = Sim::new(world);
        install_recurring_events(&mut sim);
        if sim.world().cfg.autostart {
            sim.schedule_at(SimTime::ZERO, |sim| {
                let n = sim.world().cfg.n_nodes;
                for i in 0..n {
                    power_on_node(sim, i);
                }
            });
        }
        sim
    }
}

fn install_recurring_events(sim: &mut Sim<World>) {
    let hw_step = sim.world().cfg.hw_step;
    let agent_interval = sim.world().cfg.agent_interval;

    sim.schedule_every(hw_step, move |sim| {
        hw_tick(sim, hw_step.as_secs_f64());
        true
    });
    sim.schedule_every(agent_interval, |sim| {
        agent_tick(sim);
        true
    });
    sim.schedule_every(PROBE_INTERVAL, |sim| {
        crate::probes::probe_tick(sim);
        true
    });
    sim.schedule_every(HOUSEKEEPING_INTERVAL, |sim| {
        crate::probes::housekeeping_tick(sim);
        true
    });
}

/// Advance the physics of every node and route console output.
///
/// One fleet-wide pass in node-id order: each node evolves from its own
/// RNG, then the events it emitted route back through the sim in the
/// same order.
fn hw_tick(sim: &mut Sim<World>, dt_secs: f64) {
    let emitted = {
        let w = sim.world_mut();
        cwx_hw::fleet::step_fleet(&mut w.nodes, 1, |_, st| {
            let events = st.hw.advance(dt_secs, &mut st.rng);
            (!events.is_empty()).then_some(events)
        })
    };
    for (node, events) in emitted {
        route_hw_events(sim, node, events);
    }
}

fn route_hw_events(sim: &mut Sim<World>, node: u32, events: Vec<HwEvent>) {
    for e in events {
        match e {
            HwEvent::Console(text) => {
                let (bx, port) = World::rack_of(node);
                sim.world_mut().iceboxes[bx].feed_console(port, text.as_bytes());
            }
            HwEvent::CpuBurned { .. } => {
                let now = sim.now();
                let w = sim.world_mut();
                w.control.note_burned(now, node);
                w.nodes[node as usize].agent = None;
            }
        }
    }
}

/// Run every live agent and ship its report to the server.
///
/// Report *generation* (sampling `/proc`, consolidation, encoding) runs
/// as one fleet pass in node-id order, like the hardware step; the
/// shared network is then fed in the same order, and each delivery is a
/// [`deliver_report`] event.
fn agent_tick(sim: &mut Sim<World>) {
    let now = sim.now();
    // clear daemon faults that expired on their own (a timed hang); the
    // recovered agent resyncs so its next report is a full retransmit
    {
        let w = sim.world_mut();
        for st in &mut w.nodes {
            if st.agent_fault.is_some_and(|f| f.expired(now)) {
                st.agent_fault = None;
                if let Some(a) = st.agent.as_mut() {
                    a.resync();
                }
            }
        }
    }
    let reports = {
        let w = sim.world_mut();
        cwx_hw::fleet::step_fleet(&mut w.nodes, 1, |_, st| {
            if !st.hw.is_up() {
                return None;
            }
            // a crashed or hung daemon produces nothing this tick
            if st.agent_fault.is_some_and(|f| f.silences(now)) {
                return None;
            }
            let agent = st.agent.as_mut()?;
            let sensors = Sensors {
                cpu_temp_c: st.hw.temperature_c(),
                board_temp_c: st.hw.temperature_c() - 8.0,
                fan_rpm: st.hw.fan_rpm(),
                power_watts: st.hw.power_watts(),
                udp_echo_ok: true,
            };
            agent.tick(now, sensors).ok().map(|out| out.payload)
        })
    };
    let mut deliveries: Vec<(SimTime, Vec<u8>)> = Vec::new();
    for (node, payload) in reports {
        let fault = sim.world().nodes[node as usize].agent_fault;
        let extra = match fault {
            Some(AgentFault::DelayedReports { extra }) => extra,
            _ => SimDuration::ZERO,
        };
        let size = payload.len() as u64;
        let mut send = |msg: Vec<u8>| {
            let ds = sim.world_mut().net.unicast(
                now,
                World::addr_of(node),
                World::SERVER_ADDR,
                size,
                msg,
            );
            deliveries.extend(ds.into_iter().map(|d| (d.at + extra, d.msg)));
        };
        if matches!(fault, Some(AgentFault::DuplicatedReports)) {
            send(payload.clone());
        }
        send(payload);
    }
    for (at, msg) in deliveries {
        sim.schedule_at(at, move |sim| deliver_report(sim, &msg));
    }
}

/// A report frame reaching the server over the management segment:
/// the segment's decoder decodes it, [`commit`] stores it at its gather
/// time and runs the server's events (or counts the failure), and the
/// actions it queued execute.
pub fn deliver_report(sim: &mut Sim<World>, payload: &[u8]) {
    let arrival = Arrival {
        recv: sim.now(),
        wire: payload.len(),
        report: sim.world_mut().decoder.decode_auto(payload),
    };
    let w = sim.world_mut();
    let store = Arc::clone(w.server.history());
    commit(&*store, &[arrival], || &mut w.server);
    execute_pending_actions(sim);
}

/// The [`CommandTransport`] both deployments drive: commands land on a
/// rack of ICE Boxes through [`IceBox::execute`], losing a configured
/// fraction in transit (the E13 fault-injection knob). The simulation
/// lends it the world's chassis and command-loss stream per pump; the
/// realtime controller lends it the rack and stream it owns.
pub(crate) struct IceBoxTransport<'a> {
    pub(crate) iceboxes: &'a mut [IceBox],
    pub(crate) loss: f64,
    pub(crate) rng: &'a mut StdRng,
}

impl CommandTransport for IceBoxTransport<'_> {
    fn issue(&mut self, now: SimTime, node: u32, cmd: PowerCmd) -> IssueOutcome {
        // the loss draw comes first: a lost command never reaches the
        // chassis at all. The draw is skipped entirely at loss 0 so the
        // reliable-link configurations consume no randomness here.
        if self.loss > 0.0 && self.rng.random::<f64>() < self.loss {
            return IssueOutcome::Lost;
        }
        let (bx, port) = World::rack_of(node);
        let Some(icebox) = self.iceboxes.get_mut(bx) else {
            return IssueOutcome::Rejected;
        };
        let chassis_cmd = match cmd {
            PowerCmd::On => NodeCommand::PowerOn,
            PowerCmd::Off => NodeCommand::PowerOff,
        };
        match icebox.execute(now, port, chassis_cmd) {
            Ok(Some(PortEffect::EnergizeAt { at, .. })) => IssueOutcome::Applied {
                energize_at: Some(at),
            },
            Ok(Some(_)) => IssueOutcome::Applied { energize_at: None },
            Ok(None) => IssueOutcome::Noop,
            Err(_) => IssueOutcome::Rejected,
        }
    }

    fn relay_on(&self, node: u32) -> bool {
        let (bx, port) = World::rack_of(node);
        self.iceboxes.get(bx).is_some_and(|ib| ib.relay_on(port))
    }
}

/// Hand actions queued by the event engine to the control plane.
pub(crate) fn execute_pending_actions(sim: &mut Sim<World>) {
    let actions = sim.world_mut().server.take_actions();
    if actions.is_empty() {
        return;
    }
    let now = sim.now();
    for a in actions {
        let relay_on = {
            let (bx, port) = World::rack_of(a.node);
            sim.world().iceboxes[bx].relay_on(port)
        };
        let effects = {
            let w = sim.world_mut();
            let World {
                control, scheduler, ..
            } = w;
            match scheduler.as_mut() {
                Some(bridge) => control.submit_action(now, a.node, &a.action, relay_on, bridge),
                None => control.submit_action(now, a.node, &a.action, relay_on, &mut NoGate),
            }
        };
        for e in effects {
            apply_effect(sim, e);
        }
        // pump after each submission so a power-down that completes
        // synchronously suppresses later duplicates in the same batch,
        // exactly as the pre-bus code did
        pump_control(sim);
    }
}

/// Drive the control plane until it has nothing immediately runnable,
/// applying every physical effect, then park a wake event at its next
/// timed deadline (retry backoff, drain force-after, reboot pause).
pub(crate) fn pump_control(sim: &mut Sim<World>) {
    loop {
        let now = sim.now();
        let effects = {
            let w = sim.world_mut();
            let World {
                iceboxes,
                control,
                scheduler,
                cmd_rng,
                cfg,
                ..
            } = w;
            let mut transport = IceBoxTransport {
                iceboxes,
                loss: cfg.icebox_command_loss,
                rng: cmd_rng,
            };
            match scheduler.as_mut() {
                Some(bridge) => control.step(now, &mut transport, bridge),
                None => control.step(now, &mut transport, &mut NoGate),
            }
        };
        if effects.is_empty() {
            break;
        }
        for e in effects {
            apply_effect(sim, e);
        }
    }
    schedule_control_wake(sim);
}

/// Keep exactly one wake event parked at the control plane's next
/// deadline; cancel and re-park when the deadline moves.
fn schedule_control_wake(sim: &mut Sim<World>) {
    let want = sim.world().control.next_wakeup();
    match (want, sim.world().control_wake) {
        (None, None) => {}
        (Some(at), Some((parked, _))) if parked == at => {}
        (want, parked) => {
            if let Some((_, id)) = parked {
                sim.cancel(id);
                sim.world_mut().control_wake = None;
            }
            if let Some(at) = want {
                let at = at.max(sim.now());
                let id = sim.schedule_at(at, |sim| {
                    sim.world_mut().control_wake = None;
                    pump_control(sim);
                });
                sim.world_mut().control_wake = Some((at, id));
            }
        }
    }
}

/// Apply one physical [`Effect`] the control plane emitted.
fn apply_effect(sim: &mut Sim<World>, effect: Effect) {
    match effect {
        Effect::PowerApplied {
            node, on: false, ..
        } => {
            cancel_boot_events(sim, node);
            let w = sim.world_mut();
            let st = &mut w.nodes[node as usize];
            st.hw.set_power(PowerState::Off);
            st.agent = None;
            w.server.forget_node(node);
        }
        Effect::PowerApplied {
            node,
            on: true,
            energize_at,
        } => {
            // a re-issued power-on supersedes any boot already in flight
            cancel_boot_events(sim, node);
            let at = energize_at.unwrap_or_else(|| sim.now());
            let energize = sim.schedule_at(at, move |sim| energize_node(sim, node));
            sim.world_mut().nodes[node as usize]
                .pending_boot
                .push(energize);
        }
        Effect::HaltOs { node } => {
            cancel_boot_events(sim, node);
            let st = &mut sim.world_mut().nodes[node as usize];
            st.hw.set_booted(false);
            st.agent = None;
        }
        Effect::RunPlugin { node, name } => {
            let now = sim.now();
            let verdict = {
                let w = sim.world_mut();
                match w.action_plugins.get_mut(&name) {
                    Some(plugin) => {
                        let v = plugin(node);
                        w.control.note_plugin_ran(now, node, &name);
                        Some(v)
                    }
                    None => None, // unregistered plug-in: audited action only
                }
            };
            match verdict {
                Some(PluginVerdict::ThenPowerDown) => {
                    sim.world_mut()
                        .control
                        .submit_followup_power(now, node, false);
                }
                Some(PluginVerdict::ThenReboot) => {
                    sim.world_mut()
                        .control
                        .submit_followup_power(now, node, true);
                }
                _ => {}
            }
        }
    }
}

/// Cancel every in-flight boot-sequence event for a node (energize,
/// console phases, boot completion). O(1) per event in the wheel; stale
/// ids that already fired are rejected by their generation check, so
/// draining the whole list is always safe.
fn cancel_boot_events(sim: &mut Sim<World>, node: u32) {
    let ids = std::mem::take(&mut sim.world_mut().nodes[node as usize].pending_boot);
    for id in ids {
        sim.cancel(id);
    }
}

/// Cut a node's power: an ungated administrator request through the
/// control plane (the operator outranks the scheduler).
pub fn power_off_node(sim: &mut Sim<World>, node: u32) {
    let now = sim.now();
    sim.world_mut()
        .control
        .request_power(now, node, PowerCmd::Off);
    pump_control(sim);
}

/// Power a node on through the control plane; the chassis sequences the
/// outlet and the boot sequence runs once it energizes.
pub fn power_on_node(sim: &mut Sim<World>, node: u32) {
    let now = sim.now();
    sim.world_mut()
        .control
        .request_power(now, node, PowerCmd::On);
    pump_control(sim);
}

/// The outlet's sequenced energize window elapsed: apply power to the
/// node hardware and run its firmware boot sequence, feeding console
/// output into the chassis capture.
fn energize_node(sim: &mut Sim<World>, node: u32) {
    let now = sim.now();
    let (bx, port) = World::rack_of(node);
    {
        let w = sim.world_mut();
        w.iceboxes[bx].mark_energized(port);
        w.nodes[node as usize].hw.set_power(PowerState::On);
        w.control.note_energized(now, node);
    }
    // firmware boot plan
    let (plan, memory_ok) = {
        let w = sim.world_mut();
        let memory = if w.cfg.bad_memory_nodes.contains(&node) {
            MemoryCheck::Bad
        } else {
            MemoryCheck::Ok
        };
        let World { nodes, rng, .. } = w;
        (
            nodes[node as usize].bios.begin_boot(rng, memory),
            memory == MemoryCheck::Ok,
        )
    };
    let mut offset = SimDuration::ZERO;
    let mut chain = Vec::new();
    for phase in &plan.phases {
        if !phase.console.is_empty() {
            let text = phase.console.clone();
            chain.push(sim.schedule_in(offset, move |sim| {
                let (bx, port) = World::rack_of(node);
                sim.world_mut().iceboxes[bx].feed_console(port, text.as_bytes());
            }));
        }
        offset += phase.duration;
    }
    if memory_ok {
        chain.push(sim.schedule_in(offset, move |sim| finish_boot(sim, node)));
    } else {
        // a failed memory check halts in firmware: the node never
        // boots, and only LinuxBIOS told anyone why
        chain.push(sim.schedule_in(offset, move |sim| {
            let now = sim.now();
            let w = sim.world_mut();
            w.nodes[node as usize].pending_boot.clear();
            w.control.note_memory_failed(now, node);
        }));
    }
    sim.world_mut().nodes[node as usize]
        .pending_boot
        .extend(chain);
}

fn finish_boot(sim: &mut Sim<World>, node: u32) {
    let now = sim.now();
    let w = sim.world_mut();
    let st = &mut w.nodes[node as usize];
    // the boot sequence is complete: nothing left to cancel
    st.pending_boot.clear();
    if st.hw.power() != PowerState::On {
        return;
    }
    st.hw.set_booted(true);
    w.control.note_boot_complete(now, node);
    // the paper's wire (§5.3.3): text + LZSS
    let cfg = AgentConfig {
        node,
        delta_enabled: w.cfg.delta_enabled,
        compress: true,
        binary: false,
    };
    let st = &mut w.nodes[node as usize];
    st.agent = Agent::new(st.hw.proc_fs().clone(), cfg).ok();
    // the reboot restarted the monitoring daemon too
    st.agent_fault = None;
}

/// Stage a BIOS setting on every node remotely ("changes can be made
/// remotely to a single node or to all nodes in a cluster system. These
/// changes become active as soon as the nodes are rebooted"). Returns
/// `(staged, refused)` — vendor-BIOS nodes refuse remote management.
pub fn stage_bios_setting_fleet(sim: &mut Sim<World>, key: &str, value: &str) -> (usize, usize) {
    let w = sim.world_mut();
    let mut staged = 0;
    let mut refused = 0;
    for st in &mut w.nodes {
        match st.bios.stage_setting(key, value) {
            Ok(()) => staged += 1,
            Err(_) => refused += 1,
        }
    }
    (staged, refused)
}

/// Stage a firmware flash on every node remotely; same semantics as
/// [`stage_bios_setting_fleet`].
pub fn stage_bios_flash_fleet(sim: &mut Sim<World>, version: &str) -> (usize, usize) {
    let w = sim.world_mut();
    let mut staged = 0;
    let mut refused = 0;
    for st in &mut w.nodes {
        match st.bios.stage_flash(cwx_bios::FlashImage {
            version: version.to_string(),
        }) {
            Ok(()) => staged += 1,
            Err(_) => refused += 1,
        }
    }
    (staged, refused)
}

/// Power-cycle every node (the "changes become active" step).
pub fn power_cycle_all(sim: &mut Sim<World>) {
    let n = sim.world().cfg.n_nodes;
    for i in 0..n {
        power_off_node(sim, i);
    }
    sim.schedule_in(SimDuration::from_secs(2), move |sim| {
        for i in 0..n {
            power_on_node(sim, i);
        }
    });
}

/// Inject a hardware fault at an absolute simulated time.
pub fn schedule_fault(sim: &mut Sim<World>, at: SimTime, node: u32, fault: Fault) {
    sim.schedule_at(at, move |sim| {
        let events = sim.world_mut().nodes[node as usize].hw.inject(fault);
        route_hw_events(sim, node, events);
    });
}

/// Set (or clear) a node's monitoring-daemon fault immediately.
/// Clearing a fault resyncs the daemon so the server regains full
/// monitor state on its next report.
pub fn set_agent_fault(sim: &mut Sim<World>, node: u32, fault: Option<AgentFault>) {
    let st = &mut sim.world_mut().nodes[node as usize];
    st.agent_fault = fault;
    if fault.is_none() {
        if let Some(a) = st.agent.as_mut() {
            a.resync();
        }
    }
}

/// Restart a chassis controller mid-flight: relay latches survive (the
/// hardware holds them), but pending energize sequencing is lost — a
/// node whose outlet was waiting its stagger slot hangs in `PoweringOn`
/// until the control plane's boot watchdog power-cycles it. The
/// in-flight energize events are cancelled here, mirroring the lost
/// chassis state.
pub fn chassis_restart(sim: &mut Sim<World>, bx: usize) {
    let now = sim.now();
    let lost = sim.world_mut().iceboxes[bx].controller_restart(now);
    for port in lost {
        let node = (bx * NODE_PORTS + port.0 as usize) as u32;
        if (node as usize) < sim.world().nodes.len() {
            cancel_boot_events(sim, node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cluster(cfg: ClusterConfig, secs: u64) -> Sim<World> {
        let mut sim = Cluster::build(cfg);
        sim.run_for(SimDuration::from_secs(secs));
        sim
    }

    #[test]
    fn cluster_boots_and_reports() {
        let sim = run_cluster(
            ClusterConfig {
                n_nodes: 8,
                ..Default::default()
            },
            120,
        );
        let w = sim.world();
        assert_eq!(w.up_count(), 8);
        let stats = w.server.stats();
        assert!(
            stats.reports_rx > 8 * 10,
            "agents must be reporting: {}",
            stats.reports_rx
        );
        assert_eq!(stats.decode_errors, 0);
        // history has data for every node
        for i in 0..8 {
            assert!(w.server.history().latest(i, "load.one").is_some());
        }
    }

    #[test]
    fn linuxbios_cluster_comes_up_much_faster() {
        let lb = {
            let mut sim = Cluster::build(ClusterConfig {
                n_nodes: 4,
                firmware: cwx_bios::Firmware::LinuxBios,
                ..Default::default()
            });
            let mut t = None;
            for _ in 0..100_000 {
                if !sim.step() {
                    break;
                }
                if sim.world().up_count() == 4 {
                    t = Some(sim.now());
                    break;
                }
            }
            t.expect("linuxbios cluster must come up")
        };
        let legacy = {
            let mut sim = Cluster::build(ClusterConfig {
                n_nodes: 4,
                firmware: cwx_bios::Firmware::LegacyBios,
                ..Default::default()
            });
            let mut t = None;
            for _ in 0..1_000_000 {
                if !sim.step() {
                    break;
                }
                if sim.world().up_count() == 4 {
                    t = Some(sim.now());
                    break;
                }
            }
            t.expect("legacy cluster must come up")
        };
        assert!(
            legacy.as_secs_f64() > lb.as_secs_f64() + 20.0,
            "legacy {legacy} vs linuxbios {lb}"
        );
    }

    #[test]
    fn fan_failure_triggers_power_down_before_burn() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 4,
            workload: WorkloadMix::Constant(1.0),
            ..Default::default()
        });
        // let it boot and warm up, then kill a fan
        schedule_fault(
            &mut sim,
            SimTime::ZERO + SimDuration::from_secs(300),
            2,
            Fault::FanFailure,
        );
        sim.run_for(SimDuration::from_secs(1200));
        let w = sim.world();
        // the event engine must have powered node 2 down
        assert!(
            w.action_log()
                .iter()
                .any(|a| a.node == 2 && a.action == Action::PowerDown),
            "power-down action missing: {:?}",
            w.action_log()
        );
        // and the CPU must have survived
        assert_ne!(w.nodes[2].hw.health(), cwx_hw::HealthState::Burned);
        // exactly one email about it
        let mails: Vec<_> = w
            .server
            .outbox()
            .iter()
            .filter(|m| m.event == "cpu-fan-failure")
            .collect();
        assert_eq!(mails.len(), 1, "{:?}", w.server.outbox());
        assert_eq!(mails[0].nodes, vec![2]);
    }

    #[test]
    fn kernel_panic_heals_via_reboot() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 2,
            ..Default::default()
        });
        schedule_fault(
            &mut sim,
            SimTime::ZERO + SimDuration::from_secs(120),
            1,
            Fault::KernelPanic,
        );
        sim.run_for(SimDuration::from_secs(600));
        let w = sim.world();
        assert!(
            w.action_log()
                .iter()
                .any(|a| a.node == 1 && a.action == Action::Reboot),
            "reboot action missing: {:?}",
            w.action_log()
        );
        assert!(w.nodes[1].hw.is_up(), "node must be healed and back up");
        // the panic spew is in the ICE Box console log for post-mortem
        let (bx, port) = World::rack_of(1);
        assert!(w.iceboxes[bx].console_log(port).contains("Kernel panic"));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = Cluster::build(ClusterConfig {
                n_nodes: 6,
                seed,
                ..Default::default()
            });
            schedule_fault(
                &mut sim,
                SimTime::ZERO + SimDuration::from_secs(100),
                3,
                Fault::FanFailure,
            );
            sim.run_for(SimDuration::from_secs(400));
            let w = sim.world();
            (w.server.stats(), w.action_log(), w.server.outbox().len())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn power_off_mid_boot_cancels_the_whole_boot_chain() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 1,
            autostart: false,
            ..Default::default()
        });
        let idle = sim.events_pending();
        power_on_node(&mut sim, 0);
        // let the energize event fire so the console/finish chain exists
        sim.run_for(SimDuration::from_secs(2));
        assert!(
            !sim.world().nodes[0].pending_boot.is_empty(),
            "boot chain must be tracked"
        );
        power_off_node(&mut sim, 0);
        assert!(sim.world().nodes[0].pending_boot.is_empty());
        assert_eq!(
            sim.events_pending(),
            idle,
            "cancel must reclaim every in-flight boot event"
        );
        sim.run_for(SimDuration::from_secs(120));
        assert!(
            !sim.world().nodes[0].hw.is_up(),
            "cancelled boot must not finish"
        );
    }

    #[test]
    fn completed_boot_leaves_no_cancellable_events() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 2,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(sim.world().up_count(), 2);
        for st in &sim.world().nodes {
            assert!(
                st.pending_boot.is_empty(),
                "finish_boot must clear the chain"
            );
        }
    }

    #[test]
    fn power_cycle_mid_boot_is_safe() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 1,
            ..Default::default()
        });
        // cut power while the node is still booting, then power on again
        sim.schedule_at(SimTime::ZERO + SimDuration::from_millis(1500), |sim| {
            power_off_node(sim, 0);
        });
        sim.schedule_at(SimTime::ZERO + SimDuration::from_secs(5), |sim| {
            power_on_node(sim, 0);
        });
        sim.run_for(SimDuration::from_secs(120));
        assert!(
            sim.world().nodes[0].hw.is_up(),
            "second boot must complete cleanly"
        );
        // exactly one live agent, reporting
        assert!(sim.world().server.stats().reports_rx > 0);
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;

    #[test]
    fn bad_memory_node_halts_in_firmware_with_serial_diagnosis() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 4,
            bad_memory_nodes: vec![2],
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(120));
        let w = sim.world();
        assert_eq!(w.up_count(), 3, "the bad-DIMM node never boots");
        assert!(!w.nodes[2].hw.is_up());
        // LinuxBIOS told us why, remotely, on the captured console
        let (bx, port) = World::rack_of(2);
        let log = w.iceboxes[bx].console_log(port);
        assert!(log.contains("Testing DRAM: FAILED"), "console: {log}");
        // healthy neighbours show the pass message instead
        let (bx0, port0) = World::rack_of(0);
        assert!(w.iceboxes[bx0]
            .console_log(port0)
            .contains("Testing DRAM: done"));
    }

    #[test]
    fn legacy_bios_bad_memory_is_silent_on_serial() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 2,
            firmware: cwx_bios::Firmware::LegacyBios,
            bad_memory_nodes: vec![1],
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(200));
        let w = sim.world();
        assert!(!w.nodes[1].hw.is_up());
        let (bx, port) = World::rack_of(1);
        // the administrator gets nothing: the paper's §2 complaint
        assert!(!w.iceboxes[bx].console_log(port).contains("FAILED"));
    }
}

#[cfg(test)]
mod plugin_action_tests {
    use super::*;
    use crate::actions::AuditEntry;
    use crate::lifecycle::LifecycleState;
    use cwx_events::engine::{Comparison, EventDef, EventId, Threshold};
    use cwx_monitor::monitor::MonitorKey;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn hot_rule(action: Action) -> EventDef {
        EventDef {
            id: EventId(100),
            name: "site-overtemp-script".into(),
            threshold: Threshold {
                monitor: MonitorKey::new("temp.cpu"),
                cmp: Comparison::GreaterThan,
                value: 50.0,
                hysteresis: 5.0,
            },
            action,
            notify: false,
        }
    }

    #[test]
    fn plugin_action_runs_and_its_verdict_is_applied() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 3,
            seed: 31,
            workload: WorkloadMix::Constant(1.0),
            ..Default::default()
        });
        // replace the default overtemp power-down with a site script
        // that records the call and then asks for a power-down
        sim.world_mut()
            .server
            .engine_mut()
            .remove(cwx_events::engine::EventId(1));
        sim.world_mut()
            .server
            .engine_mut()
            .add(hot_rule(Action::Plugin("drain-then-off.sh".into())));
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        sim.world_mut().register_action_plugin(
            "drain-then-off.sh",
            Box::new(move |_node| {
                calls2.fetch_add(1, Ordering::Relaxed);
                PluginVerdict::ThenPowerDown
            }),
        );
        sim.run_for(SimDuration::from_secs(900));
        let w = sim.world();
        assert!(calls.load(Ordering::Relaxed) >= 1, "plugin must run");
        assert!(!w.plugin_log().is_empty());
        // the verdict powered the hot nodes down
        assert!(w.nodes.iter().any(|n| n.hw.power() == PowerState::Off));
    }

    #[test]
    fn unregistered_plugin_is_logged_but_harmless() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 2,
            seed: 32,
            workload: WorkloadMix::Constant(1.0),
            ..Default::default()
        });
        sim.world_mut()
            .server
            .engine_mut()
            .remove(cwx_events::engine::EventId(1));
        sim.world_mut()
            .server
            .engine_mut()
            .add(hot_rule(Action::Plugin("missing.sh".into())));
        sim.run_for(SimDuration::from_secs(600));
        let w = sim.world();
        // action recorded in the audit trail, nothing executed, nodes on
        assert!(w
            .action_log()
            .iter()
            .any(|a| matches!(a.action, Action::Plugin(_))));
        assert!(w.plugin_log().is_empty());
        assert_eq!(w.up_count(), 2);
    }

    #[test]
    fn then_reboot_verdict_power_cycles_the_node() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 3,
            seed: 33,
            workload: WorkloadMix::Constant(1.0),
            ..Default::default()
        });
        sim.world_mut()
            .server
            .engine_mut()
            .remove(cwx_events::engine::EventId(1));
        sim.world_mut()
            .server
            .engine_mut()
            .add(hot_rule(Action::Plugin("cool-then-reboot.sh".into())));
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        sim.world_mut().register_action_plugin(
            "cool-then-reboot.sh",
            Box::new(move |_node| {
                calls2.fetch_add(1, Ordering::Relaxed);
                PluginVerdict::ThenReboot
            }),
        );
        sim.run_for(SimDuration::from_secs(900));
        let w = sim.world();
        assert!(calls.load(Ordering::Relaxed) >= 1, "plugin must run");
        assert!(!w.plugin_log().is_empty());
        // the verdict chained a full power cycle: the audit shows the
        // off leg and the on leg both landing on the hot node
        let cycled = w.plugin_log().iter().any(|(_, _, node)| {
            let mut saw_off = false;
            w.control.audit().iter().any(|r| {
                if r.node != Some(*node) {
                    return false;
                }
                match &r.entry {
                    AuditEntry::Transition {
                        to: LifecycleState::Off,
                        ..
                    } => {
                        saw_off = true;
                        false
                    }
                    AuditEntry::Transition {
                        to: LifecycleState::PoweringOn,
                        ..
                    } => saw_off,
                    _ => false,
                }
            })
        });
        assert!(cycled, "ThenReboot must power the node off and back on");
    }
}

#[cfg(test)]
mod bios_mgmt_tests {
    use super::*;

    #[test]
    fn fleet_settings_and_flash_apply_at_reboot() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 5,
            seed: 61,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(sim.world().up_count(), 5);

        let (staged, refused) = stage_bios_setting_fleet(&mut sim, "boot_source", "ethernet");
        assert_eq!((staged, refused), (5, 0));
        let (staged, _) = stage_bios_flash_fleet(&mut sim, "linuxbios-1.1.8");
        assert_eq!(staged, 5);
        // not active yet
        assert_eq!(
            sim.world().nodes[0].bios.boot_source(),
            cwx_bios::BootSource::Disk
        );
        assert_eq!(sim.world().nodes[0].bios.version(), "linuxbios-1.0.0");

        power_cycle_all(&mut sim);
        sim.run_for(SimDuration::from_secs(120));
        let w = sim.world();
        assert_eq!(w.up_count(), 5, "everyone back after the rolling cycle");
        for (i, st) in w.nodes.iter().enumerate() {
            assert_eq!(
                st.bios.boot_source(),
                cwx_bios::BootSource::Ethernet,
                "node{i}"
            );
            assert_eq!(st.bios.version(), "linuxbios-1.1.8", "node{i}");
        }
        // the netboot shows on the captured consoles
        let (bx, port) = World::rack_of(0);
        assert!(w.iceboxes[bx].console_log(port).contains("etherboot"));
    }

    #[test]
    fn vendor_bios_fleet_refuses_remote_management() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 3,
            firmware: cwx_bios::Firmware::LegacyBios,
            ..Default::default()
        });
        let (staged, refused) = stage_bios_setting_fleet(&mut sim, "boot_source", "ethernet");
        assert_eq!(
            (staged, refused),
            (0, 3),
            "walk to every node with a keyboard instead"
        );
    }
}
