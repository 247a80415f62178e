//! A real-time (wall-clock, threaded) deployment of the monitoring
//! pipeline — the shape the product actually ran in, as opposed to the
//! discrete-event simulation the experiments use.
//!
//! Tier 1: one OS thread per node runs the agent loop against its
//! (synthetic or real) /proc and ships compressed reports over a real
//! loopback TCP connection — length-prefixed `CWB1` frames into the
//! [`crate::ingest`] plane, reconnecting (with
//! [`cwx_monitor::agent::Agent::resync`]) if the link drops. Tier 2 is
//! the ingest server's readiness-driven reactor, which decodes each
//! connection's frames and appends them to its lane's inbox; the lane's
//! flush worker takes whatever accumulated there and commits it to a
//! shared [`Server`] behind a `parking_lot::RwLock` through
//! [`crate::server::commit`], the function the simulator's delivery
//! event calls too. Tier 3: any number of client threads read the lock
//! concurrently ("multiple clients access the ClusterWorX server at the
//! same time without conflict").
//!
//! The server's history is the store the caller hands in
//! ([`RealTimeConfig::store`]): an in-memory [`MemStore`] ring by
//! default, or a [`cwx_store::disk::DiskStore`] the caller opened, which
//! a restart over the same directory recovers. `commit` batch-appends
//! samples to it at each report's gather time outside the server lock,
//! and takes the server write lock only for event evaluation. Slow
//! consumers are tested by handing in a store that is slow to take
//! writes; the deployment itself has no stall hook.
//!
//! Backpressure is end-to-end and bounded at every hop: each lane's
//! inbox is capped at [`crate::ingest::LANE_CAP_BYTES`] of frames, so a
//! consolidated report that carries one value or none counts as surely
//! as a full one (the hand-over that reaches the cap pauses the lane's
//! connections and audits
//! [`crate::actions::AuditEntry::IngestBackpressure`] until the flush
//! worker takes what accumulated), paused sockets push back on agents
//! through the TCP window, and agents block in `write` rather than
//! dropping or buffering unboundedly.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwx_icebox::chassis::{IceBox, NODE_PORTS};
use cwx_monitor::agent::{Agent, AgentConfig};
use cwx_monitor::snapshot::Sensors;
use cwx_net::frame::put_frame;
use cwx_proc::synthetic::SyntheticProc;
use cwx_store::mem::MemStore;
use cwx_store::Store;
use cwx_util::time::{wall_since, SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};

use crate::actions::{CommandTransport, ControlPlane, Effect, NoGate};
use crate::ingest::{IngestConfig, IngestServer, IngestStats};
use crate::server::Server;
use crate::world::{IceBoxTransport, World};

/// Handle to a running real-time deployment.
pub struct RealTimeDeployment {
    server: Arc<RwLock<Server>>,
    control: Arc<Mutex<ControlPlane>>,
    stop: Arc<AtomicBool>,
    agents: Vec<std::thread::JoinHandle<u64>>,
    ingest: Option<IngestServer>,
    controller: Option<std::thread::JoinHandle<()>>,
}

/// Parameters for [`RealTimeDeployment::start`].
#[derive(Debug, Clone)]
pub struct RealTimeConfig {
    /// Number of synthetic nodes (one agent thread each).
    pub n_nodes: u32,
    /// Wall-clock sampling interval per agent.
    pub interval: Duration,
    /// Ingest listen address (port 0 picks a free port; agents connect
    /// to whatever was bound).
    pub listen: String,
    /// The server's history store, opened by the caller. Ingest appends
    /// to it and shutdown flushes it.
    pub store: Arc<dyn Store>,
}

/// How long after its last report a node counts as unreachable in the
/// server's staleness checks.
const STALE_AFTER: SimDuration = SimDuration::from_secs(30);

impl Default for RealTimeConfig {
    fn default() -> Self {
        RealTimeConfig {
            n_nodes: 8,
            interval: Duration::from_millis(50),
            listen: "127.0.0.1:0".to_string(),
            store: Arc::new(MemStore::new(4096)),
        }
    }
}

/// Simulated activity level of the nodes.
const UTIL: f64 = 0.4;

fn agent_loop(
    node: u32,
    interval: Duration,
    addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    os_up: Arc<Vec<AtomicBool>>,
    control: Arc<Mutex<ControlPlane>>,
) -> u64 {
    let Some(addr) = addr else {
        // ingest never came up (bind failure, already audited): the
        // node exists for lifecycle purposes but has nowhere to report
        return 0;
    };
    let proc_ = SyntheticProc::default();
    let mut agent = match Agent::new(
        proc_.clone(),
        AgentConfig {
            node,
            binary: true,
            ..AgentConfig::default()
        },
    ) {
        Ok(a) => a,
        Err(e) => {
            // recoverable: one node without an agent, audited, no panic
            control.lock().audit_io_error(
                SimTime::ZERO,
                Some(node),
                format!("agent start failed: {e:?}"),
            );
            return 0;
        }
    };
    let started = Instant::now();
    let mut sent = 0u64;
    let mut conn: Option<TcpStream> = None;
    let mut frame: Vec<u8> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // a powered-down or halted node reports nothing (and its link
        // drops); the control plane flips this flag through its
        // lifecycle effects
        if !os_up[node as usize].load(Ordering::Relaxed) {
            conn = None;
            std::thread::sleep(interval);
            continue;
        }
        // (re)connect before gathering, so the first report on a fresh
        // link carries the full resync state the server-side
        // per-connection decoder needs
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    agent.resync();
                    conn = Some(s);
                }
                Err(_) => {
                    std::thread::sleep(interval);
                    continue;
                }
            }
        }
        proc_.with_state(|s| s.tick(interval.as_secs_f64(), UTIL));
        let now = wall_since(started);
        let sensors = Sensors {
            cpu_temp_c: 40.0 + 20.0 * UTIL,
            board_temp_c: 35.0,
            fan_rpm: 6000.0,
            power_watts: 90.0 + 110.0 * UTIL,
            udp_echo_ok: true,
        };
        if let Ok(out) = agent.tick(now, sensors) {
            frame.clear();
            put_frame(&mut frame, &out.payload);
            // blocking write into a bounded pipeline: a backpressured
            // server pauses this socket and the TCP window blocks us
            // here — never a drop, never an unbounded buffer
            match conn.as_mut().unwrap().write_all(&frame) {
                Ok(()) => sent += 1,
                Err(_) => {
                    // evicted or server restart: reconnect + resync
                    conn = None;
                    continue;
                }
            }
        }
        std::thread::sleep(interval);
    }
    sent
}

/// A node boot in progress on the controller thread's timeline.
struct PendingBoot {
    node: u32,
    energize_at: SimTime,
    up_at: SimTime,
    energized: bool,
}

/// How often the controller thread drains the server's queued actions
/// into the control plane and pumps the command bus.
const CONTROL_INTERVAL: Duration = Duration::from_millis(20);

/// Wall-clock stand-in for a node's firmware+OS boot after its outlet
/// energizes.
const BOOT_DELAY: SimDuration = SimDuration::from_millis(100);

/// The controller loop: the wall-clock twin of the simulation's
/// `execute_pending_actions` + `pump_control`. Every [`CONTROL_INTERVAL`]
/// it drains the server's queued actions into the shared
/// [`ControlPlane`], pumps the command bus through the chassis
/// transport the simulation uses — over a rack of ICE Boxes and a
/// command-loss stream this thread owns — and applies the physical
/// effects (power flags, boots, `forget_node`). Identical state machine,
/// different clock.
fn controller_loop(
    n_nodes: u32,
    server: Arc<RwLock<Server>>,
    control: Arc<Mutex<ControlPlane>>,
    os_up: Arc<Vec<AtomicBool>>,
    stop: Arc<AtomicBool>,
) {
    let n_boxes = (n_nodes as usize).div_ceil(NODE_PORTS);
    let mut iceboxes: Vec<IceBox> = (0..n_boxes.max(1)).map(|_| IceBox::new()).collect();
    let mut rng = cwx_util::rng::rng(0x1ce_b0c5);
    // adopt the running fleet: relays closed, lifecycle forced Up
    {
        let mut cp = control.lock();
        for node in 0..n_nodes {
            let (bx, port) = World::rack_of(node);
            let _ = iceboxes[bx].power_on(SimTime::ZERO, port);
            iceboxes[bx].mark_energized(port);
            cp.adopt_up(SimTime::ZERO, node);
        }
    }
    let epoch = Instant::now();
    let mut boots: Vec<PendingBoot> = Vec::new();
    loop {
        let now = wall_since(epoch);
        // boots reach their milestones on the wall clock
        let mut cp = control.lock();
        for b in &mut boots {
            if !b.energized && now >= b.energize_at {
                let (bx, port) = World::rack_of(b.node);
                iceboxes[bx].mark_energized(port);
                cp.note_energized(now, b.node);
                b.energized = true;
            }
            if b.energized && now >= b.up_at {
                cp.note_boot_complete(now, b.node);
                os_up[b.node as usize].store(true, Ordering::Relaxed);
            }
        }
        boots.retain(|b| !(b.energized && b.up_at <= now));
        let mut transport = IceBoxTransport {
            iceboxes: &mut iceboxes,
            // the wall-clock deployment's chassis link is reliable
            loss: 0.0,
            rng: &mut rng,
        };
        // drain queued actions, mirroring the simulation driver: pump
        // after each submission so an applied power-off suppresses later
        // duplicates in the same batch
        let actions = server.write().take_actions();
        for a in actions {
            let relay_on = transport.relay_on(a.node);
            let effects = cp.submit_action(now, a.node, &a.action, relay_on, &mut NoGate);
            for e in effects {
                apply_rt_effect(e, now, &mut cp, &os_up, &server, &mut boots);
            }
            loop {
                let effects = cp.step(now, &mut transport, &mut NoGate);
                if effects.is_empty() {
                    break;
                }
                for e in effects {
                    apply_rt_effect(e, now, &mut cp, &os_up, &server, &mut boots);
                }
            }
        }
        // pump timed work (retry backoffs, the reboot pause)
        loop {
            let effects = cp.step(now, &mut transport, &mut NoGate);
            if effects.is_empty() {
                break;
            }
            for e in effects {
                apply_rt_effect(e, now, &mut cp, &os_up, &server, &mut boots);
            }
        }
        let idle = cp.outstanding() == 0 && boots.is_empty();
        drop(cp);
        if stop.load(Ordering::Relaxed) && idle {
            break;
        }
        std::thread::sleep(CONTROL_INTERVAL);
    }
}

/// Apply one control-plane effect on the wall-clock deployment.
fn apply_rt_effect(
    effect: Effect,
    now: SimTime,
    cp: &mut ControlPlane,
    os_up: &Arc<Vec<AtomicBool>>,
    server: &Arc<RwLock<Server>>,
    boots: &mut Vec<PendingBoot>,
) {
    match effect {
        Effect::PowerApplied {
            node, on: false, ..
        } => {
            boots.retain(|b| b.node != node);
            os_up[node as usize].store(false, Ordering::Relaxed);
            server.write().forget_node(node);
        }
        Effect::PowerApplied {
            node,
            on: true,
            energize_at,
        } => {
            boots.retain(|b| b.node != node);
            let energize_at = energize_at.unwrap_or(now);
            boots.push(PendingBoot {
                node,
                energize_at,
                up_at: energize_at + BOOT_DELAY,
                energized: false,
            });
        }
        Effect::HaltOs { node } => {
            boots.retain(|b| b.node != node);
            os_up[node as usize].store(false, Ordering::Relaxed);
        }
        Effect::RunPlugin { node, name } => {
            // the wall-clock deployment has no plug-in registry yet; the
            // action itself is already in the audit trail
            cp.note_plugin_ran(now, node, &name);
        }
    }
}

impl RealTimeDeployment {
    /// Start the threads.
    pub fn start(cfg: RealTimeConfig) -> Self {
        let control = Arc::new(Mutex::new(ControlPlane::new(cfg.n_nodes as usize)));
        let server = Arc::new(RwLock::new(Server::with_history(
            "realtime",
            SimDuration::from_secs(5),
            cfg.store,
            STALE_AFTER,
        )));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();

        let ingest = IngestServer::start(
            IngestConfig {
                listen: cfg.listen,
                ..IngestConfig::default()
            },
            Arc::clone(&server),
            None,
            Arc::clone(&control),
            started,
        );
        let ingest = match ingest {
            Ok(i) => Some(i),
            Err(e) => {
                // degrade rather than die: lifecycle still runs, the
                // monitoring feed is down and audited
                control.lock().audit_io_error(
                    SimTime::ZERO,
                    None,
                    format!("ingest listener failed to start: {e:?}"),
                );
                None
            }
        };
        let addr = ingest.as_ref().map(|i| i.addr());

        // the fleet starts adopted-up; the control plane's effects flip
        // these flags as nodes power down, halt, or reboot
        let os_up: Arc<Vec<AtomicBool>> =
            Arc::new((0..cfg.n_nodes).map(|_| AtomicBool::new(true)).collect());

        let agents: Vec<_> = (0..cfg.n_nodes)
            .map(|node| {
                let stop = Arc::clone(&stop);
                let os_up = Arc::clone(&os_up);
                let control = Arc::clone(&control);
                let interval = cfg.interval;
                std::thread::spawn(move || agent_loop(node, interval, addr, stop, os_up, control))
            })
            .collect();

        let controller = {
            let n_nodes = cfg.n_nodes;
            let server = Arc::clone(&server);
            let control = Arc::clone(&control);
            let os_up = Arc::clone(&os_up);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || controller_loop(n_nodes, server, control, os_up, stop))
        };

        RealTimeDeployment {
            server,
            control,
            stop,
            agents,
            ingest,
            controller: Some(controller),
        }
    }

    /// The shared server — clone the `Arc` for tier-3 clients.
    pub fn server(&self) -> Arc<RwLock<Server>> {
        Arc::clone(&self.server)
    }

    /// The shared control plane — the same lifecycle machine the
    /// simulation drives, here fed by the controller thread.
    pub fn control(&self) -> Arc<Mutex<ControlPlane>> {
        Arc::clone(&self.control)
    }

    /// Live ingest-plane counters (connections, frames, backpressure).
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest.as_ref().map(|i| i.stats()).unwrap_or_default()
    }

    /// A point-in-time rollup for federation export — the realtime
    /// twin of `World::fed_snapshot`, assembled under the shared locks.
    pub fn fed_snapshot(&self) -> crate::server::ClusterSnapshot {
        let counts = self.control.lock().lifecycle().counts();
        self.server.write().cluster_snapshot(counts)
    }

    /// Stop everything; returns the reports the agents sent and the
    /// ingest plane's final counters ([`IngestStats::reports`] is the
    /// reports ingested). The history store is flushed on the way out
    /// ([`Store::flush`]; a disk store's history is WAL-recoverable even
    /// without it — the flush just trims replay).
    pub fn shutdown(mut self) -> (u64, IngestStats) {
        self.stop.store(true, Ordering::Relaxed);
        let mut sent = 0;
        for h in self.agents.drain(..) {
            match h.join() {
                Ok(n) => sent += n,
                Err(_) => self.control.lock().audit_io_error(
                    SimTime::ZERO,
                    None,
                    "agent thread panicked during shutdown".to_string(),
                ),
            }
        }
        if let Some(controller) = self.controller.take() {
            if controller.join().is_err() {
                self.control.lock().audit_io_error(
                    SimTime::ZERO,
                    None,
                    "controller thread panicked during shutdown".to_string(),
                );
            }
        }
        // agents have hung up; the ingest server drains their sockets
        // to EOF and flushes every buffered batch before stopping
        let ingest = self.ingest.take().map(|i| i.stop()).unwrap_or_default();
        self.server.read().history().flush();
        (sent, ingest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threaded_pipeline_delivers_everything() {
        let dep = RealTimeDeployment::start(RealTimeConfig {
            n_nodes: 6,
            interval: Duration::from_millis(20),
            ..RealTimeConfig::default()
        });

        // tier-3 clients read while agents write
        let server = dep.server();
        let reader = std::thread::spawn(move || {
            let mut reads = 0;
            for _ in 0..50 {
                let s = server.read();
                let history = s.history();
                for (node, key) in history.series() {
                    if key == "load.one" {
                        let _ = history.latest(node, &key);
                    }
                }
                reads += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            reads
        });

        std::thread::sleep(Duration::from_millis(400));
        let reads = reader.join().unwrap();
        let server = dep.server();
        let (sent, ingest) = dep.shutdown();
        let ingested = ingest.reports;

        assert!(sent > 6 * 5, "agents produced work: {sent}");
        assert_eq!(sent, ingested, "the lane inbox delivered every report");
        assert_eq!(reads, 50);
        let s = server.read();
        assert_eq!(s.stats().decode_errors, 0);
        assert_eq!(s.stats().reports_rx, ingested);
        for node in 0..6 {
            assert!(s.node_status(node).is_some(), "node{node} reported");
        }
    }
}
