//! Realtime transport for the federation: `CWF1` frames over TCP in
//! the workspace's length-prefixed framing ([`cwx_net::frame`]).
//!
//! The simulated deployment exchanges frames as byte vectors in
//! process; this module is the deployment twin that `cwx fed serve`
//! (head) and `cwx fed join` (sub-server) run as actual processes.
//! Realtime federation time is wall time since process start projected
//! onto [`SimTime`] ([`wall_since`]), so the head's staleness and retry
//! machinery is byte-for-byte the code the simulation exercises.
//!
//! The head serves its sub-server uplinks through the same connection
//! table as agent ingest ([`ConnTable`]): one thread owns every uplink,
//! each with a bounded write queue — a sub-server that stops reading
//! its command stream is evicted (it reconnects and resyncs; the join
//! side already handles that), never allowed to wedge the head or
//! balloon its memory. What the head adds is the command route: each
//! cluster's commands go down the connection that last spoke for it.
//!
//! The join side reads through a [`FrameBuffer`], so a frame cut by its
//! read timeout is completed on the next read, never misparsed.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use clusterworx::{RealTimeDeployment, RetryPolicy};
use cwx_net::conns::{ConnEvent, ConnId, ConnTable};
use cwx_net::frame::{put_frame, ConnLimits, FrameBuffer, ReadState};
use cwx_net::reactor::Waker;
use cwx_util::time::{wall_since, SimDuration, SimTime};

use crate::head::FederationHead;
use crate::protocol::FedWireError;
use crate::sub::SubLink;

/// Uplink bounds: a corrupt length prefix must not allocate gigabytes,
/// and a sub that stops reading may absorb this much queued command
/// traffic before eviction.
const LIMITS: ConnLimits = ConnLimits {
    max_frame: 16 << 20,
    max_write_buffer: 4 << 20,
};

/// How often the head's retry/staleness machinery is pumped even with
/// no inbound traffic.
const PUMP_INTERVAL: Duration = Duration::from_millis(100);

/// A running federation head serving TCP sub-servers.
pub struct HeadServer {
    head: Arc<Mutex<FederationHead>>,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: JoinHandle<()>,
    addr: SocketAddr,
    epoch: Instant,
}

struct HeadReactor {
    conns: ConnTable<()>,
    head: Arc<Mutex<FederationHead>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    /// cluster id → the connection that last spoke for it.
    routes: BTreeMap<u16, ConnId>,
}

impl HeadReactor {
    fn run(&mut self) {
        let mut events = Vec::new();
        let mut last_pump = Instant::now();
        while !self.stop.load(Ordering::Relaxed) {
            if self
                .conns
                .poll(&mut events, PUMP_INTERVAL, |_| Some(()))
                .is_err()
            {
                break;
            }
            for &ev in &events {
                self.conn_ready(ev);
            }
            if last_pump.elapsed() >= PUMP_INTERVAL {
                last_pump = Instant::now();
                self.pump_commands();
            }
        }
    }

    fn conn_ready(&mut self, ev: ConnEvent) {
        let Some(mut conn) = self.conns.take(ev.id) else {
            return;
        };
        if ev.readable {
            let now = wall_since(self.epoch);
            let (head, routes) = (&self.head, &mut self.routes);
            let outcome = conn.fc.read_frames(|frame| {
                match head.lock().expect("head lock poisoned").ingest(now, frame) {
                    Ok(cluster) | Err(FedWireError::BadPayload { cluster }) => {
                        routes.insert(cluster, ev.id);
                    }
                    Err(_) => {}
                }
            });
            if !matches!(outcome, Ok(ReadState::Drained | ReadState::HasMore)) {
                return self.conns.close(conn);
            }
        }
        if ev.writable && conn.fc.flush().is_err() {
            return self.conns.close(conn);
        }
        self.conns.restore(conn);
    }

    /// Push due command frames down their owning connections. A route
    /// whose connection is gone is dropped (the head's retry machinery
    /// re-queues the command; the sub resyncs on reconnect). A sub
    /// whose write queue overflows is a slow consumer: evicted.
    fn pump_commands(&mut self) {
        let due = self
            .head
            .lock()
            .expect("head lock poisoned")
            .poll(wall_since(self.epoch));
        for (cluster, frame) in due {
            let conn = self
                .routes
                .get(&cluster)
                .and_then(|&id| self.conns.take(id));
            let Some(mut conn) = conn else {
                self.routes.remove(&cluster);
                continue;
            };
            if conn.fc.queue_frame(&frame).is_ok() {
                self.conns.restore(conn);
            } else {
                self.conns.close(conn);
            }
        }
    }
}

impl HeadServer {
    /// Bind `listen` (e.g. `127.0.0.1:7411`; port 0 picks a free one)
    /// and start the reactor thread (accept + reads + command pump).
    pub fn start(listen: &str, stale_after: SimDuration, retry: RetryPolicy) -> io::Result<Self> {
        // sub-clusters reconnect in lockstep after a head failover
        let conns = ConnTable::bind(listen, 1024, LIMITS)?;
        let addr = conns.local_addr()?;
        let waker = conns.waker().clone();
        let head = Arc::new(Mutex::new(FederationHead::new(stale_after, retry)));
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let mut reactor = HeadReactor {
            conns,
            head: Arc::clone(&head),
            stop: Arc::clone(&stop),
            epoch,
            routes: BTreeMap::new(),
        };
        Ok(HeadServer {
            head,
            stop,
            waker,
            thread: thread::spawn(move || reactor.run()),
            addr,
            epoch,
        })
    }

    /// The bound address (use after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared head, for fleet-view queries and command injection.
    pub fn head(&self) -> Arc<Mutex<FederationHead>> {
        Arc::clone(&self.head)
    }

    /// Wall time since the head started, projected onto federation
    /// time (what `aggregate`/`status` expect as `now`).
    pub fn now(&self) -> SimTime {
        wall_since(self.epoch)
    }

    /// Stop the reactor; open uplinks are dropped (sub-servers
    /// reconnect and resync if a new head comes up).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        let _ = self.thread.join();
    }
}

/// Counters a join loop reports on exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Uplink export rounds performed.
    pub exports: u64,
    /// Commands received and applied.
    pub commands: u64,
    /// Times the TCP session was re-established (each performed the
    /// full dictionary-reset resync handshake).
    pub reconnects: u64,
}

/// Write `frames`, each length-prefixed, with one `write_all`.
fn send<'a>(
    stream: &mut TcpStream,
    frames: impl IntoIterator<Item = &'a Vec<u8>>,
) -> io::Result<()> {
    let mut wire = Vec::new();
    for f in frames {
        put_frame(&mut wire, f);
    }
    stream.write_all(&wire)
}

/// Run a sub-server uplink against `head_addr` until `stop` is set:
/// export a consolidated rollup every `interval`, apply incoming head
/// commands to the deployment, and resync after every reconnect.
pub fn join_loop(
    dep: &RealTimeDeployment,
    cluster: u16,
    head_addr: &str,
    interval: Duration,
    stop: &AtomicBool,
) -> io::Result<JoinStats> {
    let mut link = SubLink::new(cluster);
    let mut stats = JoinStats::default();
    let epoch = Instant::now();
    let mut first = true;

    'session: while !stop.load(Ordering::Relaxed) {
        let mut stream = match TcpStream::connect(head_addr) {
            Ok(s) => s,
            Err(e) if first => return Err(e),
            Err(_) => {
                thread::sleep(interval);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let mut inbound = FrameBuffer::new(LIMITS.max_frame);
        let snap = dep.fed_snapshot();
        let frames = if first {
            first = false;
            let mut f = vec![link.hello(snap.n_nodes)];
            f.extend(link.export(wall_since(epoch), &snap));
            f
        } else {
            stats.reconnects += 1;
            link.reconnect(wall_since(epoch), &snap)
        };
        if send(&mut stream, &frames).is_err() {
            continue 'session;
        }
        let mut last_export = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            // wait out the read window for commands; a frame the window
            // cuts stays buffered until the rest of it arrives
            match inbound.read_from(&mut stream) {
                Ok(0) => continue 'session,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => continue 'session,
            }
            loop {
                let frame = match inbound.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => continue 'session,
                };
                if let Ok(Some(delivery)) = link.handle_frame(frame) {
                    if let Some(action) = delivery.apply {
                        stats.commands += 1;
                        dep.server().write().request_action(
                            wall_since(epoch),
                            delivery.node,
                            action,
                        );
                    }
                    if send(&mut stream, [&delivery.ack]).is_err() {
                        continue 'session;
                    }
                }
            }
            if last_export.elapsed() >= interval {
                last_export = Instant::now();
                stats.exports += 1;
                let snap = dep.fed_snapshot();
                if send(&mut stream, &link.export(wall_since(epoch), &snap)).is_err() {
                    continue 'session;
                }
            }
        }
    }
    Ok(stats)
}
