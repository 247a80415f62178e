//! Realtime transport for the federation: `CWF1` frames over TCP with
//! a little-endian `u32` length prefix.
//!
//! The simulated deployment exchanges frames as byte vectors in
//! process; this module is the deployment twin that `cwx fed serve`
//! (head) and `cwx fed join` (sub-server) run as actual processes.
//! Realtime federation time is wall time since process start projected
//! onto [`SimTime`], so the head's staleness and retry machinery is
//! byte-for-byte the code the simulation exercises.
//!
//! The head runs on the same readiness-driven reactor as agent ingest
//! ([`cwx_net::reactor`]): one thread owns every sub-server uplink,
//! with per-connection [`FrameConn`] state machines and bounded write
//! queues — a sub-server that stops reading its command stream is
//! evicted (it reconnects and resyncs; the join side already handles
//! that), never allowed to wedge the head or balloon its memory.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use clusterworx::{RealTimeDeployment, RetryPolicy};
use cwx_net::frame::{ConnLimits, FrameConn, ReadState};
use cwx_net::reactor::{Interest, Poller, Token, Waker};
use cwx_util::time::{SimDuration, SimTime};

use crate::head::FederationHead;
use crate::protocol::Frame;
use crate::sub::SubLink;

/// Refuse frames above this size (a corrupt length prefix must not
/// allocate gigabytes).
const MAX_FRAME: u32 = 16 << 20;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Read one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized federation frame",
        ));
    }
    let mut buf = vec![0u8; n as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// The cluster id a sub→head frame speaks for, if any (used by the
/// head to route command frames back down the right connection).
fn frame_cluster(bytes: &[u8]) -> Option<u16> {
    match Frame::decode(bytes).ok()? {
        Frame::Hello { cluster, .. }
        | Frame::Metrics { cluster, .. }
        | Frame::Alarm { cluster, .. }
        | Frame::Resync { cluster, .. }
        | Frame::CommandAck { cluster, .. } => Some(cluster),
        Frame::Command { .. } => None,
    }
}

/// How often the head's retry/staleness machinery is pumped even with
/// no inbound traffic.
const PUMP_INTERVAL: Duration = Duration::from_millis(100);

const TOK_LISTENER: Token = Token(0);
const TOK_WAKER: Token = Token(1);
const TOK_BASE: usize = 2;

/// A running federation head serving TCP sub-servers.
pub struct HeadServer {
    head: Arc<Mutex<FederationHead>>,
    stop: Arc<AtomicBool>,
    waker: Waker,
    threads: Vec<JoinHandle<()>>,
    addr: SocketAddr,
    epoch: Instant,
}

/// One sub-server uplink on the head's reactor.
struct SubConn {
    fc: FrameConn,
    /// The cluster this connection last spoke for (command route).
    cluster: Option<u16>,
}

struct HeadReactor {
    listener: TcpListener,
    poller: Poller,
    waker: Waker,
    head: Arc<Mutex<FederationHead>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    conns: Vec<Option<SubConn>>,
    free: Vec<usize>,
    /// cluster id → slab index of the owning connection.
    routes: BTreeMap<u16, usize>,
}

impl HeadReactor {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn run(&mut self) {
        let mut events = Vec::new();
        let mut last_pump = Instant::now();
        while !self.stop.load(Ordering::Relaxed) {
            events.clear();
            if self.poller.poll(&mut events, Some(PUMP_INTERVAL)).is_err() {
                break;
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.waker.drain(),
                    Token(t) => {
                        self.conn_ready(t - TOK_BASE, ev.readable || ev.closed, ev.writable)
                    }
                }
            }
            if last_pump.elapsed() >= PUMP_INTERVAL {
                last_pump = Instant::now();
                self.pump_commands();
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let limits = ConnLimits {
                        max_frame: MAX_FRAME as usize,
                        // a sub that stops reading may absorb this much
                        // queued command traffic before eviction
                        max_write_buffer: 4 << 20,
                    };
                    let Ok(fc) = FrameConn::new(stream, limits) else {
                        continue;
                    };
                    let idx = match self.free.pop() {
                        Some(i) => i,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    if self
                        .poller
                        .register(
                            fc.stream().as_raw_fd(),
                            Token(idx + TOK_BASE),
                            Interest::READABLE,
                        )
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    self.conns[idx] = Some(SubConn { fc, cluster: None });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, idx: usize, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if readable {
            let now = self.now();
            let head = &self.head;
            let routes = &mut self.routes;
            let cluster = &mut conn.cluster;
            let outcome = conn.fc.read_frames(|frame| {
                if let Some(c) = frame_cluster(frame) {
                    *cluster = Some(c);
                    routes.insert(c, idx);
                }
                let _ = head.lock().unwrap().ingest(now, frame);
            });
            match outcome {
                Ok(ReadState::Drained) | Ok(ReadState::HasMore) => {}
                Ok(ReadState::Eof) | Err(_) => {
                    self.close(idx, conn);
                    return;
                }
            }
        }
        if writable && self.flush(idx, &mut conn).is_err() {
            self.close(idx, conn);
            return;
        }
        self.conns[idx] = Some(conn);
    }

    /// Flush the connection's write queue; adjusts poll interest to
    /// `READABLE|WRITABLE` only while bytes remain queued.
    fn flush(&mut self, idx: usize, conn: &mut SubConn) -> io::Result<()> {
        let done = conn
            .fc
            .flush()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let interest = if done {
            Interest::READABLE
        } else {
            Interest::BOTH
        };
        self.poller.reregister(
            conn.fc.stream().as_raw_fd(),
            Token(idx + TOK_BASE),
            interest,
        )
    }

    /// Push due command frames down their owning connections. A route
    /// whose connection is gone is dropped (the head's retry machinery
    /// re-queues the command; the sub resyncs on reconnect). A sub
    /// whose write queue overflows is a slow consumer: evicted.
    fn pump_commands(&mut self) {
        let now = self.now();
        let due = self.head.lock().unwrap().poll(now);
        for (cluster, frame) in due {
            let Some(&idx) = self.routes.get(&cluster) else {
                continue;
            };
            let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
                self.routes.remove(&cluster);
                continue;
            };
            let ok = conn.fc.queue_frame(&frame).is_ok() && self.flush(idx, &mut conn).is_ok();
            if ok {
                self.conns[idx] = Some(conn);
            } else {
                self.close(idx, conn);
            }
        }
    }

    fn close(&mut self, idx: usize, conn: SubConn) {
        let _ = self.poller.deregister(conn.fc.stream().as_raw_fd());
        if let Some(c) = conn.cluster {
            if self.routes.get(&c) == Some(&idx) {
                self.routes.remove(&c);
            }
        }
        self.free.push(idx);
        drop(conn);
    }
}

impl HeadServer {
    /// Bind `listen` (e.g. `127.0.0.1:7411`; port 0 picks a free one)
    /// and start the reactor thread (accept + reads + command pump).
    pub fn start(listen: &str, stale_after: SimDuration, retry: RetryPolicy) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // sub-clusters reconnect in lockstep after a head failover
        let _ = cwx_net::reactor::widen_listen_backlog(&listener, 1024);
        let head = Arc::new(Mutex::new(FederationHead::new(stale_after, retry)));
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let waker = Waker::new()?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOK_LISTENER, Interest::READABLE)?;
        poller.register(waker.as_raw_fd(), TOK_WAKER, Interest::READABLE)?;
        let mut reactor = HeadReactor {
            listener,
            poller,
            waker: waker.clone(),
            head: Arc::clone(&head),
            stop: Arc::clone(&stop),
            epoch,
            conns: Vec::new(),
            free: Vec::new(),
            routes: BTreeMap::new(),
        };
        let threads = vec![thread::spawn(move || reactor.run())];
        Ok(HeadServer {
            head,
            stop,
            waker,
            threads,
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
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Stop the reactor; open uplinks are dropped (sub-servers
    /// reconnect and resync if a new head comes up).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
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
    let now = |epoch: &Instant| SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
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
        let snap = dep.fed_snapshot();
        let frames = if first {
            first = false;
            let mut f = vec![link.hello(snap.n_nodes)];
            f.extend(link.export(now(&epoch), &snap));
            f
        } else {
            stats.reconnects += 1;
            link.reconnect(now(&epoch), &snap)
        };
        for f in &frames {
            if write_frame(&mut stream, f).is_err() {
                continue 'session;
            }
        }
        let mut last_export = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            // drain incoming commands until the read window closes
            match read_frame(&mut stream) {
                Ok(frame) => {
                    if let Ok(Some(delivery)) = link.handle_frame(&frame) {
                        if let Some(action) = delivery.apply {
                            stats.commands += 1;
                            dep.server()
                                .write()
                                .request_action(now(&epoch), delivery.node, action);
                        }
                        if write_frame(&mut stream, &delivery.ack).is_err() {
                            continue 'session;
                        }
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => continue 'session,
            }
            if last_export.elapsed() >= interval {
                last_export = Instant::now();
                stats.exports += 1;
                let snap = dep.fed_snapshot();
                for f in link.export(now(&epoch), &snap) {
                    if write_frame(&mut stream, &f).is_err() {
                        continue 'session;
                    }
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_frame(&mut s).unwrap()
        });
        let mut c = TcpStream::connect(addr).unwrap();
        let frame = Frame::Hello {
            cluster: 3,
            n_nodes: 99,
        }
        .encode();
        write_frame(&mut c, &frame).unwrap();
        assert_eq!(t.join().unwrap(), frame);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        assert!(read_frame(&mut bytes).is_err());
    }
}
