//! The connection table a framed TCP server runs on: one listener, one
//! [`Poller`] and its [`Waker`], and a slab of [`FrameConn`]s. Agent
//! ingest (`clusterworx::ingest`) and the federation head
//! (`cwx_fed::net`) both keep only their protocol and policy; the table
//! owns the lifecycle they share:
//!
//! * the accept loop, with an admission hook that may refuse a client;
//! * one slot per connection, named by a [`ConnId`] whose generation
//!   stamp goes dead when the connection closes, so a late reply never
//!   reaches whoever owns the recycled slot next;
//! * poll interest that follows the write queue and stays at none while
//!   a connection is paused;
//! * deregister-and-free on close.
//!
//! The owner [`ConnTable::take`]s a connection out to work on it, then
//! [`ConnTable::restore`]s it (re-deriving its interest) or
//! [`ConnTable::close`]s it.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::frame::{ConnLimits, FrameConn};
use crate::reactor::{widen_listen_backlog, Event, Interest, Poller, Token, Waker};

const TOK_LISTENER: Token = Token(0);
const TOK_WAKER: Token = Token(1);
const TOK_BASE: usize = 2;

/// Names one connection for its whole life; stale once it closes, even
/// after its slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnId {
    idx: usize,
    gen: u64,
}

/// One open connection: the framed stream plus the owner's state `S`.
#[derive(Debug)]
pub struct Conn<S> {
    /// The framed stream.
    pub fc: FrameConn,
    /// What the owning server keeps per connection.
    pub state: S,
    id: ConnId,
    paused_at: Option<Instant>,
    interest: Interest,
}

impl<S> Conn<S> {
    /// This connection's handle.
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// When the connection was paused, if it is paused.
    pub fn paused_since(&self) -> Option<Instant> {
        self.paused_at
    }

    /// Re-register when the interest the connection calls for has
    /// changed: none while paused, writable too while bytes are queued.
    fn sync_interest(&mut self, poller: &mut Poller) {
        let want = match (self.paused_at, self.fc.wants_write()) {
            (Some(_), _) => Interest::NONE,
            (None, true) => Interest::BOTH,
            (None, false) => Interest::READABLE,
        };
        if want != self.interest {
            self.interest = want;
            let fd = self.fc.stream.as_raw_fd();
            let _ = poller.reregister(fd, Token(self.id.idx + TOK_BASE), want);
        }
    }
}

/// Readiness of one connection out of [`ConnTable::poll`].
#[derive(Debug, Clone, Copy)]
pub struct ConnEvent {
    /// The connection.
    pub id: ConnId,
    /// Readable, or the peer hung up (read it to EOF).
    pub readable: bool,
    /// Writable: queued bytes can go out.
    pub writable: bool,
}

/// A listener and every connection it accepted, on one poller.
pub struct ConnTable<S> {
    listener: TcpListener,
    poller: Poller,
    waker: Waker,
    limits: ConnLimits,
    slots: Vec<Option<Conn<S>>>,
    free: Vec<usize>,
    next_gen: u64,
    open: usize,
    paused: usize,
    raw: Vec<Event>,
}

impl<S> ConnTable<S> {
    /// Bind `listen` (port 0 picks a free one) with an accept backlog
    /// of `backlog`; every accepted connection gets `limits`.
    pub fn bind(listen: &str, backlog: i32, limits: ConnLimits) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let _ = widen_listen_backlog(&listener, backlog);
        let waker = Waker::new()?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOK_LISTENER, Interest::READABLE)?;
        poller.register(waker.as_raw_fd(), TOK_WAKER, Interest::READABLE)?;
        Ok(ConnTable {
            listener,
            poller,
            waker,
            limits,
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            open: 0,
            paused: 0,
            raw: Vec::new(),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Interrupts [`ConnTable::poll`] from any thread.
    pub fn waker(&self) -> &Waker {
        &self.waker
    }

    /// Open connections, taken ones included.
    pub fn open(&self) -> usize {
        self.open
    }

    /// Open connections that are paused.
    pub fn paused(&self) -> usize {
        self.paused
    }

    /// Take every connection in the table that `pick` selects.
    pub fn take_all(&mut self, mut pick: impl FnMut(&Conn<S>) -> bool) -> Vec<Conn<S>> {
        let picked = self
            .slots
            .iter_mut()
            .filter(|s| s.as_ref().is_some_and(&mut pick));
        picked.filter_map(Option::take).collect()
    }

    /// Wait up to `timeout` for readiness and replace `out` with the
    /// connections that are ready. New clients are accepted on the way:
    /// `admit` sees how many are open and returns the new one's state,
    /// or `None` to refuse it. Wakeups are drained here.
    pub fn poll(
        &mut self,
        out: &mut Vec<ConnEvent>,
        timeout: Duration,
        mut admit: impl FnMut(usize) -> Option<S>,
    ) -> io::Result<()> {
        out.clear();
        self.raw.clear();
        self.poller.poll(&mut self.raw, Some(timeout))?;
        for i in 0..self.raw.len() {
            let ev = self.raw[i];
            match ev.token {
                TOK_LISTENER => self.accept(&mut admit),
                TOK_WAKER => self.waker.drain(),
                Token(t) => {
                    if let Some(Some(conn)) = self.slots.get(t - TOK_BASE) {
                        out.push(ConnEvent {
                            id: conn.id,
                            readable: ev.readable || ev.closed,
                            writable: ev.writable,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn accept(&mut self, admit: &mut impl FnMut(usize) -> Option<S>) {
        while let Ok((stream, _)) = self.listener.accept() {
            let Ok(fc) = FrameConn::new(stream, self.limits) else {
                continue;
            };
            let idx = self.free.last().copied().unwrap_or(self.slots.len());
            let fd = fc.stream.as_raw_fd();
            if self
                .poller
                .register(fd, Token(idx + TOK_BASE), Interest::READABLE)
                .is_err()
            {
                continue;
            }
            let Some(state) = admit(self.open) else {
                let _ = self.poller.deregister(fd);
                continue;
            };
            if self.free.pop().is_none() {
                self.slots.push(None);
            }
            self.next_gen += 1;
            self.open += 1;
            self.slots[idx] = Some(Conn {
                fc,
                state,
                id: ConnId {
                    idx,
                    gen: self.next_gen,
                },
                paused_at: None,
                interest: Interest::READABLE,
            });
        }
    }

    /// Stop accepting; open connections are unaffected.
    pub fn stop_accepting(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
    }

    /// Take a live connection out of the table to work on it.
    pub fn take(&mut self, id: ConnId) -> Option<Conn<S>> {
        let slot = self.slots.get_mut(id.idx)?;
        if slot.as_ref()?.id != id {
            return None;
        }
        slot.take()
    }

    /// Put a taken connection back; its poll interest follows its
    /// write queue unless it is paused.
    pub fn restore(&mut self, mut conn: Conn<S>) {
        conn.sync_interest(&mut self.poller);
        let idx = conn.id.idx;
        self.slots[idx] = Some(conn);
    }

    /// End a taken connection: deregister it and free its slot.
    pub fn close(&mut self, conn: Conn<S>) {
        let _ = self.poller.deregister(conn.fc.stream.as_raw_fd());
        if conn.paused_at.is_some() {
            self.paused -= 1;
        }
        self.open -= 1;
        self.free.push(conn.id.idx);
    }

    /// Pause (no poll interest at all) or resume every connection in
    /// the table whose state `pick` selects.
    pub fn set_paused(&mut self, pause: bool, mut pick: impl FnMut(&S) -> bool) {
        for conn in self.slots.iter_mut().flatten() {
            if conn.paused_at.is_some() != pause && pick(&conn.state) {
                conn.paused_at = pause.then(Instant::now);
                if pause {
                    self.paused += 1;
                } else {
                    self.paused -= 1;
                }
                conn.sync_interest(&mut self.poller);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn table() -> ConnTable<u32> {
        let limits = ConnLimits {
            max_frame: 1 << 16,
            max_write_buffer: 64 << 20,
        };
        ConnTable::bind("127.0.0.1:0", 128, limits).unwrap()
    }

    fn poll(t: &mut ConnTable<u32>, ms: u64) -> Vec<ConnEvent> {
        let mut out = Vec::new();
        t.poll(&mut out, Duration::from_millis(ms), |open| {
            Some(open as u32)
        })
        .unwrap();
        out
    }

    /// Connect a client and poll until the table holds it.
    fn connect(t: &mut ConnTable<u32>) -> (TcpStream, ConnId) {
        let client = TcpStream::connect(t.local_addr().unwrap()).unwrap();
        let open = t.open();
        for _ in 0..200 {
            poll(t, 10);
            // admission numbered it by the count open before it
            if let Some(c) = t.take_all(|c| c.state == open as u32).pop() {
                let id = c.id();
                t.restore(c);
                return (client, id);
            }
        }
        panic!("connection never accepted");
    }

    #[test]
    fn slot_reuse_bumps_the_generation() {
        let mut t = table();
        let (_a, a) = connect(&mut t);
        let conn = t.take(a).unwrap();
        t.close(conn);
        assert_eq!(t.open(), 0);
        let (_b, b) = connect(&mut t);
        assert_eq!(b.idx, a.idx, "the freed slot is reused");
        assert_ne!(b.gen, a.gen);
        assert!(t.take(a).is_none(), "the old handle is dead");
        assert!(t.take(b).is_some());
    }

    #[test]
    fn interest_follows_the_write_queue_and_stays_none_while_paused() {
        let mut t = table();
        let (mut client, id) = connect(&mut t);
        // queue more than the socket takes: bytes stay pending
        let mut conn = t.take(id).unwrap();
        let body = vec![7u8; 1 << 20];
        let mut queued = 0;
        while !conn.fc.wants_write() {
            conn.fc.queue_frame(&body).unwrap();
            queued += 4 + body.len();
        }
        t.restore(conn);
        assert_eq!(t.slots[id.idx].as_ref().unwrap().interest, Interest::BOTH);
        // the peer drains: the table reports the socket writable
        let reader = std::thread::spawn(move || {
            let mut sink = vec![0u8; queued];
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            client.read_exact(&mut sink).unwrap();
            client
        });
        let mut flushed = false;
        for _ in 0..500 {
            for ev in poll(&mut t, 10) {
                assert_eq!(ev.id, id);
                if ev.writable {
                    let mut conn = t.take(id).unwrap();
                    flushed = conn.fc.flush().unwrap();
                    t.restore(conn);
                }
            }
            if flushed {
                break;
            }
        }
        assert!(flushed, "writable events until the queue drained");
        // drained: write interest is dropped, so no more writable events
        assert!(poll(&mut t, 50).iter().all(|ev| !ev.writable));
        let mut client = reader.join().unwrap();

        // paused: pending input raises no event until resumed
        t.set_paused(true, |_| true);
        assert_eq!(t.paused(), 1);
        client.write_all(b"ping").unwrap();
        assert!(poll(&mut t, 50).is_empty(), "a paused connection is silent");
        let mut conn = t.take(id).unwrap();
        conn.fc.queue_frame(b"reply").unwrap();
        t.restore(conn);
        assert!(
            poll(&mut t, 50).is_empty(),
            "still silent with a reply queued"
        );
        t.set_paused(false, |_| true);
        assert_eq!(t.paused(), 0);
        let evs = poll(&mut t, 1000);
        assert!(evs.iter().any(|ev| ev.id == id && ev.readable));
    }

    #[test]
    fn close_deregisters_and_frees_the_slot() {
        let mut t = table();
        let (mut client, id) = connect(&mut t);
        t.set_paused(true, |_| true);
        let conn = t.take(id).unwrap();
        t.close(conn);
        assert_eq!((t.open(), t.paused()), (0, 0));
        assert!(t.take_all(|_| true).is_empty());
        assert_eq!(t.free, vec![id.idx]);
        client.write_all(b"late").unwrap();
        assert!(
            poll(&mut t, 50).is_empty(),
            "a closed connection raises nothing"
        );
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap_or(0), 0, "peer sees EOF");
    }
}
