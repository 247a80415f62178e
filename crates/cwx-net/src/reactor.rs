//! A thin readiness reactor: level-triggered I/O multiplexing over
//! `epoll` (Linux) or `poll(2)` (other Unixes), with no dependency
//! beyond the libc the platform already links.
//!
//! This is the substrate of the connection table
//! ([`crate::conns::ConnTable`]) that the realtime ingest plane
//! (`clusterworx::ingest`) and the federation head (`cwx_fed::net`)
//! both serve tens of thousands of sockets from, one thread each; the
//! table is the only place a connection's fd is registered, re-armed or
//! deregistered. The API is deliberately the `mio` shape — register a
//! raw fd with a [`Token`] and an [`Interest`], then [`Poller::poll`]
//! returns the [`Event`]s that are ready — so the real crate could be
//! swapped in without touching the table.
//!
//! Cross-thread wakeups go through a [`Waker`], a loopback UDP socket
//! registered like any other fd: flush workers nudge the reactor when
//! a backpressured queue drains, and shutdown paths interrupt a
//! sleeping `poll`.

use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// Caller-chosen identifier attached to a registered fd; `poll` hands
/// it back in every [`Event`] for that fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither: the fd stays registered but produces no events (a
    /// paused connection under backpressure).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification out of [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: Token,
    /// Readable now.
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup: the connection should be read to EOF and
    /// closed.
    pub closed: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::*;
    use std::os::fd::{FromRawFd, OwnedFd};

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// `epoll`-backed poller.
    pub struct Poller {
        ep: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    impl Poller {
        /// Create the epoll instance.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall; a negative return is an error.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                // SAFETY: fd is a freshly created, owned epoll fd.
                ep: unsafe { OwnedFd::from_raw_fd(fd) },
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token.0 as u64,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        /// Start watching `fd` under `token`.
        pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change the interest set of an already-registered fd.
        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stop watching `fd` (closing the fd also deregisters it).
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, Token(0), Interest::NONE)
        }

        /// Wait for readiness, appending to `out`. `None` blocks
        /// indefinitely.
        pub fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let ms = match timeout {
                None => -1,
                Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
            };
            let n = loop {
                // SAFETY: buf is a live, correctly-sized event array.
                let n = unsafe {
                    epoll_wait(
                        self.ep.as_raw_fd(),
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        ms,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: Token(ev.data as usize),
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            if n == self.buf.len() {
                // saturated: grow so a dense fleet drains in one call
                self.buf
                    .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::*;
    use std::collections::BTreeMap;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// `poll(2)`-backed fallback poller for non-Linux Unixes.
    pub struct Poller {
        registered: BTreeMap<RawFd, (Token, Interest)>,
        buf: Vec<PollFd>,
    }

    impl Poller {
        /// Create the poller.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: BTreeMap::new(),
                buf: Vec::new(),
            })
        }

        /// Start watching `fd` under `token`.
        pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        /// Change the interest set of an already-registered fd.
        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        /// Stop watching `fd`.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        /// Wait for readiness, appending to `out`.
        pub fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            self.buf.clear();
            for (&fd, &(_, interest)) in &self.registered {
                let mut events = 0i16;
                if interest.readable {
                    events |= POLLIN;
                }
                if interest.writable {
                    events |= POLLOUT;
                }
                self.buf.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            let ms = match timeout {
                None => -1,
                Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
            };
            // SAFETY: buf is a live, correctly-sized pollfd array.
            let n = unsafe { poll(self.buf.as_mut_ptr(), self.buf.len() as u64, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for pfd in &self.buf {
                if pfd.revents == 0 {
                    continue;
                }
                if let Some(&(token, _)) = self.registered.get(&pfd.fd) {
                    out.push(Event {
                        token,
                        readable: pfd.revents & POLLIN != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        closed: pfd.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

pub use sys::Poller;

/// Cross-thread wakeup for a [`Poller`]: a nonblocking loopback UDP
/// socket connected to itself. Register [`Waker::as_raw_fd`] readable
/// under a reserved token; any thread holding a clone can interrupt
/// `poll` with [`Waker::wake`].
#[derive(Clone)]
pub struct Waker {
    sock: Arc<UdpSocket>,
}

impl Waker {
    /// Create the waker socket.
    pub fn new() -> io::Result<Waker> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.connect(sock.local_addr()?)?;
        sock.set_nonblocking(true)?;
        Ok(Waker {
            sock: Arc::new(sock),
        })
    }

    /// The fd to register with the poller.
    pub fn as_raw_fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }

    /// Nudge the poller. A full socket buffer means a wakeup is already
    /// pending, so `WouldBlock` is success.
    pub fn wake(&self) {
        let _ = self.sock.send(&[1]);
    }

    /// Drain pending wakeups after the poller reports this fd readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.sock.recv(&mut buf).is_ok() {}
    }
}

/// Raise this process's open-file soft limit to its hard limit
/// (connection-dense servers outgrow the common 1024 default fast).
/// Returns `(soft, hard)` after the attempt; on non-Linux the limits
/// are reported unchanged.
pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
    #[cfg(target_os = "linux")]
    {
        const RLIMIT_NOFILE: i32 = 7;
        #[repr(C)]
        struct Rlimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        }
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: lim is a live out-parameter of the correct layout.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.cur < lim.max {
            let want = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            // SAFETY: want is a live in-parameter of the correct layout.
            if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                lim.cur = lim.max;
            }
        }
        Ok((lim.cur, lim.max))
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok((u64::MAX, u64::MAX))
    }
}

/// Widen an already-listening socket's accept backlog. `std`'s
/// `TcpListener::bind` hardcodes 128; a simultaneous connect storm from
/// thousands of agents (cluster-wide power-on, head failover) overflows
/// that, and the dropped SYNs turn into whole-second retransmit stalls.
/// On Linux a second `listen(2)` call updates the backlog in place; on
/// other platforms this is a no-op.
pub(crate) fn widen_listen_backlog(
    listener: &std::net::TcpListener,
    backlog: i32,
) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn listen(fd: RawFd, backlog: i32) -> i32;
        }
        // SAFETY: the fd is a live listening socket owned by `listener`
        // for the duration of the call.
        if unsafe { listen(listener.as_raw_fd(), backlog) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (listener, backlog);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_sees_readable_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), Token(7), Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        poller
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"hi").unwrap();
        events.clear();
        poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
    }

    #[test]
    fn reregister_to_none_silences_a_ready_fd() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), Token(1), Interest::READABLE)
            .unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(!events.is_empty());

        // pause: data still pending, but no more events
        poller
            .reregister(server.as_raw_fd(), Token(1), Interest::NONE)
            .unwrap();
        events.clear();
        poller
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "paused fd must stay silent");

        // resume: the level-triggered readiness comes right back
        poller
            .reregister(server.as_raw_fd(), Token(1), Interest::READABLE)
            .unwrap();
        events.clear();
        poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        let mut b = [0u8; 1];
        (&server).read_exact(&mut b).unwrap();
    }

    #[test]
    fn waker_interrupts_poll_from_another_thread() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.as_raw_fd(), Token(0), Interest::READABLE)
            .unwrap();
        let w2 = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });
        let mut events = Vec::new();
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(0));
        waker.drain();
        // drained: next poll times out quietly
        events.clear();
        poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn hangup_is_reported_as_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), Token(3), Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].closed || events[0].readable);
    }

    #[test]
    fn nofile_limit_is_queryable() {
        let (soft, hard) = raise_nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
    }
}
