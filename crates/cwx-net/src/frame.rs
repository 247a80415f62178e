//! Length-prefixed frame streams over nonblocking sockets.
//!
//! Every realtime wire protocol in this workspace — `CWB1` monitoring
//! reports and `CWQ1` queries on the ingest plane, `CWF1` federation
//! frames — travels as `u32` little-endian length-prefixed frames over
//! TCP, and this module is the one place that framing is written
//! ([`put_frame`]) and read:
//!
//! * [`FrameBuffer`] accumulates wire bytes across reads in one reused
//!   buffer and yields complete frames as borrowed slices — a partial
//!   frame survives to the next readiness event (or, on a blocking
//!   socket, the next read after a timeout), and a complete frame is
//!   handed to the decoder without a copy.
//! * [`FrameConn`] pairs a nonblocking [`TcpStream`] with a
//!   [`FrameBuffer`] and a bounded outbound queue, surfacing explicit
//!   [`ConnError`]s — oversized frames, send-queue overflow (a peer that
//!   stopped draining) — instead of blocking a thread. Servers hold
//!   their `FrameConn`s in a [`crate::conns::ConnTable`].

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Bytes of length prefix before every frame.
pub const LEN_PREFIX: usize = 4;

/// How many bytes one `read` call asks the socket for.
const READ_CHUNK: usize = 16 * 1024;

/// Per-connection resource bounds.
#[derive(Debug, Clone, Copy)]
pub struct ConnLimits {
    /// Largest accepted frame body; a corrupt or hostile length prefix
    /// must not allocate gigabytes. Every complete frame is consumed
    /// after each read, so this also bounds the inbound buffer: at most
    /// one partial frame, under `LEN_PREFIX + max_frame` bytes.
    pub max_frame: usize,
    /// Most outbound bytes queued for a peer that is not draining its
    /// socket before [`ConnError::SendOverflow`].
    pub max_write_buffer: usize,
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits {
            max_frame: 1 << 20,
            max_write_buffer: 4 << 20,
        }
    }
}

/// Why a connection must be closed.
#[derive(Debug)]
pub enum ConnError {
    /// Transport error.
    Io(io::Error),
    /// A frame announced a body larger than `max_frame`.
    Oversize {
        /// The announced length.
        len: usize,
    },
    /// The peer stopped draining and the outbound queue passed
    /// `max_write_buffer`.
    SendOverflow,
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Io(e) => write!(f, "connection i/o error: {e}"),
            ConnError::Oversize { len } => write!(f, "oversized frame ({len} bytes)"),
            ConnError::SendOverflow => write!(f, "outbound queue overflow (slow consumer)"),
        }
    }
}

impl std::error::Error for ConnError {}

impl From<io::Error> for ConnError {
    fn from(e: io::Error) -> Self {
        ConnError::Io(e)
    }
}

/// Outcome of one readiness-driven read pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadState {
    /// The socket would block; everything available was consumed.
    Drained,
    /// The peer closed the stream (all buffered complete frames were
    /// still delivered).
    Eof,
    /// The per-pass byte budget was spent with data still pending; the
    /// level-triggered poller will fire again (fairness between
    /// connections).
    HasMore,
}

/// Incremental assembler for `u32`-LE length-prefixed frames.
///
/// Feed it wire bytes in arbitrary fragments; it yields each complete
/// frame body exactly once, as a slice into its internal buffer. The
/// buffer is reused for the life of the connection: steady state does
/// no allocation, and compaction is amortized.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl FrameBuffer {
    /// An empty buffer accepting frames up to `max_frame` bytes.
    pub fn new(max_frame: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Unconsumed bytes currently buffered (partial frames and frames
    /// not yet pulled with [`FrameBuffer::next_frame`]).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.start);
        }
        self.start = 0;
    }

    /// Append raw wire bytes (test entry; the reactor path uses
    /// [`FrameBuffer::read_from`]).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Read once from `r` into the buffer. Returns the byte count (0 =
    /// EOF). `WouldBlock` surfaces as the io error — callers on a
    /// readiness loop treat it as "drained".
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.compact();
        let old = self.buf.len();
        self.buf.resize(old + READ_CHUNK, 0);
        match r.read(&mut self.buf[old..]) {
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    /// Release buffer capacity when no partial frame is held across
    /// events. At tens of thousands of mostly-idle connections the
    /// retained `READ_CHUNK` capacities dominate the server's resident
    /// set; re-growing on the next readiness event is one allocation,
    /// far cheaper than keeping the memory resident per connection.
    pub fn shrink_idle(&mut self) {
        if self.buffered() == 0 && self.buf.capacity() > LEN_PREFIX {
            self.compact();
            self.buf.shrink_to(0);
        }
    }

    /// Pull the next complete frame body, if one is fully buffered.
    /// Returns `Err` when the stream announces a frame larger than
    /// `max_frame` (the connection is unrecoverable: framing is lost).
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ConnError> {
        let avail = self.buf.len() - self.start;
        if avail < LEN_PREFIX {
            return Ok(None);
        }
        let p = self.start;
        let len = u32::from_le_bytes(self.buf[p..p + LEN_PREFIX].try_into().unwrap()) as usize;
        if len > self.max_frame {
            return Err(ConnError::Oversize { len });
        }
        if avail < LEN_PREFIX + len {
            return Ok(None);
        }
        let body_start = p + LEN_PREFIX;
        self.start = body_start + len;
        Ok(Some(&self.buf[body_start..body_start + len]))
    }
}

/// Encode `body` as one length-prefixed frame appended to `out`.
pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
}

/// A nonblocking framed TCP connection driven by a readiness reactor.
#[derive(Debug)]
pub struct FrameConn {
    pub(crate) stream: TcpStream,
    rbuf: FrameBuffer,
    wbuf: Vec<u8>,
    wstart: usize,
    limits: ConnLimits,
}

impl FrameConn {
    /// Adopt an accepted (or connected) stream: switches it to
    /// nonblocking and disables Nagle.
    pub fn new(stream: TcpStream, limits: ConnLimits) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(FrameConn {
            stream,
            rbuf: FrameBuffer::new(limits.max_frame),
            wbuf: Vec::new(),
            wstart: 0,
            limits,
        })
    }

    /// Consume readable data, invoking `on_frame` for every complete
    /// frame. Bounded work per call: at most ~256 KiB is read before
    /// returning [`ReadState::HasMore`] so one firehose connection
    /// cannot starve the rest of the fleet.
    pub fn read_frames(&mut self, mut on_frame: impl FnMut(&[u8])) -> Result<ReadState, ConnError> {
        let mut budget = 16; // READ_CHUNK-sized reads per pass
        loop {
            match self.rbuf.read_from(&mut self.stream) {
                Ok(0) => {
                    // EOF: deliver what is complete, then report close
                    while let Some(frame) = self.rbuf.next_frame()? {
                        on_frame(frame);
                    }
                    return Ok(ReadState::Eof);
                }
                Ok(_) => {
                    while let Some(frame) = self.rbuf.next_frame()? {
                        on_frame(frame);
                    }
                    budget -= 1;
                    if budget == 0 {
                        return Ok(ReadState::HasMore);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.rbuf.shrink_idle();
                    return Ok(ReadState::Drained);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ConnError::Io(e)),
            }
        }
    }

    /// Queue one outbound frame and try to flush. Fails with
    /// [`ConnError::SendOverflow`] when the peer has let the queue grow
    /// past the configured bound — the caller's cue to evict the slow
    /// consumer rather than buffer without limit.
    pub fn queue_frame(&mut self, body: &[u8]) -> Result<(), ConnError> {
        let pending = self.wbuf.len() - self.wstart;
        if pending + LEN_PREFIX + body.len() > self.limits.max_write_buffer {
            return Err(ConnError::SendOverflow);
        }
        put_frame(&mut self.wbuf, body);
        self.flush()?;
        Ok(())
    }

    /// Push queued bytes into the socket. Returns `true` when the queue
    /// is empty (write interest can be dropped).
    pub fn flush(&mut self) -> Result<bool, ConnError> {
        while self.wstart < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wstart..]) {
                Ok(0) => {
                    return Err(ConnError::Io(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer window closed",
                    )))
                }
                Ok(n) => self.wstart += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ConnError::Io(e)),
            }
        }
        self.wbuf.clear();
        self.wstart = 0;
        Ok(true)
    }

    /// Bytes are queued that the socket has not yet accepted: the
    /// connection needs write interest.
    pub fn wants_write(&self) -> bool {
        self.wstart < self.wbuf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(bodies: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for b in bodies {
            put_frame(&mut out, b);
        }
        out
    }

    #[test]
    fn frames_survive_arbitrary_fragmentation() {
        let wire = framed(&[b"alpha", b"", b"gamma-gamma"]);
        // feed one byte at a time — worst case fragmentation
        let mut fb = FrameBuffer::new(1024);
        let mut got: Vec<Vec<u8>> = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        assert_eq!(
            got,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma-gamma".to_vec()]
        );
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn oversize_prefix_is_rejected_not_allocated() {
        let mut fb = FrameBuffer::new(64);
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(
            fb.next_frame(),
            Err(ConnError::Oversize { len }) if len == u32::MAX as usize
        ));
    }

    #[test]
    fn partial_tail_waits_for_more_bytes() {
        let wire = framed(&[b"hello"]);
        let mut fb = FrameBuffer::new(1024);
        fb.extend(&wire[..wire.len() - 2]);
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.buffered(), wire.len() - 2);
        fb.extend(&wire[wire.len() - 2..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"hello");
    }

    #[test]
    fn conn_round_trips_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut cconn = FrameConn::new(client, ConnLimits::default()).unwrap();
        let mut sconn = FrameConn::new(server, ConnLimits::default()).unwrap();

        cconn.queue_frame(b"report-1").unwrap();
        cconn.queue_frame(b"report-2").unwrap();
        while !cconn.flush().unwrap() {}

        let mut got = Vec::new();
        // readiness loop stand-in: retry until both frames arrive
        for _ in 0..100 {
            match sconn.read_frames(|f| got.push(f.to_vec())) {
                Ok(_) => {}
                Err(e) => panic!("read failed: {e}"),
            }
            if got.len() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(got, vec![b"report-1".to_vec(), b"report-2".to_vec()]);
    }

    #[test]
    fn slow_consumer_overflows_the_send_queue() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        // the peer never reads; our queue bound is tiny
        let limits = ConnLimits {
            max_write_buffer: 64 * 1024,
            ..ConnLimits::default()
        };
        let mut sconn = FrameConn::new(server, limits).unwrap();
        let frame = vec![0xAB; 32 * 1024];
        let mut overflowed = false;
        for _ in 0..1000 {
            match sconn.queue_frame(&frame) {
                Ok(()) => {}
                Err(ConnError::SendOverflow) => {
                    overflowed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(overflowed, "bounded queue must trip, not balloon");
        drop(client);
    }
}
