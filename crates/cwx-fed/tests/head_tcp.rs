//! The federation's TCP paths: a command driven over real sockets from
//! the head's `request_action` to the sub-server and its ack back, the
//! command route following a cluster from one connection to the next,
//! and the join side keeping a command frame whole when its bytes
//! straddle a read timeout.

use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterworx::{RealTimeConfig, RealTimeDeployment, RetryPolicy};
use cwx_events::Action;
use cwx_fed::{Frame, HeadAuditEntry, HeadServer, JoinStats};
use cwx_net::frame::{put_frame, FrameBuffer};
use cwx_util::time::SimDuration;

fn start_head() -> HeadServer {
    HeadServer::start(
        "127.0.0.1:0",
        SimDuration::from_secs(5),
        RetryPolicy::default(),
    )
    .expect("bind head")
}

/// Poll `cond` until it holds or `secs` pass.
fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn send(s: &mut TcpStream, body: &[u8]) {
    let mut wire = Vec::new();
    put_frame(&mut wire, body);
    s.write_all(&wire).unwrap();
}

/// The next whole frame, or `None` once the peer closes or the
/// stream's read timeout passes.
fn recv(s: &mut TcpStream, frames: &mut FrameBuffer) -> Option<Vec<u8>> {
    loop {
        if let Some(f) = frames.next_frame().unwrap() {
            return Some(f.to_vec());
        }
        match frames.read_from(s) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// A 4-node live deployment joined to the head at `addr` as `cluster`
/// until `stop` is set.
fn spawn_join(
    addr: String,
    cluster: u16,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<JoinStats> {
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        let dep = RealTimeDeployment::start(RealTimeConfig {
            n_nodes: 4,
            interval: Duration::from_millis(20),
            ..RealTimeConfig::default()
        });
        let stats = cwx_fed::join_loop(&dep, cluster, &addr, Duration::from_millis(100), &stop)
            .expect("join head");
        dep.shutdown();
        stats
    })
}

#[test]
fn head_command_reaches_a_joined_sub_and_is_acked() {
    let head = start_head();
    let stop = Arc::new(AtomicBool::new(false));
    let join = spawn_join(head.addr().to_string(), 2, &stop);
    let h = head.head();
    assert!(
        wait_for(10, || h.lock().unwrap().cluster(2).is_some()),
        "sub-server joined"
    );
    let id = h
        .lock()
        .unwrap()
        .request_action(head.now(), 2, 1, Action::Reboot);
    let delivered = wait_for(10, || {
        h.lock().unwrap().cluster_audit(2).iter().any(|r| {
            r.entry
                == HeadAuditEntry::CommandDelivered {
                    id,
                    duplicate: false,
                }
        })
    });
    stop.store(true, Ordering::Relaxed);
    let stats = join.join().unwrap();
    head.shutdown();
    assert!(delivered, "the head audits a fresh delivery");
    assert_eq!(stats.commands, 1, "the sub applied the command once");
}

#[test]
fn a_reconnected_cluster_takes_over_its_command_route() {
    let head = start_head();
    let h = head.head();
    let hello = Frame::Hello {
        cluster: 7,
        n_nodes: 3,
    }
    .encode();

    let mut a = TcpStream::connect(head.addr()).unwrap();
    send(&mut a, &hello);
    assert!(wait_for(10, || h.lock().unwrap().cluster(7).is_some()));
    drop(a);

    let mut b = TcpStream::connect(head.addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    send(&mut b, &hello);
    // the head has read both hellos; B now owns cluster 7's route
    assert!(wait_for(10, || h.lock().unwrap().stats().frames_rx >= 2));

    let id = h
        .lock()
        .unwrap()
        .request_action(head.now(), 7, 2, Action::Halt);
    let mut frames = FrameBuffer::new(1 << 20);
    let got = recv(&mut b, &mut frames).expect("a command on B");
    head.shutdown();
    assert_eq!(
        Frame::decode(&got).unwrap(),
        Frame::Command {
            id,
            node: 2,
            action: Action::Halt
        }
    );
}

#[test]
fn join_keeps_a_command_split_across_its_read_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let join = spawn_join(listener.local_addr().unwrap().to_string(), 4, &stop);

    // a fake head: take the join's hello, then send two commands, the
    // first with its length prefix and body 120 ms apart (longer than
    // the join's 50 ms read window)
    let (mut s, _) = listener.accept().unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut frames = FrameBuffer::new(1 << 20);
    let hello = Frame::decode(&recv(&mut s, &mut frames).expect("hello")).unwrap();
    assert!(
        matches!(hello, Frame::Hello { cluster: 4, .. }),
        "{hello:?}"
    );
    let command = |id, node| {
        let mut wire = Vec::new();
        let action = Action::Reboot;
        put_frame(&mut wire, &Frame::Command { id, node, action }.encode());
        wire
    };
    let first = command(1, 0);
    s.write_all(&first[..4]).unwrap();
    std::thread::sleep(Duration::from_millis(120));
    s.write_all(&first[4..]).unwrap();
    s.write_all(&command(2, 1)).unwrap();

    let mut acked = Vec::new();
    while acked.len() < 2 {
        let Some(frame) = recv(&mut s, &mut frames) else {
            break; // the join dropped the session
        };
        if let Ok(Frame::CommandAck { id, fresh, .. }) = Frame::decode(&frame) {
            acked.push((id, fresh));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let stats = join.join().unwrap();
    assert_eq!(acked, vec![(1, true), (2, true)]);
    assert!(
        matches!(
            stats,
            JoinStats {
                commands: 2,
                reconnects: 0,
                ..
            }
        ),
        "{stats:?}"
    );
}
