//! The reliable-multicast cloning protocol, as an event-driven state
//! machine over the simulated network.
//!
//! Three deployment strategies share the repair machinery:
//!
//! * [`RepairStrategy::MulticastRoundRobin`] — the paper's protocol: one
//!   paced multicast stream, then a master-controlled round-robin
//!   acknowledge phase where missing chunks are repaired peer-to-peer
//!   (unicast) with the master.
//! * [`RepairStrategy::MulticastRemulticast`] — ablation: repair rounds
//!   re-multicast the union of missing chunks before falling back to the
//!   round-robin phase.
//! * [`RepairStrategy::Unicast`] — the pre-multicast baseline: the master
//!   pushes the image to every node over concurrent unicast streams
//!   (N× the bytes on a shared segment).
//!
//! Control messages (poll/NACK/complete) run over a TCP-like channel:
//! on loss they are retransmitted after an RTO, consuming wire time each
//! attempt. Data chunks are fire-and-forget datagrams, exactly like the
//! real system's multicast stream.

use cwx_bios::{BiosChip, Firmware, MemoryCheck};
use cwx_net::{Delivery, GroupId, Network, NodeAddr, SegmentId};
use cwx_util::rng::rng as seeded_rng;
use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// Cloning campaign strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// The paper's protocol: multicast stream + round-robin unicast
    /// repair.
    MulticastRoundRobin,
    /// Multicast stream + up to `rounds` re-multicast repair rounds,
    /// then round-robin unicast for the stragglers.
    MulticastRemulticast {
        /// Maximum re-multicast rounds before unicast fallback.
        rounds: u32,
    },
    /// Concurrent unicast pushes (baseline).
    Unicast,
}

/// Parameters of a cloning campaign.
#[derive(Debug, Clone)]
pub struct CloneConfig {
    /// Image size in bytes.
    pub image_bytes: u64,
    /// Stream chunk size in bytes.
    pub chunk_bytes: u64,
    /// Master's pacing rate for the multicast stream, bytes/s. Reliable
    /// multicast must run below wire speed so receivers keep up.
    pub pace_bps: u64,
    /// Strategy.
    pub strategy: RepairStrategy,
    /// Firmware installed on the nodes (drives reboot time).
    pub firmware: Firmware,
    /// Reboot after writing (full reclone). `false` models the in-place
    /// package/kernel-file update path — "update files or packages on
    /// the nodes in parallel" — where nodes stay up.
    pub reboot: bool,
    /// Fault injection: receivers that die mid-session, as `(node,
    /// seconds after campaign start)`. A dead receiver ignores every
    /// message — chunks, polls, everything.
    pub dropouts: Vec<(u32, f64)>,
}

impl Default for CloneConfig {
    fn default() -> Self {
        CloneConfig {
            image_bytes: 650 << 20,
            chunk_bytes: 1 << 20,
            pace_bps: 4 << 20,
            strategy: RepairStrategy::MulticastRoundRobin,
            firmware: Firmware::LinuxBios,
            reboot: true,
            dropouts: Vec::new(),
        }
    }
}

/// Outcome of a cloning campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CloneReport {
    /// Nodes targeted.
    pub n_nodes: u32,
    /// Image size, bytes.
    pub image_bytes: u64,
    /// When the initial stream finished leaving the master.
    pub stream_secs: f64,
    /// When the last node had a complete image in memory.
    pub data_complete_secs: f64,
    /// When the last node was back up and operational (disk written,
    /// rebooted) — the paper's "12 minutes" number.
    pub makespan_secs: f64,
    /// Total bytes that crossed the wire (incl. framing).
    pub wire_bytes: u64,
    /// Repair chunks unicast by the master.
    pub repair_chunks: u64,
    /// Re-multicast chunks (remulticast strategy only).
    pub remulticast_chunks: u64,
    /// Poll messages sent.
    pub polls: u64,
    /// Nodes abandoned after `MAX_POLL_ROUNDS`.
    pub failed_nodes: u32,
    /// Per-node operational times (seconds; NaN for failed nodes).
    pub per_node_operational: Vec<f64>,
}

const CLONE_GROUP: GroupId = GroupId(1);
const CTRL_BYTES: u64 = 64;
const MAX_CTRL_RETRIES: u32 = 60;
/// Sequential disk write rate on the nodes, bytes/s.
const DISK_WRITE_BPS: u64 = 25 << 20;
/// Control-message retransmission timeout.
const CTRL_RTO: SimDuration = SimDuration::from_millis(200);
/// Give up on a node after this many poll rounds.
const MAX_POLL_ROUNDS: u32 = 1000;
/// Response deadline for a poll, measured from its wire delivery time
/// (so queued repair traffic cannot fake a dead receiver).
const POLL_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Consecutive missed poll deadlines before a receiver is evicted as
/// dead and the session moves on for the survivors.
const MAX_POLL_MISSES: u32 = 5;
/// Cap on missing-chunk indices listed per NACK.
const NACK_LIST_CAP: usize = 1024;

#[derive(Debug, Clone)]
enum Msg {
    /// Data chunk (stream, repair, or re-multicast).
    Chunk(u32),
    /// Master asks a node what it is missing.
    Poll,
    /// Node reports missing chunks (possibly truncated to the cap).
    /// Carries the sender so a stale response from an evicted receiver
    /// cannot be misattributed to the node now at the head.
    Nack(u32, Vec<u32>),
    /// Node has the full image (sender id, same reason).
    Complete(u32),
}

/// Dense bitmap tracking which image chunks a node has received.
#[derive(Debug, Clone)]
pub struct ChunkBitmap {
    words: Vec<u64>,
    nchunks: u32,
    count: u32,
}

impl ChunkBitmap {
    /// An empty bitmap over `nchunks` chunks.
    pub fn new(nchunks: u32) -> Self {
        ChunkBitmap {
            words: vec![0; (nchunks as usize).div_ceil(64)],
            nchunks,
            count: 0,
        }
    }

    /// Record chunk `idx` as received.
    pub fn mark(&mut self, idx: u32) {
        let (w, b) = (idx as usize / 64, idx % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.count += 1;
        }
    }

    /// Whether chunk `idx` has been received.
    pub fn has(&self, idx: u32) -> bool {
        self.words[idx as usize / 64] & (1 << (idx % 64)) != 0
    }

    /// Chunks received so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Up to `cap` missing chunk indices, ascending. Scans a word at a
    /// time with `trailing_zeros`, so a NACK over a mostly-complete
    /// image costs one inspection per 64 chunks, not one per chunk.
    pub fn missing(&self, cap: usize) -> Vec<u32> {
        let mut out = Vec::new();
        'words: for (w, &word) in self.words.iter().enumerate() {
            let base = (w * 64) as u32;
            let mut inv = !word;
            let tail = self.nchunks - base;
            if tail < 64 {
                inv &= (1u64 << tail) - 1;
            }
            while inv != 0 {
                out.push(base + inv.trailing_zeros());
                if out.len() >= cap {
                    break 'words;
                }
                inv &= inv - 1;
            }
        }
        out
    }
}

#[derive(Debug)]
struct Target {
    have: ChunkBitmap,
    complete_at: Option<SimTime>,
    operational_at: Option<SimTime>,
    failed: bool,
    /// the receiver died mid-session: it ignores everything
    dead: bool,
}

impl Target {
    fn new(nchunks: u32) -> Self {
        Target {
            have: ChunkBitmap::new(nchunks),
            complete_at: None,
            operational_at: None,
            failed: false,
            dead: false,
        }
    }
}

struct World {
    net: Network<Msg>,
    cfg: CloneConfig,
    nchunks: u32,
    n_nodes: u32,
    targets: Vec<Target>,
    rng: StdRng,
    // master state
    poll_queue: std::collections::VecDeque<u32>,
    current_rounds: u32,
    remulticast_rounds_left: u32,
    completed: u32,
    /// outstanding poll the master is waiting on: `(node, sequence)`
    awaiting: Option<(u32, u64)>,
    next_poll_seq: u64,
    /// consecutive missed poll deadlines for the head node
    poll_misses: u32,
    // accounting
    stream_done: Option<SimTime>,
    data_complete: Option<SimTime>,
    repair_chunks: u64,
    remulticast_chunks: u64,
    polls: u64,
    failed: u32,
}

const MASTER: NodeAddr = NodeAddr(0);

fn addr_of(node: u32) -> NodeAddr {
    NodeAddr(node + 1)
}

fn node_of(addr: NodeAddr) -> u32 {
    addr.0 - 1
}

type CloneSim = Sim<World>;

fn schedule_deliveries(sim: &mut CloneSim, ds: Vec<Delivery<Msg>>) {
    for d in ds {
        sim.schedule_at(d.at, move |sim| on_receive(sim, d.to, d.msg));
    }
}

/// Reliable control send: retransmit on loss after the RTO.
fn send_ctrl(sim: &mut CloneSim, from: NodeAddr, to: NodeAddr, size: u64, msg: Msg, attempt: u32) {
    let now = sim.now();
    let ds = sim
        .world_mut()
        .net
        .unicast(now, from, to, size, msg.clone());
    if ds.is_empty() {
        if attempt < MAX_CTRL_RETRIES {
            sim.schedule_in(CTRL_RTO, move |sim| {
                send_ctrl(sim, from, to, size, msg, attempt + 1)
            });
        }
        // else: control channel broken; the poll-round cap will abandon
        // the node
    } else {
        schedule_deliveries(sim, ds);
    }
}

fn on_receive(sim: &mut CloneSim, to: NodeAddr, msg: Msg) {
    if to == MASTER {
        on_master_receive(sim, msg);
    } else {
        on_node_receive(sim, to, msg);
    }
}

fn on_node_receive(sim: &mut CloneSim, to: NodeAddr, msg: Msg) {
    let node = node_of(to);
    if sim.world().targets[node as usize].dead {
        return; // a dead receiver ignores everything
    }
    match msg {
        Msg::Chunk(idx) => {
            sim.world_mut().targets[node as usize].have.mark(idx);
        }
        Msg::Poll => {
            let nchunks = sim.world().nchunks;
            let target = &sim.world().targets[node as usize];
            if target.have.count() == nchunks {
                send_ctrl(sim, to, MASTER, CTRL_BYTES, Msg::Complete(node), 0);
            } else {
                let missing = target.have.missing(NACK_LIST_CAP);
                let size = CTRL_BYTES + 4 * missing.len() as u64;
                send_ctrl(sim, to, MASTER, size, Msg::Nack(node, missing), 0);
            }
        }
        _ => {}
    }
}

fn on_master_receive(sim: &mut CloneSim, msg: Msg) {
    match msg {
        Msg::Complete(sender) => {
            let Some(&node) = sim.world().poll_queue.front() else {
                return;
            };
            if node != sender {
                return; // stale response from an evicted receiver
            }
            let now = sim.now();
            {
                let w = sim.world_mut();
                w.awaiting = None;
                w.poll_misses = 0;
                w.poll_queue.pop_front();
                w.current_rounds = 0;
                let t = &mut w.targets[node as usize];
                if t.complete_at.is_none() {
                    t.complete_at = Some(now);
                    w.completed += 1;
                    if w.completed == w.n_nodes {
                        w.data_complete = Some(now);
                    }
                }
            }
            finish_node(sim, node);
            poll_next(sim);
        }
        Msg::Nack(sender, missing) => {
            let Some(&node) = sim.world().poll_queue.front() else {
                return;
            };
            if node != sender {
                return; // stale response from an evicted receiver
            }
            let now = sim.now();
            let chunk = sim.world().cfg.chunk_bytes;
            // repair peer-to-peer with the master, then re-poll; FIFO
            // segment ordering lands the poll after the repairs
            let mut deliveries = Vec::new();
            {
                let w = sim.world_mut();
                w.awaiting = None;
                w.poll_misses = 0;
                w.repair_chunks += missing.len() as u64;
                for idx in missing {
                    deliveries.extend(w.net.unicast(
                        now,
                        MASTER,
                        addr_of(node),
                        chunk,
                        Msg::Chunk(idx),
                    ));
                }
            }
            schedule_deliveries(sim, deliveries);
            poll_current(sim);
        }
        _ => {}
    }
}

/// Disk write (+ reboot for full reclones) for a node whose image data
/// is complete.
fn finish_node(sim: &mut CloneSim, node: u32) {
    let (disk_secs, firmware, reboot) = {
        let w = sim.world();
        (
            w.cfg.image_bytes as f64 / DISK_WRITE_BPS as f64,
            w.cfg.firmware,
            w.cfg.reboot,
        )
    };
    let boot = if reboot {
        let w = sim.world_mut();
        let mut chip = BiosChip::new(firmware);
        chip.begin_boot(&mut w.rng, MemoryCheck::Ok).total_time()
    } else {
        SimDuration::ZERO
    };
    let done = sim.now() + SimDuration::from_secs_f64(disk_secs) + boot;
    sim.schedule_at(done, move |sim| {
        sim.world_mut().targets[node as usize].operational_at = Some(sim.now());
    });
}

/// Poll the node at the head of the queue (counting rounds; abandon
/// after the cap).
fn poll_current(sim: &mut CloneSim) {
    let Some(&node) = sim.world().poll_queue.front() else {
        return;
    };
    let now = sim.now();
    let abandoned = {
        let w = sim.world_mut();
        w.current_rounds += 1;
        w.polls += 1;
        if w.current_rounds > MAX_POLL_ROUNDS {
            w.targets[node as usize].failed = true;
            w.failed += 1;
            w.poll_queue.pop_front();
            w.current_rounds = 0;
            // treat as "done" for termination purposes
            w.completed += 1;
            if w.completed == w.n_nodes {
                w.data_complete = Some(now);
            }
            true
        } else {
            false
        }
    };
    if abandoned {
        {
            let w = sim.world_mut();
            w.awaiting = None;
            w.poll_misses = 0;
        }
        poll_next(sim);
    } else {
        send_poll(sim, node);
    }
}

/// Send a poll to `node` and arm its response deadline.
fn send_poll(sim: &mut CloneSim, node: u32) {
    let seq = {
        let w = sim.world_mut();
        w.next_poll_seq += 1;
        w.awaiting = Some((node, w.next_poll_seq));
        w.next_poll_seq
    };
    send_poll_attempt(sim, node, seq, 0);
}

fn send_poll_attempt(sim: &mut CloneSim, node: u32, seq: u64, attempt: u32) {
    let now = sim.now();
    let ds = sim
        .world_mut()
        .net
        .unicast(now, MASTER, addr_of(node), CTRL_BYTES, Msg::Poll);
    if ds.is_empty() {
        if attempt < MAX_CTRL_RETRIES {
            sim.schedule_in(CTRL_RTO, move |sim| {
                send_poll_attempt(sim, node, seq, attempt + 1)
            });
        }
    } else if attempt == 0 {
        // Deadline measured from the poll's wire delivery, so queued
        // repair traffic ahead of it cannot fake a dead receiver.
        let deliver = ds.iter().map(|d| d.at).max().unwrap_or(now);
        schedule_deliveries(sim, ds);
        sim.schedule_at(deliver + POLL_TIMEOUT, move |sim| {
            check_poll_deadline(sim, node, seq)
        });
        return;
    } else {
        schedule_deliveries(sim, ds);
        return;
    }
    if attempt == 0 {
        // first copy lost: arm the deadline anyway so a receiver behind
        // a fully broken control channel is still evicted
        sim.schedule_in(POLL_TIMEOUT, move |sim| check_poll_deadline(sim, node, seq));
    }
}

/// The response deadline for poll `seq` to `node` expired.
///
/// Re-arms a few times (retransmits or a jammed wire may still produce
/// the answer); after [`MAX_POLL_MISSES`] consecutive
/// misses the receiver is declared dead and evicted so the session
/// completes for the survivors.
fn check_poll_deadline(sim: &mut CloneSim, node: u32, seq: u64) {
    if sim.world().awaiting != Some((node, seq)) {
        return; // answered (or the head moved on); stale deadline
    }
    let evict = {
        let w = sim.world_mut();
        w.poll_misses += 1;
        w.poll_misses >= MAX_POLL_MISSES
    };
    if !evict {
        sim.schedule_in(POLL_TIMEOUT, move |sim| check_poll_deadline(sim, node, seq));
        return;
    }
    let now = sim.now();
    {
        let w = sim.world_mut();
        w.awaiting = None;
        w.poll_misses = 0;
        w.current_rounds = 0;
        let t = &mut w.targets[node as usize];
        if !t.failed {
            t.failed = true;
            w.failed += 1;
        }
        w.poll_queue.pop_front();
        // treat as "done" for termination purposes
        w.completed += 1;
        if w.completed == w.n_nodes {
            w.data_complete = Some(now);
        }
    }
    poll_next(sim);
}

/// Move to the next node in the round-robin acknowledge phase.
fn poll_next(sim: &mut CloneSim) {
    if sim.world().poll_queue.is_empty() {
        return; // campaign data phase over
    }
    sim.world_mut().current_rounds = 0;
    poll_current(sim);
}

/// Begin the acknowledge phase.
fn start_ack_phase(sim: &mut CloneSim) {
    let now = sim.now();
    sim.world_mut().stream_done.get_or_insert(now);
    match sim.world().cfg.strategy {
        RepairStrategy::MulticastRemulticast { .. } if sim.world().remulticast_rounds_left > 0 => {
            remulticast_round(sim);
        }
        _ => {
            let n = sim.world().n_nodes;
            sim.world_mut().poll_queue = (0..n).collect();
            poll_next(sim);
        }
    }
}

/// One re-multicast repair round: union of missing chunks across nodes.
fn remulticast_round(sim: &mut CloneSim) {
    let nchunks = sim.world().nchunks;
    let mut union: Vec<u32> = Vec::new();
    {
        let w = sim.world();
        for idx in 0..nchunks {
            if w.targets.iter().any(|t| !t.have.has(idx)) {
                union.push(idx);
            }
        }
    }
    sim.world_mut().remulticast_rounds_left -= 1;
    if union.is_empty() {
        let n = sim.world().n_nodes;
        sim.world_mut().poll_queue = (0..n).collect();
        return poll_next(sim);
    }
    // pace the repair stream like the main stream
    let interval = {
        let cfg = &sim.world().cfg;
        SimDuration::from_secs_f64(cfg.chunk_bytes as f64 / cfg.pace_bps as f64)
    };
    let total = union.len();
    sim.world_mut().remulticast_chunks += total as u64;
    let chunk_bytes = sim.world().cfg.chunk_bytes;
    for (k, idx) in union.into_iter().enumerate() {
        sim.schedule_in(interval * k as u64, move |sim| {
            let now = sim.now();
            let ds = sim.world_mut().net.multicast(
                now,
                MASTER,
                CLONE_GROUP,
                chunk_bytes,
                Msg::Chunk(idx),
            );
            schedule_deliveries(sim, ds);
        });
    }
    // after the round, either run another or fall through to round-robin
    sim.schedule_in(interval * (total as u64 + 1), start_ack_phase);
}

/// Run a cloning campaign and return the report.
///
/// `loss` is the per-receiver chunk loss probability on the shared
/// segment; `bandwidth_bps` its capacity (use
/// [`cwx_net::FAST_ETHERNET_BPS`] for the paper's setup).
pub fn run_clone(
    seed: u64,
    n_nodes: u32,
    bandwidth_bps: u64,
    loss: f64,
    cfg: CloneConfig,
) -> CloneReport {
    assert!(n_nodes > 0, "need at least one target node");
    let nchunks = cfg.image_bytes.div_ceil(cfg.chunk_bytes) as u32;
    let mut net: Network<Msg> = Network::single_segment(seed, n_nodes + 1, bandwidth_bps, loss);
    for i in 0..n_nodes {
        net.join(CLONE_GROUP, addr_of(i));
    }
    let world = World {
        net,
        nchunks,
        n_nodes,
        targets: (0..n_nodes).map(|_| Target::new(nchunks)).collect(),
        rng: seeded_rng(seed ^ 0x9e3779b97f4a7c15),
        poll_queue: std::collections::VecDeque::new(),
        current_rounds: 0,
        remulticast_rounds_left: match cfg.strategy {
            RepairStrategy::MulticastRemulticast { rounds } => rounds,
            _ => 0,
        },
        completed: 0,
        awaiting: None,
        next_poll_seq: 0,
        poll_misses: 0,
        stream_done: None,
        data_complete: None,
        repair_chunks: 0,
        remulticast_chunks: 0,
        polls: 0,
        failed: 0,
        cfg,
    };
    let mut sim = Sim::new(world);

    // fault injection: receivers scheduled to die mid-session
    for (node, secs) in sim.world().cfg.dropouts.clone() {
        assert!(node < n_nodes, "dropout names a node outside the group");
        sim.schedule_in(SimDuration::from_secs_f64(secs), move |sim| {
            sim.world_mut().targets[node as usize].dead = true;
        });
    }

    match sim.world().cfg.strategy {
        RepairStrategy::Unicast => {
            // concurrent unicast pushes, interleaved chunk-by-chunk for
            // fairness; the shared segment serializes them
            let interval = {
                let cfg = &sim.world().cfg;
                // master paces each stream; aggregate offered load is
                // n * pace, the wire enforces its own limit
                SimDuration::from_secs_f64(cfg.chunk_bytes as f64 / cfg.pace_bps as f64)
            };
            for idx in 0..nchunks {
                sim.schedule_in(interval * idx as u64, move |sim| {
                    let now = sim.now();
                    let chunk = sim.world().cfg.chunk_bytes;
                    let n = sim.world().n_nodes;
                    let mut deliveries = Vec::new();
                    for node in 0..n {
                        deliveries.extend(sim.world_mut().net.unicast(
                            now,
                            MASTER,
                            addr_of(node),
                            chunk,
                            Msg::Chunk(idx),
                        ));
                    }
                    schedule_deliveries(sim, deliveries);
                });
            }
            let last = interval * nchunks as u64 + SimDuration::from_millis(500);
            sim.schedule_in(last, start_ack_phase);
        }
        _ => {
            // the paced multicast stream
            let interval = {
                let cfg = &sim.world().cfg;
                SimDuration::from_secs_f64(cfg.chunk_bytes as f64 / cfg.pace_bps as f64)
            };
            for idx in 0..nchunks {
                sim.schedule_in(interval * idx as u64, move |sim| {
                    let now = sim.now();
                    let chunk = sim.world().cfg.chunk_bytes;
                    let ds = sim.world_mut().net.multicast(
                        now,
                        MASTER,
                        CLONE_GROUP,
                        chunk,
                        Msg::Chunk(idx),
                    );
                    schedule_deliveries(sim, ds);
                });
            }
            let last = interval * nchunks as u64 + SimDuration::from_millis(500);
            sim.schedule_in(last, start_ack_phase);
        }
    }

    sim.run();

    let w = sim.world();
    let ops: Vec<f64> = w
        .targets
        .iter()
        .map(|t| {
            t.operational_at
                .map(|x| x.as_secs_f64())
                .unwrap_or(f64::NAN)
        })
        .collect();
    let makespan = ops
        .iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(0.0, f64::max);
    CloneReport {
        n_nodes: w.n_nodes,
        image_bytes: w.cfg.image_bytes,
        stream_secs: w.stream_done.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
        data_complete_secs: w.data_complete.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
        makespan_secs: makespan,
        wire_bytes: w.net.segment(SegmentId(0)).wire_bytes(),
        repair_chunks: w.repair_chunks,
        remulticast_chunks: w.remulticast_chunks,
        polls: w.polls,
        failed_nodes: w.failed,
        per_node_operational: ops,
    }
}

/// Convenience: push an in-place update (a kernel package, changed
/// files) of `delta_bytes` to `n_nodes` without rebooting them.
pub fn run_update(
    seed: u64,
    n_nodes: u32,
    bandwidth_bps: u64,
    loss: f64,
    delta_bytes: u64,
) -> CloneReport {
    run_clone(
        seed,
        n_nodes,
        bandwidth_bps,
        loss,
        CloneConfig {
            image_bytes: delta_bytes,
            chunk_bytes: (1 << 20).min(delta_bytes.max(1)),
            reboot: false,
            ..CloneConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_net::FAST_ETHERNET_BPS;

    fn small_cfg() -> CloneConfig {
        CloneConfig {
            image_bytes: 32 << 20,
            chunk_bytes: 1 << 20,
            pace_bps: 6 << 20,
            ..CloneConfig::default()
        }
    }

    #[test]
    fn bitmap_missing_matches_naive_scan() {
        // 150 chunks spans two full words plus a 22-bit tail
        let mut bm = ChunkBitmap::new(150);
        for idx in (0..150).filter(|i| i % 3 != 0 && *i != 64 && *i != 128) {
            bm.mark(idx);
        }
        let naive: Vec<u32> = (0..150).filter(|&i| !bm.has(i)).collect();
        assert_eq!(bm.missing(usize::MAX), naive);
        assert_eq!(bm.count() as usize, 150 - naive.len());
        // bits past nchunks in the last word must never be reported
        assert!(bm.missing(usize::MAX).iter().all(|&i| i < 150));
    }

    #[test]
    fn bitmap_missing_cap_truncates_at_word_boundaries() {
        let mut bm = ChunkBitmap::new(200);
        // everything missing: the cap cuts mid-word and exactly on a
        // word boundary
        assert_eq!(bm.missing(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(bm.missing(64).len(), 64);
        assert_eq!(bm.missing(64).last(), Some(&63));
        assert_eq!(bm.missing(65).last(), Some(&64));
        // fill word 0 entirely; the first misses now start at 64
        for idx in 0..64 {
            bm.mark(idx);
        }
        assert_eq!(bm.missing(3), vec![64, 65, 66]);
        // leave exactly one hole at the very end
        for idx in 64..199 {
            bm.mark(idx);
        }
        assert_eq!(bm.missing(1024), vec![199]);
        bm.mark(199);
        assert!(bm.missing(1024).is_empty());
        assert_eq!(bm.count(), 200);
    }

    #[test]
    fn lossless_multicast_needs_no_repairs() {
        let r = run_clone(1, 20, FAST_ETHERNET_BPS, 0.0, small_cfg());
        assert_eq!(r.failed_nodes, 0);
        assert_eq!(r.repair_chunks, 0);
        assert!(r.makespan_secs.is_finite());
        assert!(r.per_node_operational.iter().all(|t| t.is_finite()));
        // stream of 32 MiB at 6 MiB/s ≈ 5.3 s
        assert!(
            (4.0..=8.0).contains(&r.stream_secs),
            "stream {}",
            r.stream_secs
        );
    }

    #[test]
    fn lossy_multicast_repairs_and_completes() {
        let r = run_clone(2, 20, FAST_ETHERNET_BPS, 0.05, small_cfg());
        assert_eq!(r.failed_nodes, 0);
        assert!(r.repair_chunks > 0, "5% loss must trigger repairs");
        // expected missing ≈ 5% of 32 chunks × 20 nodes = 32
        assert!(
            r.repair_chunks < 200,
            "repairs should stay proportional: {}",
            r.repair_chunks
        );
    }

    #[test]
    fn multicast_wire_bytes_nearly_independent_of_node_count() {
        let a = run_clone(3, 5, FAST_ETHERNET_BPS, 0.0, small_cfg());
        let b = run_clone(3, 50, FAST_ETHERNET_BPS, 0.0, small_cfg());
        // only control traffic grows with N
        assert!(
            (b.wire_bytes as f64) < (a.wire_bytes as f64) * 1.2,
            "multicast wire bytes must not scale with N: {} vs {}",
            a.wire_bytes,
            b.wire_bytes
        );
    }

    #[test]
    fn unicast_baseline_puts_n_times_the_bytes_on_the_wire() {
        let mc = run_clone(4, 20, FAST_ETHERNET_BPS, 0.0, small_cfg());
        let uni = run_clone(
            4,
            20,
            FAST_ETHERNET_BPS,
            0.0,
            CloneConfig {
                strategy: RepairStrategy::Unicast,
                ..small_cfg()
            },
        );
        assert!(
            uni.wire_bytes > mc.wire_bytes * 15,
            "{} vs {}",
            uni.wire_bytes,
            mc.wire_bytes
        );
        // data distribution is wire-bound: ~N× slower for unicast (the
        // constant reboot+disk tail dilutes the full-makespan ratio)
        assert!(
            uni.data_complete_secs > mc.data_complete_secs * 4.0,
            "{} vs {}",
            uni.data_complete_secs,
            mc.data_complete_secs
        );
        assert!(uni.makespan_secs > mc.makespan_secs);
        assert_eq!(uni.failed_nodes, 0);
    }

    #[test]
    fn remulticast_strategy_completes_with_fewer_unicast_repairs() {
        let rr = run_clone(5, 30, FAST_ETHERNET_BPS, 0.08, small_cfg());
        let rm = run_clone(
            5,
            30,
            FAST_ETHERNET_BPS,
            0.08,
            CloneConfig {
                strategy: RepairStrategy::MulticastRemulticast { rounds: 2 },
                ..small_cfg()
            },
        );
        assert_eq!(rm.failed_nodes, 0);
        assert!(rm.remulticast_chunks > 0);
        assert!(
            rm.repair_chunks < rr.repair_chunks,
            "re-multicast should absorb most repairs: {} vs {}",
            rm.repair_chunks,
            rr.repair_chunks
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_clone(6, 10, FAST_ETHERNET_BPS, 0.03, small_cfg());
        let b = run_clone(6, 10, FAST_ETHERNET_BPS, 0.03, small_cfg());
        assert_eq!(a, b);
        let c = run_clone(7, 10, FAST_ETHERNET_BPS, 0.03, small_cfg());
        assert_ne!(a.makespan_secs, c.makespan_secs);
    }

    #[test]
    fn data_complete_after_stream_operational_after_data() {
        let r = run_clone(8, 10, FAST_ETHERNET_BPS, 0.02, small_cfg());
        assert!(r.stream_secs <= r.data_complete_secs);
        assert!(r.data_complete_secs < r.makespan_secs);
        // disk write + reboot adds at least image/disk_bps
        let disk = (32 << 20) as f64 / (25 << 20) as f64;
        assert!(r.makespan_secs - r.data_complete_secs >= disk);
    }

    #[test]
    fn single_node_clone_works() {
        let r = run_clone(9, 1, FAST_ETHERNET_BPS, 0.0, small_cfg());
        assert_eq!(r.failed_nodes, 0);
        assert_eq!(r.per_node_operational.len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_nodes_panics() {
        run_clone(1, 0, FAST_ETHERNET_BPS, 0.0, small_cfg());
    }

    #[test]
    fn in_place_update_skips_the_reboot() {
        let full = run_clone(10, 20, FAST_ETHERNET_BPS, 0.0, small_cfg());
        let update = run_clone(
            10,
            20,
            FAST_ETHERNET_BPS,
            0.0,
            CloneConfig {
                reboot: false,
                ..small_cfg()
            },
        );
        // same data distribution, no boot tail
        assert!((full.data_complete_secs - update.data_complete_secs).abs() < 1.0);
        assert!(
            update.makespan_secs + 15.0 < full.makespan_secs,
            "{} vs {}",
            update.makespan_secs,
            full.makespan_secs
        );
    }

    #[test]
    fn package_update_is_fast_at_scale() {
        // a 30 MiB kernel package to 200 nodes in parallel
        let r = run_update(11, 200, FAST_ETHERNET_BPS, 0.005, 30 << 20);
        assert_eq!(r.failed_nodes, 0);
        assert!(
            r.makespan_secs < 60.0,
            "small updates land in seconds: {}",
            r.makespan_secs
        );
    }

    #[test]
    fn dead_receiver_is_evicted_and_survivors_complete() {
        // node 3 dies one second in — before the 32 MiB / 6 MiBps
        // stream finishes — and never answers another poll
        let r = run_clone(
            12,
            10,
            FAST_ETHERNET_BPS,
            0.02,
            CloneConfig {
                dropouts: vec![(3, 1.0)],
                ..small_cfg()
            },
        );
        assert_eq!(r.failed_nodes, 1, "the dead receiver must be evicted");
        assert!(r.per_node_operational[3].is_nan());
        for (k, t) in r.per_node_operational.iter().enumerate() {
            if k != 3 {
                assert!(t.is_finite(), "survivor {k} must still complete");
            }
        }
        assert!(
            r.makespan_secs.is_finite() && r.data_complete_secs.is_finite(),
            "the session must terminate despite the dropout"
        );
        // eviction costs at most MAX_POLL_MISSES deadline windows
        let bound = POLL_TIMEOUT.as_secs_f64() * (MAX_POLL_MISSES + 2) as f64 + 60.0;
        assert!(
            r.data_complete_secs < bound,
            "eviction should be prompt: {} vs bound {bound}",
            r.data_complete_secs
        );
    }

    #[test]
    fn dropout_eviction_is_deterministic() {
        let cfg = || CloneConfig {
            dropouts: vec![(0, 2.0), (7, 4.5)],
            ..small_cfg()
        };
        let a = run_clone(13, 12, FAST_ETHERNET_BPS, 0.05, cfg());
        let b = run_clone(13, 12, FAST_ETHERNET_BPS, 0.05, cfg());
        // the dead nodes report NaN, so compare formatted (NaN == NaN)
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.failed_nodes, 2);
    }
}
