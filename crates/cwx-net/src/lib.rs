//! Simulated cluster network (substrate for paper §4 and §5.3).
//!
//! The paper's cloning result — "even a single fast ethernet is
//! sufficient to clone several hundred nodes simultaneously" — is a
//! statement about *shared-medium contention*: a unicast push to N nodes
//! puts N copies of the image on the wire, a multicast push puts one.
//! This crate models exactly that physics and nothing more:
//!
//! * [`Network`] is a set of shared [`Segment`]s (e.g. one 100 Mbit/s
//!   fast-Ethernet segment for the whole cluster, like the LLNL machine),
//!   optionally joined by a backbone segment.
//! * Each segment serializes transmissions: a packet occupies the wire
//!   for `wire_bytes / bandwidth`, and later sends queue behind it
//!   (`busy_until`).
//! * Deliveries happen after the transmission completes plus propagation
//!   latency; each receiver independently loses the packet with the
//!   segment's loss probability (seeded, deterministic).
//! * Multicast transmits **once per segment** that has subscribed
//!   members; unicast transmits once per hop.
//!
//! The network is pure: `unicast`/`multicast` return the list of
//! [`Delivery`] records and the caller (the cloning or monitoring
//! protocol) schedules them on the discrete-event simulator.

#![warn(missing_docs)]

pub mod conns;
pub mod frame;
pub mod reactor;

use std::collections::{BTreeMap, BTreeSet};

use cwx_util::rng::chance;
use cwx_util::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Identifies a node's network attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u32);

/// Identifies a shared segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u16);

/// Identifies a multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u16);

/// Ethernet + IP + UDP framing overhead per frame, in bytes.
pub const FRAME_OVERHEAD: u64 = 58;
/// Maximum payload bytes per frame (Ethernet MTU minus IP/UDP headers).
pub const FRAME_PAYLOAD: u64 = 1458;

/// 100 Mbit/s fast Ethernet (in bytes/s), the paper's cloning medium.
pub const FAST_ETHERNET_BPS: u64 = 100_000_000 / 8;
/// Gigabit Ethernet (in bytes/s), for sweeps.
pub const GIGABIT_BPS: u64 = 1_000_000_000 / 8;

/// A shared broadcast medium.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// One-way propagation + switch latency.
    pub latency: SimDuration,
    /// Independent per-receiver loss probability in `[0,1]`.
    pub loss: f64,
    partitioned: bool,
    busy_until: SimTime,
    wire_bytes: u64,
    packets: u64,
}

impl Segment {
    fn new(bandwidth_bps: u64, latency: SimDuration, loss: f64) -> Self {
        assert!(bandwidth_bps > 0, "segment bandwidth must be nonzero");
        Segment {
            bandwidth_bps,
            latency,
            loss: loss.clamp(0.0, 1.0),
            partitioned: false,
            busy_until: SimTime::ZERO,
            wire_bytes: 0,
            packets: 0,
        }
    }

    /// Whether the segment is currently partitioned from the network.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// Total bytes (incl. framing) this segment has carried.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Total packets carried.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Time the wire is occupied transmitting `payload` bytes, including
    /// per-frame overhead and fragmentation.
    pub fn tx_time(&self, payload: u64) -> SimDuration {
        let wire = wire_bytes_for(payload);
        SimDuration::from_secs_f64(wire as f64 / self.bandwidth_bps as f64)
    }

    /// Reserve the wire starting no earlier than `now`; returns the time
    /// the transmission completes.
    fn transmit(&mut self, now: SimTime, payload: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let end = start + self.tx_time(payload);
        self.busy_until = end;
        self.wire_bytes += wire_bytes_for(payload);
        self.packets += 1;
        end
    }
}

/// Bytes on the wire for a payload, with fragmentation and per-frame
/// overhead.
pub fn wire_bytes_for(payload: u64) -> u64 {
    let frames = payload.div_ceil(FRAME_PAYLOAD).max(1);
    payload + frames * FRAME_OVERHEAD
}

/// A message delivery computed by the network: give `msg` to `to` at
/// `at` (schedule it on the simulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Delivery time.
    pub at: SimTime,
    /// Receiving node.
    pub to: NodeAddr,
    /// The message.
    pub msg: M,
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets offered to the network.
    pub sent: u64,
    /// Per-receiver deliveries that succeeded.
    pub delivered: u64,
    /// Per-receiver deliveries lost.
    pub lost: u64,
}

/// The simulated network.
#[derive(Debug)]
pub struct Network<M> {
    segments: Vec<Segment>,
    backbone: Option<SegmentId>,
    attachment: BTreeMap<NodeAddr, SegmentId>,
    groups: BTreeMap<GroupId, BTreeSet<NodeAddr>>,
    rng: StdRng,
    stats: NetStats,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: Clone> Network<M> {
    /// An empty network with a deterministic loss RNG.
    pub fn new(seed: u64) -> Self {
        Network {
            segments: Vec::new(),
            backbone: None,
            attachment: BTreeMap::new(),
            groups: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Convenience: one shared fast-Ethernet-style segment with `n` nodes
    /// attached at addresses `0..n` — the LLNL cloning topology.
    pub fn single_segment(seed: u64, n: u32, bandwidth_bps: u64, loss: f64) -> Self {
        let mut net = Network::new(seed);
        let seg = net.add_segment(bandwidth_bps, SimDuration::from_micros(100), loss);
        for i in 0..n {
            net.attach(NodeAddr(i), seg);
        }
        net
    }

    /// Add a segment, returning its id.
    pub fn add_segment(
        &mut self,
        bandwidth_bps: u64,
        latency: SimDuration,
        loss: f64,
    ) -> SegmentId {
        let id = SegmentId(self.segments.len() as u16);
        self.segments
            .push(Segment::new(bandwidth_bps, latency, loss));
        id
    }

    /// Declare `seg` the backbone joining all other segments.
    pub fn set_backbone(&mut self, seg: SegmentId) {
        assert!((seg.0 as usize) < self.segments.len());
        self.backbone = Some(seg);
    }

    /// Attach a node to a segment (replacing any previous attachment).
    pub fn attach(&mut self, node: NodeAddr, seg: SegmentId) {
        assert!((seg.0 as usize) < self.segments.len());
        self.attachment.insert(node, seg);
    }

    /// The segment a node is attached to.
    pub fn segment_of(&self, node: NodeAddr) -> Option<SegmentId> {
        self.attachment.get(&node).copied()
    }

    /// Segment accessor (for reporting).
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.0 as usize]
    }

    /// Number of segments in the network.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Change a segment's per-receiver loss probability at runtime
    /// (degraded cabling, a dying switch port). Clamped to `[0,1]`.
    pub fn set_loss(&mut self, id: SegmentId, loss: f64) {
        self.segments[id.0 as usize].loss = loss.clamp(0.0, 1.0);
    }

    /// Change a segment's bandwidth at runtime (auto-negotiation
    /// fallback, half-duplex collapse). Panics on zero.
    pub fn set_bandwidth(&mut self, id: SegmentId, bandwidth_bps: u64) {
        assert!(bandwidth_bps > 0, "segment bandwidth must be nonzero");
        self.segments[id.0 as usize].bandwidth_bps = bandwidth_bps;
    }

    /// Partition a segment: until [`Network::heal`], every packet that
    /// would cross it is dropped (uplink unplugged / switch dead).
    /// Transmissions never start, so nothing is charged to the wire.
    pub fn partition(&mut self, id: SegmentId) {
        self.segments[id.0 as usize].partitioned = true;
    }

    /// Heal a partitioned segment.
    pub fn heal(&mut self, id: SegmentId) {
        self.segments[id.0 as usize].partitioned = false;
    }

    /// Canonical digest of the network's complete state: every segment
    /// (bandwidth, latency, loss, partition flag, busy-until horizon,
    /// traffic counters), topology, delivery counters, and the loss
    /// RNG's stream position (probed by clone, not perturbed). Used by
    /// the snapshot subsystem to verify replayed network state.
    pub fn state_digest(&self) -> u64 {
        use cwx_util::hash::{fnv1a_fold, fnv1a_fold_u64 as f, FNV_OFFSET};
        use cwx_util::rng::stream_probe;
        let mut h = FNV_OFFSET;
        h = f(h, self.segments.len() as u64);
        for s in &self.segments {
            h = f(h, s.bandwidth_bps);
            h = f(h, s.latency.as_nanos());
            h = f(h, s.loss.to_bits());
            h = f(h, s.partitioned as u64);
            h = f(h, s.busy_until.as_nanos());
            h = f(h, s.wire_bytes);
            h = f(h, s.packets);
        }
        h = fnv1a_fold(h, format!("{:?}", self.backbone).as_bytes());
        h = fnv1a_fold(h, format!("{:?}", self.attachment).as_bytes());
        h = fnv1a_fold(h, format!("{:?}", self.groups).as_bytes());
        h = f(h, self.stats.sent);
        h = f(h, self.stats.delivered);
        h = f(h, self.stats.lost);
        f(h, stream_probe(&self.rng, 4))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Subscribe `node` to `group`.
    pub fn join(&mut self, group: GroupId, node: NodeAddr) {
        self.groups.entry(group).or_default().insert(node);
    }

    /// Unsubscribe `node` from `group`.
    pub fn leave(&mut self, group: GroupId, node: NodeAddr) {
        if let Some(g) = self.groups.get_mut(&group) {
            g.remove(&node);
        }
    }

    /// Current members of a group.
    pub fn members(&self, group: GroupId) -> impl Iterator<Item = NodeAddr> + '_ {
        self.groups.get(&group).into_iter().flatten().copied()
    }

    /// The sequence of segments a packet crosses from `a` to `b`.
    fn route(&self, a: SegmentId, b: SegmentId) -> Vec<SegmentId> {
        if a == b {
            vec![a]
        } else {
            match self.backbone {
                Some(bb) if bb == a || bb == b => vec![a, b],
                Some(bb) => vec![a, bb, b],
                None => vec![a, b], // direct switch-to-switch link
            }
        }
    }

    /// Send `payload` bytes from `from` to `to`. Returns the delivery
    /// (empty if lost or either endpoint is detached).
    pub fn unicast(
        &mut self,
        now: SimTime,
        from: NodeAddr,
        to: NodeAddr,
        payload: u64,
        msg: M,
    ) -> Vec<Delivery<M>> {
        let (Some(sa), Some(sb)) = (self.segment_of(from), self.segment_of(to)) else {
            return Vec::new();
        };
        self.stats.sent += 1;
        if self
            .route(sa, sb)
            .iter()
            .any(|seg| self.segments[seg.0 as usize].partitioned)
        {
            self.stats.lost += 1;
            return Vec::new();
        }
        let mut t = now;
        let mut ok = true;
        for seg in self.route(sa, sb) {
            let s = &mut self.segments[seg.0 as usize];
            t = s.transmit(t, payload) + s.latency;
            if chance(&mut self.rng, s.loss) {
                ok = false;
            }
        }
        if ok {
            self.stats.delivered += 1;
            vec![Delivery { at: t, to, msg }]
        } else {
            self.stats.lost += 1;
            Vec::new()
        }
    }

    /// Multicast `payload` bytes from `from` to every member of `group`
    /// (excluding the sender). One wire transmission per segment with
    /// members; loss is independent per receiver.
    pub fn multicast(
        &mut self,
        now: SimTime,
        from: NodeAddr,
        group: GroupId,
        payload: u64,
        msg: M,
    ) -> Vec<Delivery<M>> {
        let Some(src_seg) = self.segment_of(from) else {
            return Vec::new();
        };
        let members: Vec<NodeAddr> = self.members(group).filter(|&n| n != from).collect();
        if members.is_empty() {
            return Vec::new();
        }
        self.stats.sent += 1;

        // group receivers by segment
        let mut by_seg: BTreeMap<SegmentId, Vec<NodeAddr>> = BTreeMap::new();
        for n in members {
            if let Some(seg) = self.segment_of(n) {
                by_seg.entry(seg).or_default().push(n);
            }
        }

        if self.segments[src_seg.0 as usize].partitioned {
            // the sender's own segment is cut off: nothing leaves the port
            self.stats.lost += by_seg.values().map(|v| v.len() as u64).sum::<u64>();
            return Vec::new();
        }

        // Transmit once on the source segment; remote segments receive a
        // forwarded copy (source tx -> backbone tx -> leaf tx).
        let src_done = self.segments[src_seg.0 as usize].transmit(now, payload);

        let mut out = Vec::new();
        for (seg, nodes) in by_seg {
            if self
                .route(src_seg, seg)
                .iter()
                .any(|s| self.segments[s.0 as usize].partitioned)
            {
                self.stats.lost += nodes.len() as u64;
                continue;
            }
            // arrival time of the stream on this segment
            let arrival = if seg == src_seg {
                src_done + self.segments[seg.0 as usize].latency
            } else {
                let mut t = src_done + self.segments[src_seg.0 as usize].latency;
                if let Some(bb) = self.backbone {
                    if bb != src_seg && bb != seg {
                        let b = &mut self.segments[bb.0 as usize];
                        t = b.transmit(t, payload) + b.latency;
                    }
                }
                let s = &mut self.segments[seg.0 as usize];
                s.transmit(t, payload) + s.latency
            };
            let loss = self.segments[seg.0 as usize].loss;
            for n in nodes {
                if chance(&mut self.rng, loss) {
                    self.stats.lost += 1;
                } else {
                    self.stats.delivered += 1;
                    out.push(Delivery {
                        at: arrival,
                        to: n,
                        msg: msg.clone(),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless(n: u32) -> Network<u32> {
        Network::single_segment(1, n, FAST_ETHERNET_BPS, 0.0)
    }

    #[test]
    fn wire_bytes_fragmentation() {
        assert_eq!(wire_bytes_for(0), FRAME_OVERHEAD);
        assert_eq!(wire_bytes_for(100), 100 + FRAME_OVERHEAD);
        assert_eq!(
            wire_bytes_for(FRAME_PAYLOAD),
            FRAME_PAYLOAD + FRAME_OVERHEAD
        );
        assert_eq!(
            wire_bytes_for(FRAME_PAYLOAD + 1),
            FRAME_PAYLOAD + 1 + 2 * FRAME_OVERHEAD
        );
    }

    #[test]
    fn unicast_delivers_with_latency_and_tx_time() {
        let mut net = lossless(2);
        let d = net.unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 1000, 7u32);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to, NodeAddr(1));
        assert_eq!(d[0].msg, 7);
        let tx = net.segment(SegmentId(0)).tx_time(1000);
        assert_eq!(d[0].at, SimTime::ZERO + tx + SimDuration::from_micros(100));
    }

    #[test]
    fn shared_segment_serializes_transmissions() {
        let mut net = lossless(3);
        let d1 = net.unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 10_000, 0u32);
        let d2 = net.unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(2), 10_000, 1u32);
        // second packet queues behind the first
        assert!(d2[0].at > d1[0].at);
        let gap = d2[0].at - d1[0].at;
        assert_eq!(gap, net.segment(SegmentId(0)).tx_time(10_000));
    }

    #[test]
    fn multicast_transmits_once_for_all_members() {
        let mut net = lossless(10);
        let g = GroupId(0);
        for i in 1..10 {
            net.join(g, NodeAddr(i));
        }
        let ds = net.multicast(SimTime::ZERO, NodeAddr(0), g, 10_000, 0u32);
        assert_eq!(ds.len(), 9);
        // all receivers get it at the same instant — one wire transmission
        for d in &ds {
            assert_eq!(d.at, ds[0].at);
        }
        assert_eq!(net.segment(SegmentId(0)).packets(), 1);
    }

    #[test]
    fn multicast_excludes_sender() {
        let mut net = lossless(3);
        let g = GroupId(0);
        for i in 0..3 {
            net.join(g, NodeAddr(i));
        }
        let ds = net.multicast(SimTime::ZERO, NodeAddr(0), g, 100, 0u32);
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.to != NodeAddr(0)));
    }

    #[test]
    fn unicast_to_n_uses_n_times_the_wire_of_multicast() {
        let n = 50;
        let payload = 100_000u64;
        let mut uni = lossless(n + 1);
        for i in 1..=n {
            uni.unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(i), payload, 0u32);
        }
        let mut mc = lossless(n + 1);
        let g = GroupId(0);
        for i in 1..=n {
            mc.join(g, NodeAddr(i));
        }
        mc.multicast(SimTime::ZERO, NodeAddr(0), g, payload, 0u32);
        let wire_uni = uni.segment(SegmentId(0)).wire_bytes();
        let wire_mc = mc.segment(SegmentId(0)).wire_bytes();
        assert_eq!(wire_uni, wire_mc * n as u64);
    }

    #[test]
    fn loss_is_deterministic_per_seed_and_roughly_calibrated() {
        let run = |seed| {
            let mut net: Network<u32> = Network::single_segment(seed, 2, FAST_ETHERNET_BPS, 0.3);
            let mut delivered = 0;
            for _ in 0..1000 {
                delivered += net
                    .unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 100, 0u32)
                    .len();
            }
            (delivered, net.stats())
        };
        let (d1, s1) = run(42);
        let (d2, _) = run(42);
        assert_eq!(d1, d2, "same seed must reproduce");
        assert!(
            (600..=800).contains(&d1),
            "expected ~70% delivery, got {d1}"
        );
        assert_eq!(s1.delivered + s1.lost, s1.sent);
    }

    #[test]
    fn cross_segment_route_traverses_backbone() {
        let mut net: Network<u32> = Network::new(9);
        let a = net.add_segment(FAST_ETHERNET_BPS, SimDuration::from_micros(50), 0.0);
        let bb = net.add_segment(GIGABIT_BPS, SimDuration::from_micros(10), 0.0);
        let b = net.add_segment(FAST_ETHERNET_BPS, SimDuration::from_micros(50), 0.0);
        net.set_backbone(bb);
        net.attach(NodeAddr(1), a);
        net.attach(NodeAddr(2), b);
        let d = net.unicast(SimTime::ZERO, NodeAddr(1), NodeAddr(2), 1000, 0u32);
        assert_eq!(d.len(), 1);
        assert_eq!(net.segment(a).packets(), 1);
        assert_eq!(net.segment(bb).packets(), 1);
        assert_eq!(net.segment(b).packets(), 1);
        // three hops: slower than a same-segment send
        let mut net2 = lossless(2);
        let d2 = net2.unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 1000, 0u32);
        assert!(d[0].at > d2[0].at);
    }

    #[test]
    fn detached_nodes_cannot_send_or_receive() {
        let mut net = lossless(1);
        assert!(net
            .unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(99), 10, 0u32)
            .is_empty());
        assert!(net
            .unicast(SimTime::ZERO, NodeAddr(99), NodeAddr(0), 10, 0u32)
            .is_empty());
    }

    #[test]
    fn empty_group_multicast_is_noop() {
        let mut net = lossless(2);
        assert!(net
            .multicast(SimTime::ZERO, NodeAddr(0), GroupId(5), 10, 0u32)
            .is_empty());
        assert_eq!(net.stats().sent, 0);
    }

    #[test]
    fn partition_drops_and_heal_restores() {
        let mut net = lossless(3);
        let g = GroupId(0);
        net.join(g, NodeAddr(1));
        net.join(g, NodeAddr(2));
        net.partition(SegmentId(0));
        assert!(net.segment(SegmentId(0)).is_partitioned());
        assert!(net
            .unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 100, 0u32)
            .is_empty());
        assert!(net
            .multicast(SimTime::ZERO, NodeAddr(0), g, 100, 0u32)
            .is_empty());
        // partitioned traffic never occupied the wire
        assert_eq!(net.segment(SegmentId(0)).packets(), 0);
        let s = net.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.lost, 3, "1 unicast + 2 multicast receivers lost");
        net.heal(SegmentId(0));
        assert_eq!(
            net.unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 100, 0u32)
                .len(),
            1
        );
        assert_eq!(
            net.multicast(SimTime::ZERO, NodeAddr(0), g, 100, 0u32)
                .len(),
            2
        );
    }

    #[test]
    fn partitioned_leaf_segment_loses_only_its_receivers() {
        let mut net: Network<u32> = Network::new(11);
        let a = net.add_segment(FAST_ETHERNET_BPS, SimDuration::from_micros(50), 0.0);
        let b = net.add_segment(FAST_ETHERNET_BPS, SimDuration::from_micros(50), 0.0);
        net.attach(NodeAddr(0), a);
        net.attach(NodeAddr(1), a);
        net.attach(NodeAddr(2), b);
        let g = GroupId(0);
        net.join(g, NodeAddr(1));
        net.join(g, NodeAddr(2));
        net.partition(b);
        let ds = net.multicast(SimTime::ZERO, NodeAddr(0), g, 100, 0u32);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].to, NodeAddr(1));
        assert!(net
            .unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(2), 100, 0u32)
            .is_empty());
    }

    #[test]
    fn runtime_loss_and_bandwidth_mutation_take_effect() {
        let mut net = lossless(2);
        net.set_loss(SegmentId(0), 1.0);
        assert!(net
            .unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 100, 0u32)
            .is_empty());
        net.set_loss(SegmentId(0), 0.0);
        let before = net.unicast(SimTime::ZERO, NodeAddr(0), NodeAddr(1), 100_000, 0u32);
        net.set_bandwidth(SegmentId(0), FAST_ETHERNET_BPS / 10);
        let t0 = net.segment(SegmentId(0)).busy_until;
        let after = net.unicast(t0, NodeAddr(0), NodeAddr(1), 100_000, 0u32);
        let fast = before[0].at - SimTime::ZERO;
        let slow = after[0].at - t0;
        assert!(slow > fast * 9, "tenth the bandwidth, ~10x the tx time");
    }

    #[test]
    fn leave_removes_member() {
        let mut net = lossless(3);
        let g = GroupId(0);
        net.join(g, NodeAddr(1));
        net.join(g, NodeAddr(2));
        net.leave(g, NodeAddr(1));
        let ds = net.multicast(SimTime::ZERO, NodeAddr(0), g, 10, 0u32);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].to, NodeAddr(2));
    }
}
