//! The per-node monitoring agent: gather → consolidate → transmit.

use std::io;

use cwx_proc::gather::{NodeReader, NodeSample};
use cwx_proc::source::ProcSource;
use cwx_util::compress;
use cwx_util::time::SimTime;

use crate::consolidate::{ConsolidationStats, Consolidator};
use crate::monitor::{MonitorClass, Registry};
use crate::snapshot::{Sensors, Snapshot};
use crate::transmit::{self, Report};

/// Serve repeat requests from the snapshot cache within this window.
const CACHE_TTL_SECS: f64 = 0.5;

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Node id used in report headers.
    pub node: u32,
    /// Delta consolidation on (product behaviour) or off (E7 ablation).
    pub delta_enabled: bool,
    /// LZSS-compress reports (product behaviour) or send raw text.
    pub compress: bool,
    /// Emit the binary `CWB1` delta wire format instead of text
    /// (overrides `compress`; the binary format is already compact).
    pub binary: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            node: 0,
            delta_enabled: true,
            compress: true,
            binary: false,
        }
    }
}

/// Counters accumulated by an agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Gather ticks executed.
    pub ticks: u64,
    /// Reports emitted (one per tick).
    pub reports: u64,
    /// Bytes of wire text before compression.
    pub raw_bytes: u64,
    /// Bytes actually handed to the network.
    pub wire_bytes: u64,
    /// Proc files read, one per file per tick. A source that hands over
    /// its values instead of text (a simulated node) counts the six
    /// files it stands in for, so the count is the same on both paths.
    pub gather_calls: u64,
}

/// One tick's output.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentOutput {
    /// The decoded report (what the server will see).
    pub report: Report,
    /// Wire text length before compression.
    pub raw_len: usize,
    /// Payload length actually transmitted.
    pub wire_len: usize,
    /// The bytes to hand to the network (compressed or raw text
    /// depending on [`AgentConfig::compress`]).
    pub payload: Vec<u8>,
}

/// The monitoring agent for one node.
pub struct Agent<S: ProcSource> {
    cfg: AgentConfig,
    reader: NodeReader<S>,
    /// the reader's output; its vectors are recycled from tick to tick
    sample: NodeSample,
    registry: Registry,
    consolidator: Consolidator,
    encoder: transmit::WireEncoder,
    wire_buf: Vec<u8>,
    snap: Snapshot,
    have_snapshot: bool,
    seq: u64,
    stats: AgentStats,
}

impl<S: ProcSource> Agent<S> {
    /// Build an agent over a proc source. Opens the source's
    /// [`ProcSource::node_reader`] immediately: the keep-open gatherers
    /// (the paper's fastest configuration) over a real `/proc`, the
    /// values themselves on a simulated node.
    pub fn new(source: S, cfg: AgentConfig) -> io::Result<Self>
    where
        S: Clone,
    {
        Ok(Agent {
            reader: source.node_reader()?,
            sample: NodeSample::default(),
            registry: Registry::for_agent(),
            consolidator: Consolidator::new(cfg.delta_enabled),
            encoder: transmit::WireEncoder::new(),
            wire_buf: Vec::new(),
            snap: Snapshot::default(),
            have_snapshot: false,
            seq: 0,
            stats: AgentStats::default(),
            cfg,
        })
    }

    /// Access the monitor registry (e.g. to add plug-ins).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Accumulated counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Consolidation counters.
    pub fn consolidation_stats(&self) -> ConsolidationStats {
        self.consolidator.stats()
    }

    /// The most recent snapshot, served from cache if it is younger than
    /// the TTL (the "simultaneous requests" path). `None` when stale or
    /// no snapshot was gathered yet.
    pub fn cached_snapshot(&mut self, now: SimTime) -> Option<&Snapshot> {
        if self.have_snapshot && now.since(self.snap.time).as_secs_f64() <= CACHE_TTL_SECS {
            self.consolidator.note_cache_hit();
            Some(&self.snap)
        } else {
            None
        }
    }

    /// Force a full retransmission on the next tick (server resync).
    /// The wire dictionary is renegotiated along with the values.
    pub fn resync(&mut self) {
        self.consolidator.reset();
        self.encoder.reset();
    }

    /// Run one gather/consolidate/transmit cycle.
    pub fn tick(&mut self, now: SimTime, sensors: Sensors) -> io::Result<AgentOutput> {
        // --- gather ---
        self.stats.gather_calls += self.reader.read(&mut self.sample)?;
        let (snap, sample) = (&mut self.snap, &mut self.sample);
        if self.have_snapshot {
            snap.dt_secs = now.since(snap.time).as_secs_f64();
            snap.prev_stat = snap.stat;
            std::mem::swap(&mut snap.prev_net, &mut snap.net);
            std::mem::swap(&mut snap.prev_disks, &mut snap.disks);
        } else {
            snap.dt_secs = 0.0;
            snap.prev_stat = sample.stat;
            snap.prev_net.clone_from(&sample.net);
            snap.prev_disks.clone_from(&sample.disks);
        }
        // the vectors this replaces are the ones the next read refills
        std::mem::swap(&mut snap.net, &mut sample.net);
        std::mem::swap(&mut snap.disks, &mut sample.disks);
        snap.time = now;
        snap.mem = sample.mem;
        snap.stat = sample.stat;
        snap.load = sample.load;
        snap.uptime = sample.uptime;
        snap.sensors = sensors;
        self.have_snapshot = true;

        // --- consolidate ---
        let mut values = Vec::new();
        for mut m in self.registry.iter_mut() {
            // a built-in static already sent is suppressed whatever it
            // reads, so it is not read
            if m.class == MonitorClass::Static
                && m.is_builtin()
                && self.consolidator.suppress_sent_static(m.slot())
            {
                continue;
            }
            if let Some(v) = m.extract(&self.snap) {
                if self.consolidator.offer_slot(m.slot(), m.class, &v) {
                    values.push((m.key.clone(), v));
                }
            }
        }

        // --- transmit ---
        let report = Report {
            node: self.cfg.node,
            seq: self.seq,
            time_secs: now.as_secs_f64(),
            values,
        };
        self.seq += 1;
        let (raw_len, payload) = if self.cfg.binary {
            // binary frames are handed out as-is; raw == wire
            self.encoder.encode_into(&report, &mut self.wire_buf);
            (self.wire_buf.len(), self.wire_buf.clone())
        } else {
            let raw = transmit::encode(&report);
            let raw_len = raw.len();
            let payload = if self.cfg.compress {
                compress::compress(raw.as_bytes())
            } else {
                raw.into_bytes()
            };
            (raw_len, payload)
        };
        let wire_len = payload.len();
        self.stats.ticks += 1;
        self.stats.reports += 1;
        self.stats.raw_bytes += raw_len as u64;
        self.stats.wire_bytes += wire_len as u64;
        Ok(AgentOutput {
            report,
            raw_len,
            wire_len,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_proc::synthetic::SyntheticProc;
    use cwx_util::time::SimDuration;

    fn agent(proc_: &SyntheticProc, delta: bool, compress: bool) -> Agent<SyntheticProc> {
        Agent::new(
            proc_.clone(),
            AgentConfig {
                delta_enabled: delta,
                compress,
                ..AgentConfig::default()
            },
        )
        .unwrap()
    }

    fn tick_n(
        agent: &mut Agent<SyntheticProc>,
        proc_: &SyntheticProc,
        n: usize,
    ) -> Vec<AgentOutput> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = SimTime::ZERO + SimDuration::from_secs(i as u64 + 1);
            proc_.with_state(|s| s.tick(1.0, 0.3));
            out.push(agent.tick(t, Sensors::default()).unwrap());
        }
        out
    }

    #[test]
    fn first_report_carries_everything() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, true, false);
        let out = a.tick(SimTime::ZERO, Sensors::default()).unwrap();
        assert!(
            out.report.values.len() > 40,
            "first tick sends all monitors"
        );
    }

    #[test]
    fn steady_state_reports_shrink_with_delta() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, true, false);
        let outs = tick_n(&mut a, &proc_, 10);
        let first = &outs[0];
        let later = &outs[9];
        assert!(
            later.report.values.len() < first.report.values.len() / 2,
            "delta consolidation must shrink steady-state reports: {} vs {}",
            later.report.values.len(),
            first.report.values.len()
        );
        // static values never reappear
        assert!(later
            .report
            .values
            .iter()
            .all(|(k, _)| k.as_str() != "mem.total"));
    }

    #[test]
    fn ablation_sends_everything_every_tick() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, false, false);
        let outs = tick_n(&mut a, &proc_, 5);
        let n = outs[0].report.values.len();
        assert!(outs.iter().all(|o| o.report.values.len() == n));
        assert!(n > 40);
    }

    #[test]
    fn delta_plus_compression_cuts_wire_bytes() {
        let proc2 = SyntheticProc::default();
        let mut full = agent(&proc2, false, false);
        let mut opt = agent(&proc2, true, true);
        let mut full_bytes = 0;
        let mut opt_bytes = 0;
        for i in 0..20 {
            let t = SimTime::ZERO + SimDuration::from_secs(i + 1);
            proc2.with_state(|s| s.tick(1.0, 0.3));
            full_bytes += full.tick(t, Sensors::default()).unwrap().wire_len;
            opt_bytes += opt.tick(t, Sensors::default()).unwrap().wire_len;
        }
        assert!(
            opt_bytes * 2 < full_bytes,
            "pipeline must cut bytes substantially: {opt_bytes} vs {full_bytes}"
        );
    }

    #[test]
    fn reports_decode_on_the_server_side() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, true, true);
        proc_.with_state(|s| s.tick(1.0, 0.5));
        let out = a
            .tick(
                SimTime::ZERO + SimDuration::from_secs(1),
                Sensors::default(),
            )
            .unwrap();
        let packed = transmit::encode_compressed(&out.report);
        assert_eq!(packed.len(), out.wire_len);
        let decoded = transmit::decode_compressed(&packed).unwrap();
        assert_eq!(decoded.node, out.report.node);
        assert_eq!(decoded.values.len(), out.report.values.len());
    }

    #[test]
    fn binary_agent_reports_decode_and_beat_text() {
        let proc_ = SyntheticProc::default();
        let mut bin = Agent::new(
            proc_.clone(),
            AgentConfig {
                binary: true,
                compress: false,
                ..AgentConfig::default()
            },
        )
        .unwrap();
        let mut txt = agent(&proc_, true, false);
        let mut dec = transmit::WireDecoder::new();
        let mut bin_bytes = 0usize;
        let mut txt_bytes = 0usize;
        for i in 0..10 {
            let t = SimTime::ZERO + SimDuration::from_secs(i + 1);
            proc_.with_state(|s| s.tick(1.0, 0.3));
            let out = bin.tick(t, Sensors::default()).unwrap();
            let decoded = dec.decode_auto(&out.payload).unwrap();
            assert_eq!(decoded, out.report, "binary frame round-trips");
            bin_bytes += out.wire_len;
            txt_bytes += txt.tick(t, Sensors::default()).unwrap().wire_len;
        }
        // Changed floats XOR-delta to near-full-width varints, so the
        // byte win over text is modest; the real payoff (cwxbench's
        // encode/decode rows) is skipping float formatting and parsing.
        assert!(
            bin_bytes < txt_bytes,
            "binary wire must undercut raw text: {bin_bytes} vs {txt_bytes}"
        );
    }

    #[test]
    fn cache_serves_fresh_snapshots_only() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, true, false);
        let t0 = SimTime::ZERO + SimDuration::from_secs(10);
        assert!(
            a.cached_snapshot(t0).is_none(),
            "no snapshot before first tick"
        );
        a.tick(t0, Sensors::default()).unwrap();
        assert!(a
            .cached_snapshot(t0 + SimDuration::from_millis(100))
            .is_some());
        assert!(
            a.cached_snapshot(t0 + SimDuration::from_secs(5)).is_none(),
            "stale"
        );
        assert_eq!(a.consolidation_stats().cache_hits, 1);
    }

    #[test]
    fn resync_retransmits_statics() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, true, false);
        tick_n(&mut a, &proc_, 3);
        a.resync();
        let out = tick_n(&mut a, &proc_, 1);
        assert!(out[0]
            .report
            .values
            .iter()
            .any(|(k, _)| k.as_str() == "mem.total"));
    }

    #[test]
    fn sensors_flow_into_reports() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, true, false);
        let sensors = Sensors {
            cpu_temp_c: 61.5,
            fan_rpm: 0.0,
            udp_echo_ok: true,
            ..Default::default()
        };
        let out = a.tick(SimTime::ZERO, sensors).unwrap();
        let temp = out
            .report
            .values
            .iter()
            .find(|(k, _)| k.as_str() == "temp.cpu")
            .unwrap();
        assert_eq!(temp.1.render(), "61.500");
        let fan = out
            .report
            .values
            .iter()
            .find(|(k, _)| k.as_str() == "fan.cpu_rpm")
            .unwrap();
        assert_eq!(fan.1.render(), "0");
    }

    #[test]
    fn stats_accumulate() {
        let proc_ = SyntheticProc::default();
        let mut a = agent(&proc_, true, true);
        tick_n(&mut a, &proc_, 7);
        let s = a.stats();
        assert_eq!(s.ticks, 7);
        assert_eq!(s.reports, 7);
        // 6 proc files per tick (disk I/O included on synthetic)
        assert_eq!(s.gather_calls, 42);
        assert!(s.wire_bytes < s.raw_bytes);
    }
}
