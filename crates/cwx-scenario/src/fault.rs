//! The chaos fault vocabulary: every fault a `[cluster]` manifest's
//! `[[fault]]` entries can schedule, across every layer of the
//! simulated cluster. A chaos schedule is data — `(seconds, FaultKind)`
//! pairs in [`crate::ChaosSpec::faults`] — and [`crate::run_chaos`]
//! injects it.

use std::fmt;

/// One injectable fault. The variants span the injection surface the
/// framework exposes: network segments, ICE Box chassis, monitoring
/// agents, node hardware, and temperature probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Unplug a rack segment's uplink (needs the rack topology).
    PartitionRack(usize),
    /// Plug the rack back in.
    HealRack(usize),
    /// Degrade a rack segment to the given per-receiver loss.
    RackLoss(usize, f64),
    /// Renegotiate a rack segment down to the given bandwidth (bytes/s).
    RackBandwidth(usize, u64),
    /// Crash and restart a chassis controller: relays hold, pending
    /// sequenced energizations are lost.
    ChassisRestart(usize),
    /// Kill a node's monitoring daemon (a reboot restarts it).
    AgentCrash(u32),
    /// Wedge a node's monitoring daemon for the given seconds.
    AgentHang(u32, f64),
    /// Delay every report from a node by the given seconds.
    AgentDelay(u32, f64),
    /// Duplicate every report from a node.
    AgentDuplicate(u32),
    /// Clear any agent fault on a node (daemon restored).
    AgentRecover(u32),
    /// Panic a node's kernel.
    KernelPanic(u32),
    /// Stop a node's CPU fan.
    FanFailure(u32),
    /// Kill a node's power supply.
    PsuFailure(u32),
    /// Start a runaway memory leak on a node.
    MemoryLeak(u32),
    /// Freeze a node's chassis temperature probe at its last reading.
    ProbeStuck(u32),
    /// Skew a node's chassis temperature probe by the given °C.
    ProbeSkew(u32, f64),
    /// Repair a node's chassis temperature probe.
    ProbeClear(u32),
    /// Spray garbage bytes onto a node's console relay.
    ConsoleGarbage(u32),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use FaultKind::*;
        match self {
            PartitionRack(r) => write!(f, "partition-rack {r}"),
            HealRack(r) => write!(f, "heal-rack {r}"),
            RackLoss(r, l) => write!(f, "rack-loss {r} {l}"),
            RackBandwidth(r, b) => write!(f, "rack-bandwidth {r} {b}"),
            ChassisRestart(c) => write!(f, "chassis-restart {c}"),
            AgentCrash(n) => write!(f, "agent-crash {n}"),
            AgentHang(n, s) => write!(f, "agent-hang {n} {s}s"),
            AgentDelay(n, s) => write!(f, "agent-delay {n} {s}s"),
            AgentDuplicate(n) => write!(f, "agent-duplicate {n}"),
            AgentRecover(n) => write!(f, "agent-recover {n}"),
            KernelPanic(n) => write!(f, "kernel-panic {n}"),
            FanFailure(n) => write!(f, "fan-failure {n}"),
            PsuFailure(n) => write!(f, "psu-failure {n}"),
            MemoryLeak(n) => write!(f, "memory-leak {n}"),
            ProbeStuck(n) => write!(f, "probe-stuck {n}"),
            ProbeSkew(n, d) => write!(f, "probe-skew {n} {d}C"),
            ProbeClear(n) => write!(f, "probe-clear {n}"),
            ConsoleGarbage(n) => write!(f, "console-garbage {n}"),
        }
    }
}

/// Every fault-kind slug, in declaration order. The scenario coverage
/// scoreboard uses this as its denominator and manifest parsers as the
/// legal `kind` vocabulary.
pub(crate) const FAULT_SLUGS: [&str; 18] = [
    "partition-rack",
    "heal-rack",
    "rack-loss",
    "rack-bandwidth",
    "chassis-restart",
    "agent-crash",
    "agent-hang",
    "agent-delay",
    "agent-duplicate",
    "agent-recover",
    "kernel-panic",
    "fan-failure",
    "psu-failure",
    "memory-leak",
    "probe-stuck",
    "probe-skew",
    "probe-clear",
    "console-garbage",
];

impl FaultKind {
    /// Stable kind-only name (no operands): the `kind` strings scenario
    /// manifests use and the coverage scoreboard's row labels.
    pub(crate) fn slug(&self) -> &'static str {
        use FaultKind::*;
        match self {
            PartitionRack(_) => "partition-rack",
            HealRack(_) => "heal-rack",
            RackLoss(..) => "rack-loss",
            RackBandwidth(..) => "rack-bandwidth",
            ChassisRestart(_) => "chassis-restart",
            AgentCrash(_) => "agent-crash",
            AgentHang(..) => "agent-hang",
            AgentDelay(..) => "agent-delay",
            AgentDuplicate(_) => "agent-duplicate",
            AgentRecover(_) => "agent-recover",
            KernelPanic(_) => "kernel-panic",
            FanFailure(_) => "fan-failure",
            PsuFailure(_) => "psu-failure",
            MemoryLeak(_) => "memory-leak",
            ProbeStuck(_) => "probe-stuck",
            ProbeSkew(..) => "probe-skew",
            ProbeClear(_) => "probe-clear",
            ConsoleGarbage(_) => "console-garbage",
        }
    }

    /// The node a fault targets, when it targets exactly one.
    pub(crate) fn node(&self) -> Option<u32> {
        use FaultKind::*;
        match *self {
            AgentCrash(n)
            | AgentHang(n, _)
            | AgentDelay(n, _)
            | AgentDuplicate(n)
            | AgentRecover(n)
            | KernelPanic(n)
            | FanFailure(n)
            | PsuFailure(n)
            | MemoryLeak(n)
            | ProbeStuck(n)
            | ProbeSkew(n, _)
            | ProbeClear(n)
            | ConsoleGarbage(n) => Some(n),
            _ => None,
        }
    }

    /// Whether this fault takes a node (or its whole rack) down — the
    /// kinds the availability/MTTR metrics track.
    pub(crate) fn is_outage(&self) -> bool {
        matches!(
            self,
            FaultKind::KernelPanic(_) | FaultKind::PsuFailure(_) | FaultKind::PartitionRack(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_match_display_prefixes() {
        use FaultKind::*;
        let one_of_each = [
            PartitionRack(1),
            HealRack(1),
            RackLoss(1, 0.1),
            RackBandwidth(1, 1000),
            ChassisRestart(1),
            AgentCrash(1),
            AgentHang(1, 1.0),
            AgentDelay(1, 1.0),
            AgentDuplicate(1),
            AgentRecover(1),
            KernelPanic(1),
            FanFailure(1),
            PsuFailure(1),
            MemoryLeak(1),
            ProbeStuck(1),
            ProbeSkew(1, 1.0),
            ProbeClear(1),
            ConsoleGarbage(1),
        ];
        assert_eq!(one_of_each.len(), FAULT_SLUGS.len());
        for (kind, slug) in one_of_each.iter().zip(FAULT_SLUGS) {
            assert_eq!(kind.slug(), slug);
            assert!(
                kind.to_string().starts_with(slug),
                "{kind} vs {slug}: Display must lead with the slug"
            );
        }
    }
}
