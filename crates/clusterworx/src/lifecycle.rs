//! The per-node lifecycle state machine: the single source of truth for
//! what each node is doing and which transitions are legal.
//!
//! The paper's §5 event loop assumes one authority that knows whether a
//! node is off, booting, up, draining or failed before it fires a power
//! action at it. This module is that authority, shared verbatim between
//! the discrete-event simulation ([`crate::world`]) and the wall-clock
//! deployment ([`crate::realtime`]): both drive the identical machine
//! through [`crate::actions::ControlPlane`].
//!
//! ```text
//!          Off ──► PoweringOn ──► Bios ──► Up ──► Draining ──► Off
//!           ▲          │            │       │ │        │
//!           │          ▼            ▼       │ ▼        │
//!           └───────── Off   Failed(..) ◄───┘ Halted ──┘
//! ```
//!
//! `Cloning` overlays the power states during provisioning (the node is
//! deliberately dark while an image streams to it), and `Failed(reason)`
//! edges exist from anywhere hardware can break.

use cwx_util::time::SimTime;

/// Why a node landed in [`LifecycleState::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The firmware memory check failed; the node halts in BIOS.
    MemoryCheck,
    /// The CPU burned (unattended thermal runaway). Needs repair.
    Burned,
    /// The node stopped answering: a boot that never completed despite
    /// watchdog retries, or a clone receiver abandoned mid-session.
    Unresponsive,
}

/// Lifecycle state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// Outlet relay open; the node draws nothing.
    Off,
    /// Relay commanded closed; the outlet is inside its sequenced
    /// energize window or the firmware has not started yet.
    PoweringOn,
    /// Energized, firmware boot in progress.
    Bios,
    /// Provisioning: deliberately dark while an image streams to it.
    Cloning,
    /// OS up, agent reporting.
    Up,
    /// A power action is gated on a scheduler drain; the OS is still up
    /// until the drain completes (or its force-after deadline passes).
    Draining,
    /// OS halted by an administrator action; the relay stays closed.
    Halted,
    /// Flap-detected: the node cycled Up/Down too many times within the
    /// flap window and is parked powered-off until an administrator (or
    /// a configured timer) releases it. No automatic power action
    /// touches a quarantined node.
    Quarantined,
    /// Broken hardware; stays failed until repaired or power-cycled.
    Failed(FailReason),
}

impl LifecycleState {
    /// Whether the administrator expects an OS (and its agent) to be
    /// running in this state. Drives probe gating and the dashboard.
    pub fn expects_os(self) -> bool {
        matches!(self, LifecycleState::Up | LifecycleState::Draining)
    }

    /// Short status word for dashboards.
    pub fn status_word(self) -> &'static str {
        match self {
            LifecycleState::Off => "off",
            LifecycleState::PoweringOn | LifecycleState::Bios => "boot",
            LifecycleState::Cloning => "cloning",
            LifecycleState::Up => "up",
            LifecycleState::Draining => "draining",
            LifecycleState::Halted => "halted",
            LifecycleState::Quarantined => "quarantined",
            LifecycleState::Failed(_) => "failed",
        }
    }
}

/// Is `from → to` a legal edge of the machine?
///
/// The table is deliberately explicit: an illegal request is a bug in
/// the caller, and [`LifecycleTracker::transition`] refuses it rather
/// than silently corrupting the node's state.
pub fn legal_transition(from: LifecycleState, to: LifecycleState) -> bool {
    use LifecycleState::*;
    if from == to {
        return false; // self-loops are caller bugs, not transitions
    }
    match (from, to) {
        // the happy boot path
        (Off, PoweringOn) | (PoweringOn, Bios) | (Bios, Up) => true,
        // power cut anywhere before or after the OS is up
        (PoweringOn, Off) | (Bios, Off) | (Up, Off) | (Halted, Off) | (Draining, Off) => true,
        // drain gating around a power action on a busy node
        (Up, Draining) => true,
        // drain abandoned (command exhausted its retries): node stays up
        (Draining, Up) => true,
        // OS halt with the relay still closed
        (Up, Halted) | (Draining, Halted) => true,
        // provisioning claims a node from any powered state, and the
        // node leaves Cloning through a fresh power-on (or stays dark)
        (Off | PoweringOn | Bios | Up | Draining | Halted, Cloning) => true,
        (Cloning, PoweringOn) | (Cloning, Off) => true,
        // failure edges: firmware memory check, burned CPU, watchdog
        // giving up on a boot that never completes
        (PoweringOn | Bios, Failed(FailReason::MemoryCheck)) => true,
        (PoweringOn | Bios, Failed(FailReason::Unresponsive)) => true,
        // a clone receiver evicted mid-session is marked failed
        (Cloning, Failed(FailReason::Unresponsive)) => true,
        (_, Failed(FailReason::Burned)) => true,
        // repair paths out of Failed: power-cycle or replacement
        (Failed(_), Off) | (Failed(_), PoweringOn) | (Failed(_), Cloning) => true,
        // flap quarantine: entered from any power/failed state the flap
        // detector can observe a node in (never mid-drain or mid-clone —
        // those overlays finish or fail first), left only through an
        // explicit release (power-cycle or park off)
        (Off | PoweringOn | Bios | Up | Halted | Failed(_), Quarantined) => true,
        (Quarantined, Off) | (Quarantined, PoweringOn) => true,
        _ => false,
    }
}

/// Per-state node tallies — the consolidated lifecycle view a
/// federation sub-server exports upward (one counter per state instead
/// of one row per node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Nodes in [`LifecycleState::Off`].
    pub off: u32,
    /// Nodes in [`LifecycleState::PoweringOn`].
    pub powering_on: u32,
    /// Nodes in [`LifecycleState::Bios`].
    pub bios: u32,
    /// Nodes in [`LifecycleState::Cloning`].
    pub cloning: u32,
    /// Nodes in [`LifecycleState::Up`].
    pub up: u32,
    /// Nodes in [`LifecycleState::Draining`].
    pub draining: u32,
    /// Nodes in [`LifecycleState::Halted`].
    pub halted: u32,
    /// Nodes in [`LifecycleState::Quarantined`].
    pub quarantined: u32,
    /// Nodes in any [`LifecycleState::Failed`] state.
    pub failed: u32,
}

impl LifecycleCounts {
    /// Number of counters (the wire array length).
    pub const N: usize = 9;

    /// Total nodes tallied.
    pub fn total(&self) -> u32 {
        let a = self.as_array();
        a.iter().sum()
    }

    /// Add another tally in (head-side aggregation across clusters).
    pub fn accumulate(&mut self, other: &LifecycleCounts) {
        let mut a = self.as_array();
        for (x, y) in a.iter_mut().zip(other.as_array()) {
            *x += y;
        }
        *self = LifecycleCounts::from_array(a);
    }

    /// Fixed-order array form (the federation wire layout).
    pub fn as_array(&self) -> [u32; Self::N] {
        [
            self.off,
            self.powering_on,
            self.bios,
            self.cloning,
            self.up,
            self.draining,
            self.halted,
            self.quarantined,
            self.failed,
        ]
    }

    /// Rebuild from the fixed-order array form.
    pub fn from_array(a: [u32; Self::N]) -> LifecycleCounts {
        LifecycleCounts {
            off: a[0],
            powering_on: a[1],
            bios: a[2],
            cloning: a[3],
            up: a[4],
            draining: a[5],
            halted: a[6],
            quarantined: a[7],
            failed: a[8],
        }
    }
}

/// One transition (the lifecycle slice of the audit trail, read back
/// by `ControlPlane::transitions`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// When.
    pub time: SimTime,
    /// Which node.
    pub node: u32,
    /// State left.
    pub from: LifecycleState,
    /// State entered.
    pub to: LifecycleState,
}

/// Tracks the lifecycle state of every node in a fleet.
#[derive(Debug, Default)]
pub struct LifecycleTracker {
    states: Vec<LifecycleState>,
    /// when each node entered its current state
    since: Vec<SimTime>,
    /// when each node last entered `Up` (None once it truly leaves the
    /// up family `Up`/`Draining`) — the connectivity grace anchor
    up_entered: Vec<Option<SimTime>>,
}

impl LifecycleTracker {
    /// A tracker with `n` nodes, all [`LifecycleState::Off`].
    pub fn new(n: usize) -> Self {
        LifecycleTracker {
            states: vec![LifecycleState::Off; n],
            since: vec![SimTime::ZERO; n],
            up_entered: vec![None; n],
        }
    }

    /// Grow to cover a hot-added node (starts `Off`).
    pub fn add_node(&mut self) {
        self.states.push(LifecycleState::Off);
        self.since.push(SimTime::ZERO);
        self.up_entered.push(None);
    }

    /// Nodes tracked.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current state of `node`.
    pub fn state(&self, node: u32) -> LifecycleState {
        self.states[node as usize]
    }

    /// When `node` entered its current state.
    pub fn since(&self, node: u32) -> SimTime {
        self.since[node as usize]
    }

    /// When `node` last completed a boot, while it remains in the up
    /// family (`Up`/`Draining`); `None` otherwise.
    pub fn up_since(&self, node: u32) -> Option<SimTime> {
        self.up_entered[node as usize]
    }

    /// Tally every node by its current state.
    pub fn counts(&self) -> LifecycleCounts {
        let mut c = LifecycleCounts::default();
        for s in &self.states {
            match s {
                LifecycleState::Off => c.off += 1,
                LifecycleState::PoweringOn => c.powering_on += 1,
                LifecycleState::Bios => c.bios += 1,
                LifecycleState::Cloning => c.cloning += 1,
                LifecycleState::Up => c.up += 1,
                LifecycleState::Draining => c.draining += 1,
                LifecycleState::Halted => c.halted += 1,
                LifecycleState::Quarantined => c.quarantined += 1,
                LifecycleState::Failed(_) => c.failed += 1,
            }
        }
        c
    }

    /// Attempt `node → to`. Returns the transition if the edge is legal
    /// (applying it), `None` if it is not (state unchanged).
    pub fn transition(
        &mut self,
        now: SimTime,
        node: u32,
        to: LifecycleState,
    ) -> Option<Transition> {
        let from = self.states[node as usize];
        if !legal_transition(from, to) {
            return None;
        }
        self.apply(now, node, from, to)
    }

    /// Force `node` into `to` regardless of legality — the escape hatch
    /// for adopting an already-running fleet ([`crate::realtime`]) and
    /// for hardware events that outrank the machine. Still returned,
    /// so the control plane audits it like any other.
    pub fn force(&mut self, now: SimTime, node: u32, to: LifecycleState) -> Option<Transition> {
        let from = self.states[node as usize];
        if from == to {
            return None;
        }
        self.apply(now, node, from, to)
    }

    fn apply(
        &mut self,
        now: SimTime,
        node: u32,
        from: LifecycleState,
        to: LifecycleState,
    ) -> Option<Transition> {
        self.states[node as usize] = to;
        self.since[node as usize] = now;
        match to {
            LifecycleState::Up => self.up_entered[node as usize] = Some(now),
            LifecycleState::Draining => {} // still up: keep the anchor
            _ => self.up_entered[node as usize] = None,
        }
        Some(Transition {
            time: now,
            node,
            from,
            to,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LifecycleState::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + cwx_util::time::SimDuration::from_secs(s)
    }

    #[test]
    fn happy_path_boot_and_drain() {
        let mut lc = LifecycleTracker::new(1);
        assert_eq!(lc.state(0), Off);
        let mut from = Off;
        for (at, to) in [(1, PoweringOn), (2, Bios), (10, Up), (50, Draining)] {
            let tr = lc.transition(t(at), 0, to).expect("legal edge");
            assert_eq!((tr.time, tr.node, tr.from, tr.to), (t(at), 0, from, to));
            from = to;
        }
        assert_eq!(lc.up_since(0), Some(t(10)), "draining keeps the anchor");
        assert!(lc.transition(t(60), 0, Off).is_some());
        assert_eq!(lc.up_since(0), None);
        assert_eq!(lc.since(0), t(60));
    }

    #[test]
    fn illegal_edges_are_refused_without_corruption() {
        let mut lc = LifecycleTracker::new(1);
        assert!(lc.transition(t(1), 0, Up).is_none(), "Off -> Up skips boot");
        assert!(lc.transition(t(1), 0, Halted).is_none());
        assert!(lc.transition(t(1), 0, Off).is_none(), "self loop");
        assert_eq!(lc.state(0), Off, "state untouched by refusals");
        assert_eq!(lc.since(0), SimTime::ZERO, "refusals do not restamp");
    }

    #[test]
    fn failure_edges_and_repair() {
        let mut lc = LifecycleTracker::new(1);
        lc.transition(t(1), 0, PoweringOn).unwrap();
        lc.transition(t(2), 0, Bios).unwrap();
        assert!(lc
            .transition(t(3), 0, Failed(FailReason::MemoryCheck))
            .is_some());
        // repair is a power-cycle
        assert!(lc.transition(t(9), 0, Off).is_some());
        lc.transition(t(10), 0, PoweringOn).unwrap();
        lc.transition(t(11), 0, Bios).unwrap();
        lc.transition(t(12), 0, Up).unwrap();
        // a burn outranks everything
        assert!(lc
            .transition(t(20), 0, Failed(FailReason::Burned))
            .is_some());
        assert_eq!(lc.up_since(0), None);
    }

    #[test]
    fn cloning_overlays_power_states() {
        let mut lc = LifecycleTracker::new(2);
        lc.transition(t(1), 0, PoweringOn).unwrap();
        lc.transition(t(2), 0, Bios).unwrap();
        lc.transition(t(3), 0, Up).unwrap();
        assert!(
            lc.transition(t(5), 0, Cloning).is_some(),
            "claim a live node"
        );
        assert!(lc.transition(t(9), 0, PoweringOn).is_some(), "boot back");
        assert!(
            lc.transition(t(5), 1, Cloning).is_some(),
            "claim an off node"
        );
        assert!(lc.transition(t(9), 1, Off).is_some(), "abandoned clone");
    }

    #[test]
    fn quarantine_edges() {
        let mut lc = LifecycleTracker::new(1);
        lc.transition(t(1), 0, PoweringOn).unwrap();
        lc.transition(t(2), 0, Bios).unwrap();
        lc.transition(t(3), 0, Up).unwrap();
        assert!(lc.transition(t(4), 0, Quarantined).is_some());
        assert_eq!(lc.up_since(0), None, "quarantine drops the up anchor");
        assert!(!Quarantined.expects_os());
        assert_eq!(Quarantined.status_word(), "quarantined");
        // no boot path sneaks out of quarantine without a release
        assert!(lc.transition(t(5), 0, Up).is_none());
        assert!(lc.transition(t(5), 0, Bios).is_none());
        assert!(lc.transition(t(5), 0, Draining).is_none());
        assert!(lc.transition(t(5), 0, Cloning).is_none());
        // release: park off or power-cycle back into service
        assert!(lc.transition(t(6), 0, PoweringOn).is_some());
        lc.transition(t(7), 0, Bios).unwrap();
        lc.transition(t(8), 0, Up).unwrap();
        assert!(lc.transition(t(9), 0, Quarantined).is_some());
        assert!(lc.transition(t(10), 0, Off).is_some());
    }

    #[test]
    fn unresponsive_failures_from_boot_and_clone() {
        let mut lc = LifecycleTracker::new(2);
        lc.transition(t(1), 0, PoweringOn).unwrap();
        assert!(lc
            .transition(t(2), 0, Failed(FailReason::Unresponsive))
            .is_some());
        assert!(lc.transition(t(3), 0, PoweringOn).is_some(), "repairable");
        lc.transition(t(1), 1, Cloning).unwrap();
        assert!(lc
            .transition(t(2), 1, Failed(FailReason::Unresponsive))
            .is_some());
        // but never from Up: a running node that stops answering goes
        // through the power machine, not straight to Failed
        lc.transition(t(4), 0, Bios).unwrap();
        lc.transition(t(5), 0, Up).unwrap();
        assert!(lc
            .transition(t(6), 0, Failed(FailReason::Unresponsive))
            .is_none());
    }

    #[test]
    fn force_adopts_running_fleets() {
        let mut lc = LifecycleTracker::new(3);
        for n in 0..3 {
            assert!(
                lc.force(t(0), n, Up).is_some(),
                "Off -> Up illegal but forced"
            );
        }
        assert!(
            lc.force(t(0), 0, Up).is_none(),
            "forcing a no-op is a no-op"
        );
        assert_eq!(lc.up_since(1), Some(t(0)));
    }
}
