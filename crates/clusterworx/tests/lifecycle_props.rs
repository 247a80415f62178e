//! Property tests on the lifecycle state machine: the transition table
//! rejects every illegal edge, the tracker never corrupts state when it
//! refuses one, and quarantine is entered and left only through the
//! edges the flap-detection design promises.

use clusterworx::lifecycle::{legal_transition, LifecycleTracker};
use clusterworx::{FailReason, LifecycleState};
use cwx_util::time::{SimDuration, SimTime};
use proptest::prelude::*;

use LifecycleState::*;

/// Every inhabitant of the state space, `Failed` reasons included.
const ALL_STATES: [LifecycleState; 11] = [
    Off,
    PoweringOn,
    Bios,
    Cloning,
    Up,
    Draining,
    Halted,
    Quarantined,
    Failed(FailReason::MemoryCheck),
    Failed(FailReason::Burned),
    Failed(FailReason::Unresponsive),
];

// The vendored proptest has no select/map combinators: draw indices
// into ALL_STATES instead.
fn state(i: usize) -> LifecycleState {
    ALL_STATES[i % ALL_STATES.len()]
}

/// Force a fresh one-node tracker into `state` (legality aside).
fn tracker_in(state: LifecycleState) -> LifecycleTracker {
    let mut t = LifecycleTracker::new(1);
    t.force(SimTime::ZERO, 0, state);
    assert_eq!(t.state(0), state);
    t
}

/// Exhaustive, not sampled: the tracker agrees with the table on every
/// one of the 11 × 11 edges — refusals leave state and its entry time
/// untouched, and return no transition to record.
#[test]
fn tracker_agrees_with_the_table_on_every_edge() {
    for &from in &ALL_STATES {
        for &to in &ALL_STATES {
            let mut t = tracker_in(from);
            let now = SimTime::ZERO + SimDuration::from_secs(1);
            let got = t.transition(now, 0, to);
            if legal_transition(from, to) {
                let tr = got.unwrap_or_else(|| panic!("legal {from:?} -> {to:?} refused"));
                assert_eq!((tr.time, tr.node, tr.from, tr.to), (now, 0, from, to));
                assert_eq!(t.state(0), to);
                assert_eq!(t.since(0), now);
            } else {
                assert!(got.is_none(), "illegal {from:?} -> {to:?} accepted");
                assert_eq!(t.state(0), from, "refusal must not move the node");
                assert_eq!(t.since(0), SimTime::ZERO, "refusal must not restamp");
            }
        }
    }
}

/// The quarantine promise, restated independently of the table: a node
/// enters `Quarantined` only from a plain power/failure state — never
/// mid-drain, mid-clone, or when already quarantined — and leaves only
/// through an explicit release (power-on) or park (off). The single
/// exception is hardware truth outranking the machine: a CPU can burn
/// in any state, quarantine included.
#[test]
fn quarantine_entry_and_exit_edges_match_the_design() {
    for &s in &ALL_STATES {
        let may_enter = matches!(s, Off | PoweringOn | Bios | Up | Halted | Failed(_));
        assert_eq!(
            legal_transition(s, Quarantined),
            may_enter,
            "entry from {s:?}"
        );
        let may_exit = matches!(s, Off | PoweringOn | Failed(FailReason::Burned));
        assert_eq!(legal_transition(Quarantined, s), may_exit, "exit to {s:?}");
    }
}

proptest! {
    /// Self-loops are caller bugs: never a legal transition, from any
    /// state.
    #[test]
    fn self_loops_are_always_rejected(i in 0usize..11) {
        let s = state(i);
        prop_assert!(!legal_transition(s, s));
        let mut t = tracker_in(s);
        prop_assert!(t.transition(SimTime::ZERO + SimDuration::from_secs(1), 0, s).is_none());
        prop_assert_eq!(t.state(0), s);
    }

    /// A random walk of transition *requests* yields transitions whose
    /// every edge is legal and whose edges chain (each `from` is the
    /// previous `to`), no matter how many requests were refused along
    /// the way.
    #[test]
    fn random_request_walks_log_only_legal_chained_edges(
        targets in proptest::collection::vec(0usize..11, 1..80)
    ) {
        let mut t = LifecycleTracker::new(1);
        let mut now = SimTime::ZERO;
        let mut walk = Vec::new();
        for &ti in &targets {
            let to = state(ti);
            now += SimDuration::from_secs(1);
            let before = t.state(0);
            match t.transition(now, 0, to) {
                Some(tr) => {
                    prop_assert!(legal_transition(tr.from, tr.to));
                    prop_assert_eq!(tr.from, before);
                    prop_assert_eq!(t.state(0), to);
                    walk.push(tr);
                }
                None => prop_assert_eq!(t.state(0), before, "refusal moved the node"),
            }
        }
        let mut prev = Off; // nodes are born Off
        for tr in &walk {
            prop_assert!(legal_transition(tr.from, tr.to), "logged illegal edge {tr:?}");
            prop_assert_eq!(tr.from, prev, "log does not chain at {tr:?}");
            prev = tr.to;
        }
        prop_assert_eq!(t.state(0), prev);
    }

    /// Quarantine inside random walks: whenever the walk manages to
    /// enter or leave `Quarantined`, the edge it took is one of the
    /// design's — entries from power/failure states, exits to
    /// `Off`/`PoweringOn` only.
    #[test]
    fn walks_cross_quarantine_only_on_design_edges(
        targets in proptest::collection::vec(0usize..11, 1..120)
    ) {
        let mut t = LifecycleTracker::new(1);
        let mut now = SimTime::ZERO;
        let mut walk = Vec::new();
        for &ti in &targets {
            now += SimDuration::from_secs(1);
            walk.extend(t.transition(now, 0, state(ti)));
        }
        for tr in &walk {
            if tr.to == Quarantined {
                prop_assert!(
                    matches!(tr.from, Off | PoweringOn | Bios | Up | Halted | Failed(_)),
                    "bad quarantine entry {tr:?}"
                );
            }
            if tr.from == Quarantined {
                prop_assert!(
                    matches!(tr.to, Off | PoweringOn | Failed(FailReason::Burned)),
                    "bad quarantine exit {tr:?}"
                );
            }
        }
    }
}
