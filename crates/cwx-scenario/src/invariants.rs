//! Runtime invariant checking over a running cluster simulation.
//!
//! The checker watches a campaign from the outside: it reads the
//! control plane's lifecycle tracker and audit trail, the server's
//! liveness table and the simulated hardware truth, and records a
//! [`Violation`] whenever the system breaks one of its own promises —
//! regardless of how much chaos the campaign is injecting.

use clusterworx::lifecycle::{legal_transition, LifecycleState};
use clusterworx::{AuditEntry, AuditRecord, World};
use cwx_util::time::SimTime;

/// Tunables for the runtime checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantPolicy {
    /// Period of the runtime scan.
    pub check_every_secs: f64,
    /// How long a node may sit in a transient lifecycle state
    /// (`PoweringOn`/`Bios`/`Cloning`/`Draining`) before it counts as
    /// stuck. Must comfortably exceed the boot watchdog's full retry
    /// budget, or healthy recovery reads as a hang.
    pub transient_deadline_secs: f64,
    /// Staleness bound (seconds) for "the engine is eventually
    /// consistent": at the final check every running node's last report
    /// must be at most this old.
    pub freshness_secs: f64,
}

impl Default for InvariantPolicy {
    fn default() -> Self {
        InvariantPolicy {
            check_every_secs: 5.0,
            // default watchdog: 5 retries x 300 s, plus boot time slack
            transient_deadline_secs: 2400.0,
            freshness_secs: 60.0,
        }
    }
}

/// Stable names of every invariant the checker can report, in the
/// order JUnit artifacts list them. Each [`Violation::invariant`] is
/// one of these.
pub(crate) const INVARIANT_NAMES: [&str; 6] = [
    "illegal-transition",
    "command-accounting",
    "stuck-transient",
    "hw-lifecycle-divergence",
    "stale-engine-view",
    "store-unreadable",
];

/// One broken promise.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulation time of the observation, seconds.
    pub at_secs: f64,
    /// Which invariant (stable short name).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:10.1}s] {}: {}",
            self.at_secs, self.invariant, self.detail
        )
    }
}

/// The run-long invariant checker.
#[derive(Debug)]
pub(crate) struct InvariantChecker {
    policy: InvariantPolicy,
    violations: Vec<Violation>,
    /// Nodes already reported stuck (one violation per incident).
    stuck_reported: Vec<bool>,
}

impl InvariantChecker {
    /// A checker for a fleet of `n_nodes`.
    pub fn new(n_nodes: u32, policy: InvariantPolicy) -> InvariantChecker {
        InvariantChecker {
            policy,
            violations: Vec::new(),
            stuck_reported: vec![false; n_nodes as usize],
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn report(&mut self, now: SimTime, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            at_secs: now.as_secs_f64(),
            invariant,
            detail,
        });
    }

    /// Runtime scan: no node stuck in a transient lifecycle state past
    /// the deadline. Ran periodically during the campaign.
    pub fn scan(&mut self, now: SimTime, w: &World) {
        let lc = w.control.lifecycle();
        for node in 0..w.nodes.len() as u32 {
            let state = lc.state(node);
            let transient = matches!(
                state,
                LifecycleState::PoweringOn
                    | LifecycleState::Bios
                    | LifecycleState::Cloning
                    | LifecycleState::Draining
            );
            if !transient {
                self.stuck_reported[node as usize] = false;
                continue;
            }
            let held = now.since(lc.since(node)).as_secs_f64();
            if held > self.policy.transient_deadline_secs && !self.stuck_reported[node as usize] {
                self.stuck_reported[node as usize] = true;
                self.report(
                    now,
                    "stuck-transient",
                    format!("node {node} has sat in {state:?} for {held:.0}s"),
                );
            }
        }
    }

    /// The history store answers queries (ran right after every
    /// destructive fault: a kill must never take the archive with it).
    pub fn check_store_readable(&mut self, now: SimTime, w: &World) {
        // any node that has been up long enough to report will do; the
        // point is that the read path works, not which sample comes back
        let readable =
            (0..w.nodes.len() as u32).any(|n| w.server.history().latest(n, "load.one").is_some());
        if !readable {
            self.report(
                now,
                "store-unreadable",
                "history store returned nothing for any node after a kill".into(),
            );
        }
    }

    /// Every audited lifecycle transition crosses a legal edge. The
    /// tracker enforces this for `transition()`, but forced transitions
    /// (hardware events, provisioning claims) bypass the table — this
    /// re-validates every `Transition` row of the audit after the fact.
    pub fn check_transition_legality(&mut self, w: &World) {
        for t in w.control.transitions() {
            if !legal_transition(t.from, t.to) {
                self.report(
                    t.time,
                    "illegal-transition",
                    format!("node {}: {:?} -> {:?}", t.node, t.from, t.to),
                );
            }
        }
    }

    /// No control-plane command silently dropped: completions never
    /// exceed issues, and every first issue is accounted for by a
    /// terminal audit record or a still-pending command.
    pub fn check_command_accounting(&mut self, now: SimTime, w: &World) {
        let audit: &[AuditRecord] = w.control.audit();
        let (mut issued, mut completed, mut failed, mut aborted) = (0u64, 0u64, 0u64, 0u64);
        for r in audit {
            match &r.entry {
                AuditEntry::CommandIssued { attempt: 1, .. } => issued += 1,
                AuditEntry::CommandCompleted { .. } => completed += 1,
                AuditEntry::CommandFailed { .. } => failed += 1,
                AuditEntry::CommandAborted { .. } => aborted += 1,
                _ => {}
            }
        }
        let outstanding = w.control.outstanding() as u64;
        if completed + failed > issued {
            self.report(
                now,
                "command-accounting",
                format!("{completed} completions + {failed} failures exceed {issued} issues"),
            );
        }
        // aborts also cover never-issued queued commands, so they may
        // overshoot; what they must never allow is a silent gap
        if issued > completed + failed + aborted + outstanding {
            self.report(
                now,
                "command-accounting",
                format!(
                    "{issued} issued but only {completed} completed + {failed} failed + \
                     {aborted} aborted + {outstanding} outstanding"
                ),
            );
        }
    }

    /// Eventual consistency after the faults heal: the control plane
    /// and the event engine agree with simulated hardware truth.
    ///
    /// Call once at the end of the settle window. `expect_up` excludes
    /// nodes a campaign legitimately leaves down (quarantined, failed,
    /// powered off by an action).
    pub fn check_convergence(&mut self, now: SimTime, w: &World) {
        let lc = w.control.lifecycle();
        for node in 0..w.nodes.len() as u32 {
            let hw_up = w.nodes[node as usize].hw.is_up();
            let state = lc.state(node);
            let lc_up = matches!(state, LifecycleState::Up | LifecycleState::Draining);
            if hw_up != lc_up {
                self.report(
                    now,
                    "hw-lifecycle-divergence",
                    format!(
                        "node {node}: hardware up={hw_up} but lifecycle says {state:?} \
                         after the settle window"
                    ),
                );
                continue;
            }
            if !hw_up {
                continue;
            }
            match w.server.node_status(node) {
                Some(s) if s.reachable => {
                    let age = now.since(s.last_report).as_secs_f64();
                    if age > self.policy.freshness_secs {
                        self.report(
                            now,
                            "stale-engine-view",
                            format!("node {node} is up but its last report is {age:.0}s old"),
                        );
                    }
                }
                _ => self.report(
                    now,
                    "stale-engine-view",
                    format!("node {node} is up but the server still sees it unreachable"),
                ),
            }
        }
    }
}
