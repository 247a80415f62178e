//! The command bus: every ICE Box action in the system flows through
//! here, in both the simulated world and the realtime deployment.
//!
//! [`ControlPlane`] owns the [`crate::lifecycle`] machine, a per-node
//! FIFO command queue with idempotent dedup, per-command retry with
//! exponential backoff against injected chassis command loss, SLURM
//! drain gating for power actions on allocated nodes, and an
//! append-only audit trail that subsumes the old `action_log` /
//! `plugin_log` vectors (both survive as projections).
//!
//! The plane is generic over [`CommandTransport`] (how a command
//! physically reaches a chassis) and [`DrainGate`] (whether a scheduler
//! must release the node first), so the deterministic simulation and
//! the threaded wall-clock deployment execute the identical state
//! machine — the acceptance test in `tests/control_plane.rs` compares
//! their transition traces record for record.

use std::collections::BTreeMap;

use cwx_events::Action;
use cwx_util::time::{SimDuration, SimTime};

use crate::lifecycle::{FailReason, LifecycleState, LifecycleTracker, Transition};

/// A chassis-level power command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerCmd {
    /// Close the outlet relay (sequenced energize).
    On,
    /// Open the outlet relay (immediate).
    Off,
}

/// What happened when a command was put on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IssueOutcome {
    /// The chassis applied it; `energize_at` is the sequenced close
    /// time for [`PowerCmd::On`] (`None` for cuts).
    Applied {
        /// When the outlet actually energizes (power-on only).
        energize_at: Option<SimTime>,
    },
    /// The chassis was already in the requested state.
    Noop,
    /// The command was lost in transit (the chassis never saw it).
    Lost,
    /// The chassis rejected it (no such port).
    Rejected,
}

/// How commands physically reach the chassis tier.
pub trait CommandTransport {
    /// Issue one command at `now`; the transport models loss itself.
    fn issue(&mut self, now: SimTime, node: u32, cmd: PowerCmd) -> IssueOutcome;
    /// Current relay state of a node's outlet (for no-op suppression).
    fn relay_on(&self, node: u32) -> bool;
}

/// Scheduler gating for power actions on allocated nodes (paper §6:
/// drain through SLURM before pulling power out from under a job).
pub trait DrainGate {
    /// Ask the scheduler to drain `node`. Returns `true` if the node is
    /// busy and a drain was started (the command must wait), `false` if
    /// the node is free to act on immediately.
    fn request_drain(&mut self, now: SimTime, node: u32) -> bool;
    /// Whether a previously requested drain has completed.
    fn is_drained(&self, node: u32) -> bool;
    /// Release the drain mark (the gated command finished or gave up).
    fn release(&mut self, node: u32);
}

/// A gate that never gates: for worlds without a scheduler attached.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoGate;

impl DrainGate for NoGate {
    fn request_drain(&mut self, _now: SimTime, _node: u32) -> bool {
        false
    }
    fn is_drained(&self, _node: u32) -> bool {
        true
    }
    fn release(&mut self, _node: u32) {}
}

/// Retry policy for lost chassis commands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Each further retry doubles the delay up to this cap.
    pub max_delay: SimDuration,
    /// Total issue attempts before the command is declared failed.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_millis(500),
            max_delay: SimDuration::from_secs(8),
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// Backoff after the `attempt`-th failed attempt (1-based):
    /// `base * 2^(attempt-1)`, capped at `max_delay`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(16);
        let nanos = self.base.as_nanos().saturating_mul(1u64 << shift);
        SimDuration::from_nanos(nanos.min(self.max_delay.as_nanos()))
    }
}

/// Why a submitted action was dropped instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReason {
    /// The node's relay is already open and the action is a no-op on a
    /// dark node (every variant: power, halt and plug-in scripts).
    PoweredOff,
    /// The identical action is already in flight on this node.
    InFlight,
    /// The node is quarantined after flap detection; no automatic
    /// action touches it until it is released.
    Quarantined,
}

/// Flap detection policy: a node that completes a boot (enters `Up`)
/// `threshold` times within `window` is cycling — power it off once and
/// park it in [`LifecycleState::Quarantined`] instead of letting the
/// event engine ride the boot loop forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapPolicy {
    /// Up-entries within the window that trip quarantine.
    pub threshold: u32,
    /// Sliding window over which Up-entries are counted.
    pub window: SimDuration,
    /// Automatic release delay; `None` means an administrator must
    /// release the node by hand.
    pub release_after: Option<SimDuration>,
}

impl Default for FlapPolicy {
    fn default() -> Self {
        FlapPolicy {
            threshold: 4,
            window: SimDuration::from_secs(900),
            release_after: None,
        }
    }
}

/// Boot watchdog policy: a node sitting in `PoweringOn`/`Bios` longer
/// than `deadline` gets a power-cycle retry (a chassis-controller
/// restart can eat a pending energize); after `max_retries` cycles it
/// is marked [`FailReason::Unresponsive`] instead of retrying forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootWatchdog {
    /// How long a boot may sit in a transient state.
    pub deadline: SimDuration,
    /// Power-cycle retries before giving up.
    pub max_retries: u32,
}

impl Default for BootWatchdog {
    fn default() -> Self {
        BootWatchdog {
            deadline: SimDuration::from_secs(300),
            max_retries: 5,
        }
    }
}

/// How long a SLURM drain may hold a power action on an allocated node
/// before the control plane forces it through anyway (the hardware is at
/// risk; the job is already lost either way).
const DRAIN_FORCE_AFTER: SimDuration = SimDuration::from_secs(30);

/// Where a command (or action) came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdSource {
    /// Fired by the event engine.
    Engine,
    /// An administrator/provisioning request (`power_on_node` etc.).
    Admin,
    /// The follow-up verdict of an action plug-in.
    FollowUp,
}

/// One record of the append-only audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// When.
    pub time: SimTime,
    /// The node concerned (`None` for deployment-level records).
    pub node: Option<u32>,
    /// What happened.
    pub entry: AuditEntry,
}

/// The audit trail's event vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEntry {
    /// An engine action was accepted for execution (the old
    /// `action_log` rows are exactly these records).
    ActionExecuted {
        /// The action.
        action: Action,
    },
    /// An engine action was dropped by a dedup rule.
    ActionSuppressed {
        /// The action.
        action: Action,
        /// Why.
        reason: SuppressReason,
    },
    /// An action plug-in ran (the old `plugin_log` rows).
    PluginRan {
        /// Plug-in name.
        name: String,
    },
    /// A chassis command went on the wire.
    CommandIssued {
        /// The command.
        cmd: PowerCmd,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The transport lost the command; a retry is scheduled.
    CommandLost {
        /// The command.
        cmd: PowerCmd,
        /// The attempt that was lost.
        attempt: u32,
    },
    /// The chassis confirmed the command.
    CommandCompleted {
        /// The command.
        cmd: PowerCmd,
        /// Attempts it took.
        attempts: u32,
        /// The chassis was already in the requested state.
        noop: bool,
    },
    /// Retries exhausted (or the chassis rejected the command): the
    /// command failed permanently. Nothing is dropped silently.
    CommandFailed {
        /// The command.
        cmd: PowerCmd,
        /// Attempts made.
        attempts: u32,
    },
    /// A chained command was abandoned because its predecessor failed.
    CommandAborted {
        /// The command.
        cmd: PowerCmd,
    },
    /// A power action is waiting on a scheduler drain.
    DrainRequested {
        /// When the gate is forced open regardless.
        force_at: SimTime,
    },
    /// The drain finished (or its deadline forced it).
    DrainComplete {
        /// `true` when the force-after deadline expired first.
        forced: bool,
    },
    /// A lifecycle transition: the only record of it
    /// ([`ControlPlane::transitions`] reads them back).
    Transition {
        /// State left.
        from: LifecycleState,
        /// State entered.
        to: LifecycleState,
    },
    /// Flap detection tripped: the node entered quarantine.
    Quarantined {
        /// Up-entries inside the window that tripped the detector.
        flaps: u32,
    },
    /// The node left quarantine.
    QuarantineReleased {
        /// `true` for an administrator release, `false` for the timer.
        manual: bool,
    },
    /// An admin power-on was refused because the node is quarantined.
    QuarantineHeld {
        /// The refused command.
        cmd: PowerCmd,
    },
    /// The boot watchdog expired: the node sat in `PoweringOn`/`Bios`
    /// past its deadline and gets a power-cycle retry.
    BootTimeout {
        /// 1-based retry number.
        attempt: u32,
    },
    /// A recoverable I/O error on the serving path (realtime accept,
    /// store open, thread join) that was logged instead of panicking.
    IoError {
        /// What failed.
        what: String,
    },
    /// A hand-over took an ingest lane's inbox to its cap
    /// ([`crate::ingest::LANE_CAP_BYTES`] of frames): connections feeding
    /// the lane were paused until its flush worker takes what
    /// accumulated (explicit backpressure, never an unbounded buffer or
    /// a stalled thread).
    IngestBackpressure {
        /// The backpressured ingest lane / store shard.
        lane: usize,
        /// Frame bytes (length prefixes included) the inbox held when
        /// the cap tripped: at least the cap, at most the cap plus one
        /// connection's read.
        bytes: usize,
    },
    /// An ingest connection was closed by policy rather than by its
    /// peer (slow consumer, oversized frame, garbage flood, still open
    /// at the drain deadline). The
    /// record's `node` carries the agent when it had identified itself.
    ConnectionEvicted {
        /// Why the connection was evicted.
        reason: String,
    },
    /// A dashboard query client or query request was shed — the query
    /// executor's admission queue was full, or accepting the client
    /// would blow the ingest plane's fd budget. Always reported with a
    /// row (mirrors [`AuditEntry::ConnectionEvicted`]); never a silent
    /// clamp.
    QueryShed {
        /// Why the query (or its client) was shed.
        reason: String,
    },
}

/// Physical side-effects the driver (sim or realtime) must apply.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// The relay state of `node` changed.
    PowerApplied {
        /// The node.
        node: u32,
        /// New relay state.
        on: bool,
        /// Sequenced energize time (power-on only).
        energize_at: Option<SimTime>,
    },
    /// Halt the node's OS (relay stays closed).
    HaltOs {
        /// The node.
        node: u32,
    },
    /// Run the named action plug-in against `node`.
    RunPlugin {
        /// The node.
        node: u32,
        /// Plug-in name.
        name: String,
    },
}

/// Counters over the bus (experiment E13 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Engine actions accepted.
    pub actions_executed: u64,
    /// Engine actions dropped by dedup.
    pub actions_suppressed: u64,
    /// Commands confirmed by the chassis.
    pub commands_completed: u64,
    /// Retry attempts after transport loss.
    pub retries: u64,
    /// Commands that exhausted their retries.
    pub commands_failed: u64,
    /// Drains forced open by their deadline.
    pub drains_forced: u64,
    /// Nodes parked by flap detection.
    pub quarantines: u64,
    /// Boot-watchdog power-cycle retries.
    pub boot_timeouts: u64,
}

#[derive(Debug)]
struct CmdState {
    id: u64,
    node: u32,
    cmd: PowerCmd,
    /// the engine action this command implements (dedup key), if any
    action: Option<Action>,
    /// command that must complete before this one may issue
    after: Option<u64>,
    /// extra delay once `after` completes (the reboot off→on pause)
    delay_after: SimDuration,
    /// earliest issue time (absolute); meaningless until `ready`
    not_before: SimTime,
    /// satisfied once `after` is `None` or has completed
    ready: bool,
    /// `Some(force_at)` while waiting on a scheduler drain
    gated_until: Option<SimTime>,
    /// this command requested the drain and must release it
    holds_drain: bool,
    attempts: u32,
}

/// The control plane: lifecycle machine + command bus + audit trail.
#[derive(Debug)]
pub struct ControlPlane {
    lifecycle: LifecycleTracker,
    cmds: Vec<CmdState>,
    next_cmd_id: u64,
    audit: Vec<AuditRecord>,
    next_seq: u64,
    policy: RetryPolicy,
    /// pause between the off and on halves of a reboot
    reboot_delay: SimDuration,
    stats: ControlStats,
    flap_policy: FlapPolicy,
    watchdog: BootWatchdog,
    /// recent Up-entry times per node, pruned to the flap window
    up_history: Vec<Vec<SimTime>>,
    /// per-node watchdog retries since the last successful boot
    boot_retries: Vec<u32>,
    /// nodes in a transient boot state → watchdog deadline
    boot_watch: BTreeMap<u32, SimTime>,
    /// quarantined nodes with a timed release pending → release time
    release_at: BTreeMap<u32, SimTime>,
}

impl ControlPlane {
    /// A plane over `n` nodes, all off.
    pub fn new(n: usize) -> Self {
        ControlPlane {
            lifecycle: LifecycleTracker::new(n),
            cmds: Vec::new(),
            next_cmd_id: 1,
            audit: Vec::new(),
            next_seq: 0,
            policy: RetryPolicy::default(),
            reboot_delay: SimDuration::from_secs(2),
            stats: ControlStats::default(),
            flap_policy: FlapPolicy::default(),
            watchdog: BootWatchdog::default(),
            up_history: vec![Vec::new(); n],
            boot_retries: vec![0; n],
            boot_watch: BTreeMap::new(),
            release_at: BTreeMap::new(),
        }
    }

    /// Override the retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Override the reboot off→on pause.
    pub fn set_reboot_delay(&mut self, d: SimDuration) {
        self.reboot_delay = d;
    }

    /// Override the flap detection policy.
    pub fn set_flap_policy(&mut self, p: FlapPolicy) {
        self.flap_policy = p;
    }

    /// Override the boot watchdog.
    pub fn set_boot_watchdog(&mut self, w: BootWatchdog) {
        self.watchdog = w;
    }

    /// Is `node` currently quarantined?
    pub fn quarantined(&self, node: u32) -> bool {
        self.lifecycle.state(node) == LifecycleState::Quarantined
    }

    /// The lifecycle tracker (read access for dashboards and drivers).
    pub fn lifecycle(&self) -> &LifecycleTracker {
        &self.lifecycle
    }

    /// Counters.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// The full audit trail, in order.
    pub fn audit(&self) -> &[AuditRecord] {
        &self.audit
    }

    /// Commands still pending (queued, gated or awaiting retry).
    pub fn outstanding(&self) -> usize {
        self.cmds.len()
    }

    /// Grow to cover a hot-added node.
    pub fn add_node(&mut self) {
        self.lifecycle.add_node();
        self.up_history.push(Vec::new());
        self.boot_retries.push(0);
    }

    fn record(&mut self, time: SimTime, node: Option<u32>, entry: AuditEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.audit.push(AuditRecord {
            seq,
            time,
            node,
            entry,
        });
    }

    fn note_transition(&mut self, t: Option<Transition>) {
        if let Some(t) = t {
            // every transition funnels through here, so this is the one
            // place the boot watchdog is armed and disarmed
            match t.to {
                LifecycleState::PoweringOn | LifecycleState::Bios => {
                    self.boot_watch
                        .insert(t.node, t.time + self.watchdog.deadline);
                }
                _ => {
                    self.boot_watch.remove(&t.node);
                }
            }
            self.record(
                t.time,
                Some(t.node),
                AuditEntry::Transition {
                    from: t.from,
                    to: t.to,
                },
            );
        }
    }

    /// Log a recoverable I/O error into the audit trail.
    pub fn audit_io_error(&mut self, now: SimTime, node: Option<u32>, what: impl Into<String>) {
        self.record(now, node, AuditEntry::IoError { what: what.into() });
    }

    /// Log an ingest-lane backpressure trip (the lane's connections are
    /// being paused until its flush worker empties the inbox).
    pub fn audit_ingest_backpressure(&mut self, now: SimTime, lane: usize, bytes: usize) {
        self.record(now, None, AuditEntry::IngestBackpressure { lane, bytes });
    }

    /// Log a policy eviction of an ingest connection.
    pub fn audit_connection_evicted(
        &mut self,
        now: SimTime,
        node: Option<u32>,
        reason: impl Into<String>,
    ) {
        self.record(
            now,
            node,
            AuditEntry::ConnectionEvicted {
                reason: reason.into(),
            },
        );
    }

    /// Log a shed query client or query request (executor overload or
    /// fd-budget exhaustion on the ingest plane).
    pub fn audit_query_shed(&mut self, now: SimTime, reason: impl Into<String>) {
        self.record(
            now,
            None,
            AuditEntry::QueryShed {
                reason: reason.into(),
            },
        );
    }

    // ------------------------------------------------------------------
    // projections of the audit trail (the old World fields)

    /// Executed engine actions, in order — the old `action_log`.
    pub fn action_log(&self) -> Vec<crate::world::ActionLog> {
        self.audit
            .iter()
            .filter_map(|r| match &r.entry {
                AuditEntry::ActionExecuted { action } => Some(crate::world::ActionLog {
                    time: r.time,
                    node: r.node.expect("actions always target a node"),
                    action: action.clone(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Lifecycle transitions, in order, projected from the audit.
    pub fn transitions(&self) -> Vec<Transition> {
        self.audit
            .iter()
            .filter_map(|r| match r.entry {
                AuditEntry::Transition { from, to } => Some(Transition {
                    time: r.time,
                    node: r.node.expect("transitions always name a node"),
                    from,
                    to,
                }),
                _ => None,
            })
            .collect()
    }

    /// Plug-in executions, in order — the old `plugin_log`.
    pub fn plugin_log(&self) -> Vec<(SimTime, String, u32)> {
        self.audit
            .iter()
            .filter_map(|r| match &r.entry {
                AuditEntry::PluginRan { name } => {
                    Some((r.time, name.clone(), r.node.expect("plugins target a node")))
                }
                _ => None,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // submission

    /// Is `action` already in flight (queued or retrying) on `node`?
    fn action_in_flight(&self, node: u32, action: &Action) -> bool {
        self.cmds
            .iter()
            .any(|c| c.node == node && c.action.as_ref() == Some(action))
    }

    /// Submit an engine-fired action against `node`. Applies the dedup
    /// rules (idempotent for **every** [`Action`] variant), records the
    /// audit row, and enqueues the implementing command chain. Returns
    /// the immediate effects (halt/plug-in run happen at submit time).
    pub fn submit_action(
        &mut self,
        now: SimTime,
        node: u32,
        action: &Action,
        relay_on: bool,
        gate: &mut dyn DrainGate,
    ) -> Vec<Effect> {
        if *action == Action::None {
            return Vec::new();
        }
        // rule 0: quarantined nodes are off-limits to the engine — the
        // whole point of quarantine is that the boot loop's events stop
        // producing actions
        if self.quarantined(node) {
            self.stats.actions_suppressed += 1;
            self.record(
                now,
                Some(node),
                AuditEntry::ActionSuppressed {
                    action: action.clone(),
                    reason: SuppressReason::Quarantined,
                },
            );
            return Vec::new();
        }
        // rule 1: every action is a no-op against a dark node — the old
        // world only dropped PowerDown/Reboot here; Halt and Plugin now
        // get the same treatment (a script against a dead node is an
        // in-flight report re-firing a stale event)
        if !relay_on {
            self.stats.actions_suppressed += 1;
            self.record(
                now,
                Some(node),
                AuditEntry::ActionSuppressed {
                    action: action.clone(),
                    reason: SuppressReason::PoweredOff,
                },
            );
            return Vec::new();
        }
        // rule 2: the identical action already in flight on the node
        // (e.g. the overtemp rule re-firing a PowerDown while the first
        // one retries against a lossy chassis link)
        if self.action_in_flight(node, action) {
            self.stats.actions_suppressed += 1;
            self.record(
                now,
                Some(node),
                AuditEntry::ActionSuppressed {
                    action: action.clone(),
                    reason: SuppressReason::InFlight,
                },
            );
            return Vec::new();
        }
        self.stats.actions_executed += 1;
        self.record(
            now,
            Some(node),
            AuditEntry::ActionExecuted {
                action: action.clone(),
            },
        );
        match action {
            Action::PowerDown => {
                self.enqueue_power_off(now, node, Some(action.clone()), gate);
                Vec::new()
            }
            Action::Reboot => {
                let off = self.enqueue_power_off(now, node, Some(action.clone()), gate);
                self.enqueue(CmdState {
                    id: 0, // assigned by enqueue
                    node,
                    cmd: PowerCmd::On,
                    action: Some(action.clone()),
                    after: Some(off),
                    delay_after: self.reboot_delay,
                    not_before: now,
                    ready: false,
                    gated_until: None,
                    holds_drain: false,
                    attempts: 0,
                });
                Vec::new()
            }
            Action::Halt => {
                let t = self.lifecycle.transition(now, node, LifecycleState::Halted);
                self.note_transition(t);
                vec![Effect::HaltOs { node }]
            }
            Action::Plugin(name) => vec![Effect::RunPlugin {
                node,
                name: name.clone(),
            }],
            Action::None => unreachable!("filtered above"),
        }
    }

    /// Record that a plug-in actually ran (the driver owns the registry
    /// and calls this after invoking it).
    pub fn note_plugin_ran(&mut self, now: SimTime, node: u32, name: &str) {
        self.record(
            now,
            Some(node),
            AuditEntry::PluginRan {
                name: name.to_string(),
            },
        );
    }

    /// Submit a plug-in verdict's follow-up (power down / reboot after
    /// the site script ran). Ungated: the script is presumed to have
    /// done its own draining.
    pub fn submit_followup_power(&mut self, now: SimTime, node: u32, reboot: bool) {
        let off = self.enqueue(CmdState {
            id: 0,
            node,
            cmd: PowerCmd::Off,
            action: None,
            after: None,
            delay_after: SimDuration::ZERO,
            not_before: now,
            ready: true,
            gated_until: None,
            holds_drain: false,
            attempts: 0,
        });
        if reboot {
            self.enqueue(CmdState {
                id: 0,
                node,
                cmd: PowerCmd::On,
                action: None,
                after: Some(off),
                delay_after: self.reboot_delay,
                not_before: now,
                ready: false,
                gated_until: None,
                holds_drain: false,
                attempts: 0,
            });
        }
    }

    /// An administrator/provisioning power request. Ungated — the
    /// operator outranks the scheduler (and provisioning coordinates
    /// with it out of band).
    pub fn request_power(&mut self, now: SimTime, node: u32, cmd: PowerCmd) {
        // a quarantined node cannot be powered back on by a plain admin
        // request; it must go through release_quarantine (power-off is
        // allowed — it only deepens the park)
        if cmd == PowerCmd::On && self.quarantined(node) {
            self.record(now, Some(node), AuditEntry::QuarantineHeld { cmd });
            return;
        }
        self.enqueue(CmdState {
            id: 0,
            node,
            cmd,
            action: None,
            after: None,
            delay_after: SimDuration::ZERO,
            not_before: now,
            ready: true,
            gated_until: None,
            holds_drain: false,
            attempts: 0,
        });
    }

    fn enqueue_power_off(
        &mut self,
        now: SimTime,
        node: u32,
        action: Option<Action>,
        gate: &mut dyn DrainGate,
    ) -> u64 {
        let gated = gate.request_drain(now, node);
        let mut cmd = CmdState {
            id: 0,
            node,
            cmd: PowerCmd::Off,
            action,
            after: None,
            delay_after: SimDuration::ZERO,
            not_before: now,
            ready: true,
            gated_until: None,
            holds_drain: false,
            attempts: 0,
        };
        if gated {
            let force_at = now + DRAIN_FORCE_AFTER;
            cmd.gated_until = Some(force_at);
            cmd.holds_drain = true;
            let t = self
                .lifecycle
                .transition(now, node, LifecycleState::Draining);
            self.note_transition(t);
            self.record(now, Some(node), AuditEntry::DrainRequested { force_at });
        }
        self.enqueue(cmd)
    }

    fn enqueue(&mut self, mut cmd: CmdState) -> u64 {
        let id = self.next_cmd_id;
        self.next_cmd_id += 1;
        cmd.id = id;
        self.cmds.push(cmd);
        id
    }

    // ------------------------------------------------------------------
    // driving

    /// The next instant the bus needs to run again on its own (drain
    /// deadlines, retry backoffs, reboot pauses). `None` when nothing
    /// is time-pending.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        // Only the FIFO head of each node's queue can issue, so only its
        // deadline counts: a ready command parked behind a retrying
        // predecessor must not pull the wake time into the past (that
        // would re-arm a same-instant wake forever).
        let mut seen: Vec<u32> = Vec::new();
        let cmd_wake = self
            .cmds
            .iter()
            .filter_map(|c| {
                if seen.contains(&c.node) {
                    return None;
                }
                seen.push(c.node);
                match c.gated_until {
                    Some(force_at) => Some(force_at),
                    None if c.ready => Some(c.not_before),
                    None => None,
                }
            })
            .min();
        let watch = self.boot_watch.values().min().copied();
        let release = self.release_at.values().min().copied();
        [cmd_wake, watch, release].into_iter().flatten().min()
    }

    /// One bus pass at `now`: promote completed drains, issue every
    /// ready command through `transport`, schedule retries for lost
    /// ones, fail out exhausted ones. Returns the physical effects for
    /// the driver to apply. Call again after applying effects until it
    /// returns empty (chained commands may become ready mid-pass).
    pub fn step(
        &mut self,
        now: SimTime,
        transport: &mut dyn CommandTransport,
        gate: &mut dyn DrainGate,
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        // timed quarantine releases due at `now`
        let due: Vec<u32> = self
            .release_at
            .iter()
            .filter(|&(_, &at)| now >= at)
            .map(|(&n, _)| n)
            .collect();
        for node in due {
            if self.quarantined(node) {
                self.release_node(now, node, false, true);
            } else {
                self.release_at.remove(&node);
            }
        }
        // boot watchdog: nodes stuck in PoweringOn/Bios past deadline
        let expired: Vec<u32> = self
            .boot_watch
            .iter()
            .filter(|&(_, &at)| now >= at)
            .map(|(&n, _)| n)
            .collect();
        for node in expired {
            if !matches!(
                self.lifecycle.state(node),
                LifecycleState::PoweringOn | LifecycleState::Bios
            ) {
                self.boot_watch.remove(&node);
                continue;
            }
            // a pending command chain is already working this node —
            // give it a fresh deadline instead of racing it
            if self.cmds.iter().any(|c| c.node == node) {
                self.boot_watch.insert(node, now + self.watchdog.deadline);
                continue;
            }
            let attempt = self.boot_retries[node as usize] + 1;
            if attempt > self.watchdog.max_retries {
                // retries exhausted: the node never comes up on its own
                let t = self.lifecycle.transition(
                    now,
                    node,
                    LifecycleState::Failed(FailReason::Unresponsive),
                );
                self.note_transition(t);
            } else {
                self.boot_retries[node as usize] = attempt;
                self.stats.boot_timeouts += 1;
                self.record(now, Some(node), AuditEntry::BootTimeout { attempt });
                // power-cycle: the Off clears the watch, the chained On
                // re-arms it when it lands
                self.submit_followup_power(now, node, true);
            }
        }
        // promote gated commands whose drain completed (or was forced)
        for i in 0..self.cmds.len() {
            let Some(force_at) = self.cmds[i].gated_until else {
                continue;
            };
            let node = self.cmds[i].node;
            let drained = gate.is_drained(node);
            let forced = now >= force_at;
            if drained || forced {
                self.cmds[i].gated_until = None;
                self.cmds[i].not_before = now;
                if forced && !drained {
                    self.stats.drains_forced += 1;
                }
                self.record(
                    now,
                    Some(node),
                    AuditEntry::DrainComplete {
                        forced: forced && !drained,
                    },
                );
            }
        }
        // per-node FIFO: a command only issues when no earlier command
        // for the same node is still pending ("serializes commands to
        // the ICE Box"). A forward scan with in-place removal keeps the
        // order deterministic and lets a chain complete in one pass.
        let mut i = 0;
        let mut blocked: Vec<u32> = Vec::new();
        while i < self.cmds.len() {
            let node = self.cmds[i].node;
            if blocked.contains(&node)
                || self.cmds[i].gated_until.is_some()
                || !self.cmds[i].ready
                || now < self.cmds[i].not_before
            {
                blocked.push(node);
                i += 1;
                continue;
            }
            let cmd = self.cmds[i].cmd;
            // a power-on that reaches the head of a quarantined node's
            // queue (a reboot chain whose Off half landed after the trip)
            // is aborted, not issued — quarantine means *stay dark*
            if cmd == PowerCmd::On && self.quarantined(node) {
                let id = self.cmds[i].id;
                self.stats.commands_failed += 1;
                self.record(now, Some(node), AuditEntry::CommandAborted { cmd });
                self.cmds.remove(i);
                let mut aborted = Vec::new();
                self.cmds.retain(|c| {
                    if c.after == Some(id) {
                        aborted.push((c.node, c.cmd));
                        false
                    } else {
                        true
                    }
                });
                for (n, c) in aborted {
                    self.stats.commands_failed += 1;
                    self.record(now, Some(n), AuditEntry::CommandAborted { cmd: c });
                }
                continue;
            }
            let attempt = self.cmds[i].attempts + 1;
            self.record(now, Some(node), AuditEntry::CommandIssued { cmd, attempt });
            match transport.issue(now, node, cmd) {
                IssueOutcome::Lost => {
                    self.cmds[i].attempts = attempt;
                    self.record(now, Some(node), AuditEntry::CommandLost { cmd, attempt });
                    if attempt >= self.policy.max_attempts {
                        self.fail_command(now, i, gate);
                        // removal shifts the vec; re-examine index i
                        continue;
                    }
                    self.stats.retries += 1;
                    self.cmds[i].not_before = now + self.policy.backoff(attempt);
                    blocked.push(node);
                    i += 1;
                }
                IssueOutcome::Rejected => {
                    self.cmds[i].attempts = attempt;
                    self.fail_command(now, i, gate);
                    continue;
                }
                IssueOutcome::Noop => {
                    self.complete_command(now, i, attempt, true, gate);
                    continue;
                }
                IssueOutcome::Applied { energize_at } => {
                    self.complete_command(now, i, attempt, false, gate);
                    let t = match cmd {
                        // the park power-off of a quarantined node must
                        // not ride the Quarantined→Off release edge
                        PowerCmd::Off if self.quarantined(node) => None,
                        PowerCmd::Off => self.lifecycle.transition(now, node, LifecycleState::Off),
                        PowerCmd::On => {
                            self.lifecycle
                                .transition(now, node, LifecycleState::PoweringOn)
                        }
                    };
                    self.note_transition(t);
                    effects.push(Effect::PowerApplied {
                        node,
                        on: cmd == PowerCmd::On,
                        energize_at,
                    });
                    continue;
                }
            }
        }
        effects
    }

    /// Complete `self.cmds[idx]`: audit, release its drain, mark chained
    /// successors ready, and remove it from the queue.
    fn complete_command(
        &mut self,
        now: SimTime,
        idx: usize,
        attempts: u32,
        noop: bool,
        gate: &mut dyn DrainGate,
    ) {
        let id = self.cmds[idx].id;
        let node = self.cmds[idx].node;
        let cmd = self.cmds[idx].cmd;
        if self.cmds[idx].holds_drain {
            gate.release(node);
        }
        self.stats.commands_completed += 1;
        self.record(
            now,
            Some(node),
            AuditEntry::CommandCompleted {
                cmd,
                attempts,
                noop,
            },
        );
        self.cmds.remove(idx);
        for c in &mut self.cmds {
            if c.after == Some(id) {
                c.after = None;
                c.ready = true;
                c.not_before = now + c.delay_after;
            }
        }
    }

    /// Fail `self.cmds[idx]` permanently: audit, release its drain (the
    /// node stays up — `Draining → Up`), and abort chained successors.
    fn fail_command(&mut self, now: SimTime, idx: usize, gate: &mut dyn DrainGate) {
        let id = self.cmds[idx].id;
        let node = self.cmds[idx].node;
        let cmd = self.cmds[idx].cmd;
        let attempts = self.cmds[idx].attempts;
        if self.cmds[idx].holds_drain {
            gate.release(node);
            let t = self.lifecycle.transition(now, node, LifecycleState::Up);
            self.note_transition(t);
        }
        self.stats.commands_failed += 1;
        self.record(now, Some(node), AuditEntry::CommandFailed { cmd, attempts });
        self.cmds.remove(idx);
        // abort the rest of the chain — audited, never silently dropped
        let mut aborted = Vec::new();
        self.cmds.retain(|c| {
            if c.after == Some(id) {
                aborted.push((c.node, c.cmd));
                false
            } else {
                true
            }
        });
        for (n, c) in aborted {
            self.stats.commands_failed += 1;
            self.record(now, Some(n), AuditEntry::CommandAborted { cmd: c });
        }
    }

    // ------------------------------------------------------------------
    // driver notifications (physical reality flowing back in)

    /// The outlet energized and firmware took over.
    pub fn note_energized(&mut self, now: SimTime, node: u32) {
        let t = self.lifecycle.transition(now, node, LifecycleState::Bios);
        self.note_transition(t);
    }

    /// The OS finished booting. Feeds the flap detector: the Nth Up
    /// entry inside the flap window trips quarantine — one audit event,
    /// one power-off, no boot-retry storm.
    pub fn note_boot_complete(&mut self, now: SimTime, node: u32) {
        let t = self.lifecycle.transition(now, node, LifecycleState::Up);
        let booted = t.is_some();
        self.note_transition(t);
        if !booted {
            return;
        }
        self.boot_retries[node as usize] = 0;
        let window = self.flap_policy.window;
        let hist = &mut self.up_history[node as usize];
        hist.retain(|&t0| t0 + window > now);
        hist.push(now);
        if (hist.len() as u32) >= self.flap_policy.threshold {
            let flaps = hist.len() as u32;
            hist.clear();
            self.stats.quarantines += 1;
            self.record(now, Some(node), AuditEntry::Quarantined { flaps });
            let t = self
                .lifecycle
                .transition(now, node, LifecycleState::Quarantined);
            self.note_transition(t);
            if let Some(d) = self.flap_policy.release_after {
                self.release_at.insert(node, now + d);
            }
            // park it dark; request_power allows Off while quarantined
            self.request_power(now, node, PowerCmd::Off);
        }
    }

    /// Release a quarantined node by hand. Returns `false` if the node
    /// is not quarantined. With `power_on` the node is powered straight
    /// back into service; otherwise it is left `Off`.
    pub fn release_quarantine(&mut self, now: SimTime, node: u32, power_on: bool) -> bool {
        if !self.quarantined(node) {
            return false;
        }
        self.release_node(now, node, true, power_on);
        true
    }

    fn release_node(&mut self, now: SimTime, node: u32, manual: bool, power_on: bool) {
        self.release_at.remove(&node);
        self.up_history[node as usize].clear();
        self.boot_retries[node as usize] = 0;
        self.record(now, Some(node), AuditEntry::QuarantineReleased { manual });
        let t = self.lifecycle.transition(now, node, LifecycleState::Off);
        self.note_transition(t);
        if power_on {
            self.request_power(now, node, PowerCmd::On);
        }
    }

    /// The firmware memory check failed; the node halts in BIOS.
    pub fn note_memory_failed(&mut self, now: SimTime, node: u32) {
        let t =
            self.lifecycle
                .transition(now, node, LifecycleState::Failed(FailReason::MemoryCheck));
        self.note_transition(t);
    }

    /// The CPU burned.
    pub fn note_burned(&mut self, now: SimTime, node: u32) {
        let t = self
            .lifecycle
            .force(now, node, LifecycleState::Failed(FailReason::Burned));
        self.note_transition(t);
    }

    /// Provisioning claimed the node (dark while the image streams).
    pub fn note_cloning(&mut self, now: SimTime, node: u32) {
        let t = self.lifecycle.force(now, node, LifecycleState::Cloning);
        self.note_transition(t);
    }

    /// A provisioning session gave up on this node (dead receiver,
    /// broken control channel): mark it unresponsive instead of leaving
    /// it parked in `Cloning` forever.
    pub fn note_clone_failed(&mut self, now: SimTime, node: u32) {
        let t =
            self.lifecycle
                .transition(now, node, LifecycleState::Failed(FailReason::Unresponsive));
        self.note_transition(t);
    }

    /// Adopt an already-running node (realtime startup over a live
    /// fleet): force the lifecycle straight to `Up`.
    pub fn adopt_up(&mut self, now: SimTime, node: u32) {
        let t = self.lifecycle.force(now, node, LifecycleState::Up);
        self.note_transition(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A scriptable in-memory chassis: relay states plus a queue of
    /// loss decisions (pop-front; missing = delivered).
    struct MockTransport {
        relays: BTreeMap<u32, bool>,
        lose_next: Vec<bool>,
        issued: Vec<(u32, PowerCmd)>,
    }

    impl MockTransport {
        fn all_on(n: u32) -> Self {
            MockTransport {
                relays: (0..n).map(|i| (i, true)).collect(),
                lose_next: Vec::new(),
                issued: Vec::new(),
            }
        }

        fn all_off(n: u32) -> Self {
            MockTransport {
                relays: (0..n).map(|i| (i, false)).collect(),
                lose_next: Vec::new(),
                issued: Vec::new(),
            }
        }
    }

    impl CommandTransport for MockTransport {
        fn issue(&mut self, _now: SimTime, node: u32, cmd: PowerCmd) -> IssueOutcome {
            self.issued.push((node, cmd));
            if !self.lose_next.is_empty() && self.lose_next.remove(0) {
                return IssueOutcome::Lost;
            }
            let Some(relay) = self.relays.get_mut(&node) else {
                return IssueOutcome::Rejected;
            };
            let want = cmd == PowerCmd::On;
            if *relay == want {
                return IssueOutcome::Noop;
            }
            *relay = want;
            IssueOutcome::Applied {
                energize_at: want.then_some(SimTime::ZERO),
            }
        }
        fn relay_on(&self, node: u32) -> bool {
            self.relays.get(&node).copied().unwrap_or(false)
        }
    }

    /// A gate that drains after being asked `passes` times.
    struct MockGate {
        busy: bool,
        drained: bool,
        released: u32,
    }

    impl DrainGate for MockGate {
        fn request_drain(&mut self, _now: SimTime, _node: u32) -> bool {
            self.busy
        }
        fn is_drained(&self, _node: u32) -> bool {
            self.drained
        }
        fn release(&mut self, _node: u32) {
            self.released += 1;
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn up_plane(n: usize) -> ControlPlane {
        let mut cp = ControlPlane::new(n);
        for i in 0..n {
            cp.adopt_up(SimTime::ZERO, i as u32);
        }
        cp
    }

    #[test]
    fn every_action_variant_is_suppressed_on_a_dark_node() {
        let mut cp = ControlPlane::new(1);
        let mut gate = NoGate;
        for action in [
            Action::PowerDown,
            Action::Reboot,
            Action::Halt,
            Action::Plugin("site.sh".into()),
        ] {
            let fx = cp.submit_action(t(1), 0, &action, false, &mut gate);
            assert!(fx.is_empty(), "{action:?} must be dropped when relay off");
        }
        assert_eq!(cp.stats().actions_suppressed, 4);
        assert_eq!(cp.stats().actions_executed, 0);
        assert!(cp.action_log().is_empty(), "suppressed ≠ executed");
        assert!(cp.audit().iter().all(|r| matches!(
            r.entry,
            AuditEntry::ActionSuppressed {
                reason: SuppressReason::PoweredOff,
                ..
            }
        )));
    }

    #[test]
    fn duplicate_in_flight_actions_are_deduped() {
        let mut cp = up_plane(1);
        let mut gate = NoGate;
        let mut tx = MockTransport::all_on(1);
        // first PowerDown goes in but is lost on the wire -> retrying
        tx.lose_next = vec![true];
        cp.submit_action(t(1), 0, &Action::PowerDown, true, &mut gate);
        cp.step(t(1), &mut tx, &mut gate);
        assert_eq!(cp.outstanding(), 1, "retry pending");
        // identical action re-fires while the first retries: deduped
        cp.submit_action(t(2), 0, &Action::PowerDown, true, &mut gate);
        assert_eq!(cp.stats().actions_suppressed, 1);
        // but a *different* action is not
        cp.submit_action(t(2), 0, &Action::Halt, true, &mut gate);
        assert_eq!(cp.stats().actions_executed, 2);
        assert_eq!(cp.action_log().len(), 2);
    }

    #[test]
    fn retry_backoff_is_exponential_and_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_millis(500));
        assert_eq!(p.backoff(2), SimDuration::from_millis(1000));
        assert_eq!(p.backoff(3), SimDuration::from_millis(2000));
        assert_eq!(p.backoff(30), SimDuration::from_secs(8), "capped");
    }

    #[test]
    fn lost_commands_retry_then_fail_into_the_audit_trail() {
        let mut cp = up_plane(1);
        cp.set_retry_policy(RetryPolicy {
            base: SimDuration::from_millis(500),
            max_delay: SimDuration::from_secs(8),
            max_attempts: 3,
        });
        let mut gate = NoGate;
        let mut tx = MockTransport::all_on(1);
        tx.lose_next = vec![true, true, true]; // every attempt lost
        cp.submit_action(t(1), 0, &Action::PowerDown, true, &mut gate);
        let mut now = t(1);
        for _ in 0..5 {
            cp.step(now, &mut tx, &mut gate);
            now = cp.next_wakeup().unwrap_or(now);
            if cp.outstanding() == 0 {
                break;
            }
        }
        assert_eq!(cp.outstanding(), 0, "exhausted, not stuck");
        assert_eq!(cp.stats().commands_failed, 1);
        assert_eq!(cp.stats().retries, 2, "attempts 1 and 2 scheduled retries");
        assert!(
            cp.audit()
                .iter()
                .any(|r| matches!(r.entry, AuditEntry::CommandFailed { attempts: 3, .. })),
            "failure lands in the audit trail"
        );
        assert!(tx.relay_on(0), "the chassis never heard any attempt");
    }

    #[test]
    fn reboot_chains_off_then_on_and_a_failed_off_aborts_the_on() {
        let mut cp = up_plane(1);
        cp.set_retry_policy(RetryPolicy {
            base: SimDuration::from_millis(100),
            max_delay: SimDuration::from_secs(1),
            max_attempts: 2,
        });
        let mut gate = NoGate;
        let mut tx = MockTransport::all_on(1);
        tx.lose_next = vec![true, true]; // the off half never arrives
        cp.submit_action(t(1), 0, &Action::Reboot, true, &mut gate);
        assert_eq!(cp.outstanding(), 2, "off + chained on");
        let mut now = t(1);
        for _ in 0..4 {
            cp.step(now, &mut tx, &mut gate);
            now = cp.next_wakeup().unwrap_or(now);
        }
        assert_eq!(cp.outstanding(), 0);
        assert!(cp
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::CommandAborted { cmd: PowerCmd::On })));
        assert!(tx.relay_on(0), "node untouched by the failed reboot");
    }

    #[test]
    fn reboot_completes_through_a_clean_transport() {
        let mut cp = up_plane(1);
        let mut gate = NoGate;
        let mut tx = MockTransport::all_on(1);
        cp.submit_action(t(1), 0, &Action::Reboot, true, &mut gate);
        let fx = cp.step(t(1), &mut tx, &mut gate);
        assert_eq!(
            fx,
            vec![Effect::PowerApplied {
                node: 0,
                on: false,
                energize_at: None
            }]
        );
        // the on half waits out the reboot pause
        let wake = cp.next_wakeup().unwrap();
        assert_eq!(wake, t(1) + SimDuration::from_secs(2));
        assert!(cp.step(t(1), &mut tx, &mut gate).is_empty(), "not yet");
        let fx = cp.step(wake, &mut tx, &mut gate);
        assert!(matches!(
            fx.as_slice(),
            [Effect::PowerApplied { on: true, .. }]
        ));
        assert_eq!(cp.outstanding(), 0);
        assert_eq!(cp.lifecycle().state(0), LifecycleState::PoweringOn);
    }

    #[test]
    fn drain_gate_holds_power_actions_until_drained() {
        let mut cp = up_plane(1);
        let mut gate = MockGate {
            busy: true,
            drained: false,
            released: 0,
        };
        let mut tx = MockTransport::all_on(1);
        cp.submit_action(t(10), 0, &Action::PowerDown, true, &mut gate);
        assert_eq!(cp.lifecycle().state(0), LifecycleState::Draining);
        assert!(cp.step(t(11), &mut tx, &mut gate).is_empty(), "gated");
        assert!(tx.issued.is_empty(), "nothing reached the chassis");
        // the job finishes; the drain completes
        gate.drained = true;
        let fx = cp.step(t(20), &mut tx, &mut gate);
        assert!(matches!(
            fx.as_slice(),
            [Effect::PowerApplied { on: false, .. }]
        ));
        assert_eq!(gate.released, 1, "drain mark released on completion");
        assert_eq!(cp.lifecycle().state(0), LifecycleState::Off);
        assert_eq!(cp.stats().drains_forced, 0);
    }

    #[test]
    fn drain_deadline_forces_the_gate_open() {
        let mut cp = up_plane(1);
        let mut gate = MockGate {
            busy: true,
            drained: false,
            released: 0,
        };
        let mut tx = MockTransport::all_on(1);
        cp.submit_action(t(10), 0, &Action::PowerDown, true, &mut gate);
        assert_eq!(cp.next_wakeup(), Some(t(40)), "the force deadline");
        assert!(cp.step(t(39), &mut tx, &mut gate).is_empty());
        let fx = cp.step(t(40), &mut tx, &mut gate);
        assert!(matches!(
            fx.as_slice(),
            [Effect::PowerApplied { on: false, .. }]
        ));
        assert_eq!(cp.stats().drains_forced, 1);
        assert!(cp
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::DrainComplete { forced: true })));
    }

    #[test]
    fn commands_to_one_node_issue_in_fifo_order() {
        let mut cp = up_plane(2);
        let mut gate = NoGate;
        let mut tx = MockTransport::all_on(2);
        // node 0: off, then on — but the off is lost once, so the on
        // must wait behind the retry instead of jumping the queue
        tx.lose_next = vec![true];
        cp.request_power(t(1), 0, PowerCmd::Off);
        cp.request_power(t(1), 0, PowerCmd::On);
        cp.request_power(t(1), 1, PowerCmd::Off); // other node unaffected
        cp.step(t(1), &mut tx, &mut gate);
        assert_eq!(
            tx.issued,
            vec![(0, PowerCmd::Off), (1, PowerCmd::Off)],
            "node0's On held behind its retrying Off; node1 proceeds"
        );
        let wake = cp.next_wakeup().unwrap();
        cp.step(wake, &mut tx, &mut gate);
        assert_eq!(cp.outstanding(), 0);
        assert_eq!(
            &tx.issued[2..],
            &[(0, PowerCmd::Off), (0, PowerCmd::On)],
            "retry lands, then the queued On — never inverted"
        );
    }

    /// Drive one full boot cycle (On → energized → boot complete).
    fn boot_cycle(cp: &mut ControlPlane, tx: &mut MockTransport, now: SimTime) {
        let mut gate = NoGate;
        cp.request_power(now, 0, PowerCmd::On);
        cp.step(now, tx, &mut gate);
        cp.note_energized(now, 0);
        cp.note_boot_complete(now, 0);
    }

    #[test]
    fn flap_detection_quarantines_with_one_event_and_a_park_off() {
        let mut cp = ControlPlane::new(1);
        cp.set_flap_policy(FlapPolicy {
            threshold: 3,
            window: SimDuration::from_secs(600),
            release_after: None,
        });
        let mut gate = NoGate;
        let mut tx = MockTransport::all_off(1);
        let mut now = t(10);
        for cycle in 0..3 {
            boot_cycle(&mut cp, &mut tx, now);
            if cycle < 2 {
                // node falls over; driver parks it and tries again
                cp.request_power(now, 0, PowerCmd::Off);
                cp.step(now, &mut tx, &mut gate);
                now += SimDuration::from_secs(30);
            }
        }
        // third Up inside the window trips quarantine
        assert_eq!(cp.lifecycle().state(0), LifecycleState::Quarantined);
        let trips: Vec<_> = cp
            .audit()
            .iter()
            .filter(|r| matches!(r.entry, AuditEntry::Quarantined { .. }))
            .collect();
        assert_eq!(trips.len(), 1, "exactly one quarantine event");
        assert!(matches!(
            trips[0].entry,
            AuditEntry::Quarantined { flaps: 3 }
        ));
        // the park power-off lands without un-quarantining the node
        cp.step(now, &mut tx, &mut gate);
        assert!(!tx.relay_on(0), "parked dark");
        assert_eq!(cp.lifecycle().state(0), LifecycleState::Quarantined);
        // engine actions are suppressed outright
        let fx = cp.submit_action(now, 0, &Action::Reboot, true, &mut gate);
        assert!(fx.is_empty());
        assert!(cp.audit().iter().any(|r| matches!(
            r.entry,
            AuditEntry::ActionSuppressed {
                reason: SuppressReason::Quarantined,
                ..
            }
        )));
        // an admin power-on is held, not queued
        cp.request_power(now, 0, PowerCmd::On);
        assert_eq!(cp.outstanding(), 0);
        assert!(cp
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::QuarantineHeld { cmd: PowerCmd::On })));
        // a follow-up reboot chain aborts at the On half
        cp.submit_followup_power(now, 0, true);
        cp.step(now, &mut tx, &mut gate);
        let wake = cp.next_wakeup().expect("the chained On's reboot pause");
        cp.step(wake, &mut tx, &mut gate);
        assert_eq!(cp.outstanding(), 0);
        assert_eq!(cp.lifecycle().state(0), LifecycleState::Quarantined);
        assert!(cp
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::CommandAborted { cmd: PowerCmd::On })));
        // manual release powers it back into service
        assert!(cp.release_quarantine(now, 0, true));
        let fx = cp.step(now, &mut tx, &mut gate);
        assert!(matches!(
            fx.as_slice(),
            [Effect::PowerApplied { on: true, .. }]
        ));
        assert_eq!(cp.lifecycle().state(0), LifecycleState::PoweringOn);
        assert_eq!(cp.stats().quarantines, 1);
    }

    #[test]
    fn timed_quarantine_release_fires_on_the_wakeup_path() {
        let mut cp = ControlPlane::new(1);
        cp.set_flap_policy(FlapPolicy {
            threshold: 2,
            window: SimDuration::from_secs(600),
            release_after: Some(SimDuration::from_secs(120)),
        });
        let mut gate = NoGate;
        let mut tx = MockTransport::all_off(1);
        boot_cycle(&mut cp, &mut tx, t(10));
        cp.request_power(t(10), 0, PowerCmd::Off);
        cp.step(t(10), &mut tx, &mut gate);
        boot_cycle(&mut cp, &mut tx, t(40)); // second Up: trip
        cp.step(t(40), &mut tx, &mut gate); // park off lands
        assert_eq!(cp.lifecycle().state(0), LifecycleState::Quarantined);
        assert_eq!(cp.next_wakeup(), Some(t(160)), "the release timer");
        let fx = cp.step(t(160), &mut tx, &mut gate);
        assert!(matches!(
            fx.as_slice(),
            [Effect::PowerApplied { on: true, .. }]
        ));
        assert_eq!(cp.lifecycle().state(0), LifecycleState::PoweringOn);
        assert!(cp
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::QuarantineReleased { manual: false })));
    }

    #[test]
    fn boot_watchdog_power_cycles_then_fails_unresponsive() {
        let mut cp = ControlPlane::new(1);
        cp.set_boot_watchdog(BootWatchdog {
            deadline: SimDuration::from_secs(60),
            max_retries: 2,
        });
        let mut gate = NoGate;
        let mut tx = MockTransport::all_off(1);
        cp.request_power(t(0), 0, PowerCmd::On);
        cp.step(t(0), &mut tx, &mut gate);
        assert_eq!(cp.lifecycle().state(0), LifecycleState::PoweringOn);
        // the energize never arrives (chassis controller restarted and
        // dropped the pending sequencing) — drive only by wakeups
        let mut guard = 0;
        while let Some(wake) = cp.next_wakeup() {
            guard += 1;
            assert!(guard < 50, "watchdog must terminate");
            cp.step(wake, &mut tx, &mut gate);
        }
        assert_eq!(
            cp.lifecycle().state(0),
            LifecycleState::Failed(FailReason::Unresponsive),
            "retries exhausted"
        );
        assert_eq!(cp.stats().boot_timeouts, 2);
        assert!(cp
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::BootTimeout { attempt: 2 })));
    }

    #[test]
    fn noop_commands_complete_without_effects() {
        let mut cp = up_plane(1);
        let mut gate = NoGate;
        let mut tx = MockTransport::all_on(1);
        cp.request_power(t(1), 0, PowerCmd::On); // already on
        let fx = cp.step(t(1), &mut tx, &mut gate);
        assert!(fx.is_empty());
        assert!(cp
            .audit()
            .iter()
            .any(|r| matches!(r.entry, AuditEntry::CommandCompleted { noop: true, .. })));
    }
}
