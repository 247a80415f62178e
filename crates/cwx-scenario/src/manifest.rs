//! The versioned scenario manifest: one TOML document composing
//! cluster shape, fault schedule, invariant policy, resource limits and
//! pass/fail assertions into a runnable, machine-checkable scenario.
//!
//! Parsing is strict by design: unknown keys, unknown enum values,
//! missing operands, out-of-range targets and mode-mismatched sections
//! are hard errors that name the offending source line. A typo like
//! `kind = "pannic"` must fail the run with exit code 3, never silently
//! weaken the scenario.

use std::fmt;

use cwx_icebox::NODE_PORTS;

use crate::fault::{FaultKind, FAULT_SLUGS};
use crate::invariants::InvariantPolicy;
use crate::snapshot::secs_to_nanos;
use crate::toml::{self, Entry, Table, Value};

/// The manifest format version this runtime understands.
pub const SCENARIO_VERSION: i64 = 1;

/// A manifest rejection: what was wrong and (when known) where.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError(pub String);

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest error: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

impl From<String> for ManifestError {
    fn from(s: String) -> ManifestError {
        ManifestError(s)
    }
}

fn err<T>(msg: String) -> Result<T, ManifestError> {
    Err(ManifestError(msg))
}

/// A chaos-mode scenario: one simulated cluster under a fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Fleet size.
    pub n_nodes: u32,
    /// Whether racks get their own network segments (default true;
    /// required by rack-targeted faults).
    pub rack_network: bool,
    /// Override the cluster's flap threshold (`0` disables flap
    /// detection — e.g. for pure network scenarios, where the engine's
    /// reboot-the-unreachable rule would otherwise thrash partitioned
    /// racks straight into quarantine).
    pub flap_threshold: Option<u32>,
    /// Auto-release quarantined nodes after this many seconds (`None`
    /// keeps the cluster default: manual release only).
    pub quarantine_release_secs: Option<f64>,
    /// Invariant checker tunables.
    pub policy: InvariantPolicy,
    /// Scheduled faults, run-relative seconds, in manifest order.
    pub faults: Vec<(f64, FaultKind)>,
}

/// A fault against a federated sub-cluster's uplink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FedFault {
    /// Sever a sub-cluster's uplink to the head.
    Disconnect(u16),
    /// Restore it.
    Heal(u16),
}

/// A federation-mode scenario: a head cluster aggregating sub-clusters
/// over lossy uplinks.
#[derive(Debug, Clone, PartialEq)]
pub struct FedSpec {
    /// Number of sub-clusters.
    pub clusters: u16,
    /// Nodes per sub-cluster.
    pub nodes_per_cluster: u32,
    /// Uplink reporting interval, seconds.
    pub uplink_secs: f64,
    /// Staleness bound for sub-cluster views, seconds.
    pub stale_after_secs: f64,
    /// Scheduled uplink faults, run-relative seconds, in manifest order.
    pub faults: Vec<(f64, FedFault)>,
}

/// Which runtime a manifest drives.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Single-cluster chaos campaign (`[cluster]`).
    Chaos(ChaosSpec),
    /// Multi-cluster federation (`[federation]`).
    Federation(FedSpec),
}

/// How many nodes a run's `final_up` assertion expects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FinalUp {
    /// Every node in the fleet.
    All,
    /// An exact count.
    Exactly(u64),
}

/// Parsed `[assertions]` demands. Every field is optional; an absent
/// field asserts nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assertions {
    /// Mean fleet availability must be at least this (chaos).
    pub min_availability: Option<f64>,
    /// Nodes up at the end of the settle window (chaos).
    pub final_up: Option<FinalUp>,
    /// At most this many notifier emails (chaos).
    pub max_emails: Option<u64>,
    /// The quarantine list must be empty at the end (chaos).
    pub quarantined_empty: Option<bool>,
    /// The audit-trail hash must equal this value (chaos).
    pub audit_hash: Option<u64>,
    /// The head's census must match the sub-cluster sum (federation;
    /// defaults to `true` when the section is absent).
    pub census_match: Option<bool>,
    /// The head must aggregate exactly this many nodes (federation).
    pub total_nodes: Option<u64>,
}

/// Resource limits on the run itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Limits {
    /// Fail the run (exit 3) if its wall clock exceeded this. Checked
    /// once the run has finished: the limit does not interrupt a run.
    pub max_wall_ms: Option<u64>,
}

/// A fully validated scenario manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scenario name (artifacts and reports carry it).
    pub name: String,
    /// Seed for every random draw.
    pub seed: u64,
    /// Active phase, seconds: faults land inside `[0, duration_secs]`.
    pub duration_secs: f64,
    /// Quiet tail after the active phase, seconds, before the final
    /// checks (default 600 for chaos, 0 for federation).
    pub settle_secs: f64,
    /// Chaos or federation runtime.
    pub mode: Mode,
    /// Resource limits.
    pub limits: Limits,
    /// Pass/fail demands.
    pub assertions: Assertions,
    /// `[checkpoints] at = [...]` — simulated seconds at which the
    /// runner captures a world snapshot. Strictly ascending, within
    /// `[0, duration + settle]`. Deliberately *not* part of the
    /// result.json body: snapshot capture is fingerprint-neutral, so
    /// adding checkpoints must never change a scenario's fingerprint.
    pub checkpoints: Vec<f64>,
}

// ---------- typed value extraction ----------

fn want_int(e: &Entry) -> Result<i64, ManifestError> {
    match e.value {
        Value::Int(i) => Ok(i),
        ref v => err(format!(
            "line {}: `{}` must be an integer, got {}",
            e.line,
            e.key,
            v.type_name()
        )),
    }
}

fn want_u64(e: &Entry) -> Result<u64, ManifestError> {
    let i = want_int(e)?;
    u64::try_from(i)
        .map_err(|_| ManifestError(format!("line {}: `{}` must be nonnegative", e.line, e.key)))
}

fn want_f64(e: &Entry) -> Result<f64, ManifestError> {
    match e.value {
        Value::Int(i) => Ok(i as f64),
        Value::Float(x) => Ok(x),
        ref v => err(format!(
            "line {}: `{}` must be a number, got {}",
            e.line,
            e.key,
            v.type_name()
        )),
    }
}

/// A duration in seconds. It must be positive on the runner's
/// nanosecond grid: a value that rounds to 0 ns would, as an uplink
/// interval, stall the federation epoch loop forever.
fn want_pos_f64(e: &Entry) -> Result<f64, ManifestError> {
    let x = want_f64(e)?;
    if x <= 0.0 {
        return err(format!("line {}: `{}` must be positive", e.line, e.key));
    }
    if secs_to_nanos(x) == 0 {
        return err(format!(
            "line {}: `{}` = {x} rounds to 0 ns; durations must be at least 1 ns",
            e.line, e.key
        ));
    }
    Ok(x)
}

fn want_str(e: &Entry) -> Result<&str, ManifestError> {
    match e.value {
        Value::Str(ref s) => Ok(s),
        ref v => err(format!(
            "line {}: `{}` must be a string, got {}",
            e.line,
            e.key,
            v.type_name()
        )),
    }
}

fn want_bool(e: &Entry) -> Result<bool, ManifestError> {
    match e.value {
        Value::Bool(b) => Ok(b),
        ref v => err(format!(
            "line {}: `{}` must be a boolean, got {}",
            e.line,
            e.key,
            v.type_name()
        )),
    }
}

fn unknown_key(section: &str, e: &Entry, legal: &[&str]) -> ManifestError {
    ManifestError(format!(
        "line {}: unknown key `{}` in {section} (legal keys: {})",
        e.line,
        e.key,
        legal.join(", ")
    ))
}

// ---------- fault lowering ----------

struct FaultCtx {
    n_nodes: u32,
    n_racks: usize,
    rack_network: bool,
    duration_secs: f64,
}

fn lower_chaos_fault(t: &Table, ctx: &FaultCtx) -> Result<(f64, FaultKind), ManifestError> {
    let mut at = None;
    let mut kind = None;
    let mut rack = None;
    let mut chassis = None;
    let mut node = None;
    let mut secs = None;
    let mut loss = None;
    let mut bps = None;
    let mut delta = None;
    let mut cluster = None;
    for e in &t.entries {
        match e.key.as_str() {
            "at" => at = Some(want_f64(e)?),
            "kind" => kind = Some((want_str(e)?.to_string(), e.line)),
            "rack" => rack = Some((want_u64(e)?, e.line)),
            "chassis" => chassis = Some((want_u64(e)?, e.line)),
            "node" => node = Some((want_u64(e)?, e.line)),
            "secs" => secs = Some(want_pos_f64(e)?),
            "loss" => {
                let x = want_f64(e)?;
                if !(0.0..=1.0).contains(&x) {
                    return err(format!("line {}: `loss` must be within 0..=1", e.line));
                }
                loss = Some(x);
            }
            "bps" => bps = Some(want_u64(e)?),
            "delta" => delta = Some(want_f64(e)?),
            // accepted here only so `cluster-disconnect` in a chaos
            // scenario fails on the kind, not the operand
            "cluster" => cluster = Some(want_u64(e)?),
            _ => {
                return Err(unknown_key(
                    "[[fault]]",
                    e,
                    &[
                        "at", "kind", "rack", "chassis", "node", "secs", "loss", "bps", "delta",
                    ],
                ))
            }
        }
    }
    let at =
        at.ok_or_else(|| ManifestError(format!("line {}: [[fault]] is missing `at`", t.line)))?;
    if !(0.0..=ctx.duration_secs).contains(&at) {
        return err(format!(
            "line {}: fault time {at} is outside the run's [0, {}] window",
            t.line, ctx.duration_secs
        ));
    }
    let (kind_name, kind_line) =
        kind.ok_or_else(|| ManifestError(format!("line {}: [[fault]] is missing `kind`", t.line)))?;

    let take_rack = |pair: Option<(u64, usize)>, key: &str| -> Result<usize, ManifestError> {
        let (r, line) = pair.ok_or_else(|| {
            ManifestError(format!("line {}: `{kind_name}` needs `{key}`", t.line))
        })?;
        if r as usize >= ctx.n_racks {
            return err(format!(
                "line {line}: {key} {r} is out of range (fleet of {} nodes has {} racks)",
                ctx.n_nodes, ctx.n_racks
            ));
        }
        Ok(r as usize)
    };
    let take_node = |pair: Option<(u64, usize)>| -> Result<u32, ManifestError> {
        let (n, line) = pair
            .ok_or_else(|| ManifestError(format!("line {}: `{kind_name}` needs `node`", t.line)))?;
        if n >= ctx.n_nodes as u64 {
            return err(format!(
                "line {line}: node {n} is out of range for a fleet of {} nodes",
                ctx.n_nodes
            ));
        }
        Ok(n as u32)
    };
    let need_secs = || -> Result<f64, ManifestError> {
        secs.ok_or_else(|| ManifestError(format!("line {}: `{kind_name}` needs `secs`", t.line)))
    };

    // operands each kind consumes; anything else present is an error
    let (kind, used): (FaultKind, &[&str]) = match kind_name.as_str() {
        "partition-rack" => (
            FaultKind::PartitionRack(take_rack(rack, "rack")?),
            &["rack"],
        ),
        "heal-rack" => (FaultKind::HealRack(take_rack(rack, "rack")?), &["rack"]),
        "rack-loss" => {
            let l = loss.ok_or_else(|| {
                ManifestError(format!("line {}: `rack-loss` needs `loss`", t.line))
            })?;
            (
                FaultKind::RackLoss(take_rack(rack, "rack")?, l),
                &["rack", "loss"],
            )
        }
        "rack-bandwidth" => {
            let (b, _) = bps.map(|b| (b, 0)).ok_or_else(|| {
                ManifestError(format!("line {}: `rack-bandwidth` needs `bps`", t.line))
            })?;
            (
                FaultKind::RackBandwidth(take_rack(rack, "rack")?, b),
                &["rack", "bps"],
            )
        }
        "chassis-restart" => (
            FaultKind::ChassisRestart(take_rack(chassis, "chassis")?),
            &["chassis"],
        ),
        "agent-crash" => (FaultKind::AgentCrash(take_node(node)?), &["node"]),
        "agent-hang" => (
            FaultKind::AgentHang(take_node(node)?, need_secs()?),
            &["node", "secs"],
        ),
        "agent-delay" => (
            FaultKind::AgentDelay(take_node(node)?, need_secs()?),
            &["node", "secs"],
        ),
        "agent-duplicate" => (FaultKind::AgentDuplicate(take_node(node)?), &["node"]),
        "agent-recover" => (FaultKind::AgentRecover(take_node(node)?), &["node"]),
        "kernel-panic" => (FaultKind::KernelPanic(take_node(node)?), &["node"]),
        "fan-failure" => (FaultKind::FanFailure(take_node(node)?), &["node"]),
        "psu-failure" => (FaultKind::PsuFailure(take_node(node)?), &["node"]),
        "memory-leak" => (FaultKind::MemoryLeak(take_node(node)?), &["node"]),
        "probe-stuck" => (FaultKind::ProbeStuck(take_node(node)?), &["node"]),
        "probe-skew" => {
            let d = delta.ok_or_else(|| {
                ManifestError(format!("line {}: `probe-skew` needs `delta`", t.line))
            })?;
            (
                FaultKind::ProbeSkew(take_node(node)?, d),
                &["node", "delta"],
            )
        }
        "probe-clear" => (FaultKind::ProbeClear(take_node(node)?), &["node"]),
        "console-garbage" => (FaultKind::ConsoleGarbage(take_node(node)?), &["node"]),
        "cluster-disconnect" | "cluster-heal" => {
            return err(format!(
                "line {kind_line}: `{kind_name}` is a federation fault; this is a [cluster] scenario"
            ));
        }
        other => {
            return err(format!(
                "line {kind_line}: unknown fault kind {other:?} (one of: {})",
                FAULT_SLUGS.join(", ")
            ));
        }
    };

    // reject operands the kind does not take
    let present: [(&str, bool); 8] = [
        ("rack", rack.is_some()),
        ("chassis", chassis.is_some()),
        ("node", node.is_some()),
        ("secs", secs.is_some()),
        ("loss", loss.is_some()),
        ("bps", bps.is_some()),
        ("delta", delta.is_some()),
        ("cluster", cluster.is_some()),
    ];
    for (name, here) in present {
        if here && !used.contains(&name) {
            return err(format!(
                "line {}: `{kind_name}` does not take `{name}`",
                t.line
            ));
        }
    }

    if matches!(kind, FaultKind::PartitionRack(_) | FaultKind::HealRack(_)) && !ctx.rack_network {
        return err(format!(
            "line {}: `{kind_name}` needs `rack_network = true` in [cluster]",
            t.line
        ));
    }
    Ok((at, kind))
}

fn lower_fed_fault(
    t: &Table,
    clusters: u16,
    duration_secs: f64,
) -> Result<(f64, FedFault), ManifestError> {
    let mut at = None;
    let mut kind = None;
    let mut cluster = None;
    for e in &t.entries {
        match e.key.as_str() {
            "at" => at = Some(want_f64(e)?),
            "kind" => kind = Some((want_str(e)?.to_string(), e.line)),
            "cluster" => cluster = Some((want_u64(e)?, e.line)),
            _ => return Err(unknown_key("[[fault]]", e, &["at", "kind", "cluster"])),
        }
    }
    let at =
        at.ok_or_else(|| ManifestError(format!("line {}: [[fault]] is missing `at`", t.line)))?;
    if !(0.0..=duration_secs).contains(&at) {
        return err(format!(
            "line {}: fault time {at} is outside the run's [0, {duration_secs}] window",
            t.line
        ));
    }
    let (kind_name, kind_line) =
        kind.ok_or_else(|| ManifestError(format!("line {}: [[fault]] is missing `kind`", t.line)))?;
    let (c, line) = cluster
        .ok_or_else(|| ManifestError(format!("line {}: `{kind_name}` needs `cluster`", t.line)))?;
    if c >= clusters as u64 {
        return err(format!(
            "line {line}: cluster {c} is out of range for a federation of {clusters}"
        ));
    }
    let fault = match kind_name.as_str() {
        "cluster-disconnect" => FedFault::Disconnect(c as u16),
        "cluster-heal" => FedFault::Heal(c as u16),
        other => {
            return err(format!(
                "line {kind_line}: unknown federation fault kind {other:?} \
                 (one of: cluster-disconnect, cluster-heal)"
            ));
        }
    };
    Ok((at, fault))
}

// ---------- section lowering ----------

fn lower_assertions(t: Option<&Table>, federation: bool) -> Result<Assertions, ManifestError> {
    let mut a = Assertions::default();
    let Some(t) = t else { return Ok(a) };
    for e in &t.entries {
        let chaos_only = |what: &str| {
            ManifestError(format!(
                "line {}: assertion `{what}` only applies to [cluster] scenarios",
                e.line
            ))
        };
        let fed_only = |what: &str| {
            ManifestError(format!(
                "line {}: assertion `{what}` only applies to [federation] scenarios",
                e.line
            ))
        };
        match e.key.as_str() {
            "min_availability" if federation => return Err(chaos_only("min_availability")),
            "min_availability" => {
                let x = want_f64(e)?;
                if !(0.0..=1.0).contains(&x) {
                    return err(format!(
                        "line {}: `min_availability` must be within 0..=1",
                        e.line
                    ));
                }
                a.min_availability = Some(x);
            }
            "final_up" if federation => return Err(chaos_only("final_up")),
            "final_up" => {
                a.final_up = Some(match &e.value {
                    Value::Str(s) if s == "all" => FinalUp::All,
                    Value::Int(i) if *i >= 0 => FinalUp::Exactly(*i as u64),
                    v => {
                        return err(format!(
                            "line {}: `final_up` must be \"all\" or a nonnegative integer, got {v}",
                            e.line
                        ))
                    }
                });
            }
            "max_emails" if federation => return Err(chaos_only("max_emails")),
            "max_emails" => a.max_emails = Some(want_u64(e)?),
            "quarantined_empty" if federation => return Err(chaos_only("quarantined_empty")),
            "quarantined_empty" => a.quarantined_empty = Some(want_bool(e)?),
            "audit_hash" if federation => return Err(chaos_only("audit_hash")),
            "audit_hash" => {
                let s = want_str(e)?;
                let hex = s.strip_prefix("0x").unwrap_or(s);
                let parsed = (hex.len() == 16)
                    .then(|| u64::from_str_radix(hex, 16).ok())
                    .flatten();
                match parsed {
                    Some(h) => a.audit_hash = Some(h),
                    None => {
                        return err(format!(
                            "line {}: `audit_hash` must be 16 hex digits, got {s:?}",
                            e.line
                        ))
                    }
                }
            }
            "census_match" if !federation => return Err(fed_only("census_match")),
            "census_match" => a.census_match = Some(want_bool(e)?),
            "total_nodes" if !federation => return Err(fed_only("total_nodes")),
            "total_nodes" => a.total_nodes = Some(want_u64(e)?),
            _ => {
                return Err(unknown_key(
                    "[assertions]",
                    e,
                    &[
                        "min_availability",
                        "final_up",
                        "max_emails",
                        "quarantined_empty",
                        "audit_hash",
                        "census_match",
                        "total_nodes",
                    ],
                ))
            }
        }
    }
    Ok(a)
}

fn lower_limits(t: Option<&Table>) -> Result<Limits, ManifestError> {
    let mut limits = Limits::default();
    let Some(t) = t else { return Ok(limits) };
    for e in &t.entries {
        match e.key.as_str() {
            "max_wall_ms" => {
                let v = want_u64(e)?;
                if v == 0 {
                    return err(format!("line {}: `max_wall_ms` must be positive", e.line));
                }
                limits.max_wall_ms = Some(v);
            }
            _ => return Err(unknown_key("[limits]", e, &["max_wall_ms"])),
        }
    }
    Ok(limits)
}

fn lower_policy(t: Option<&Table>) -> Result<InvariantPolicy, ManifestError> {
    let mut p = InvariantPolicy::default();
    let Some(t) = t else { return Ok(p) };
    for e in &t.entries {
        match e.key.as_str() {
            "check_every" => p.check_every_secs = want_pos_f64(e)?,
            "transient_deadline" => p.transient_deadline_secs = want_pos_f64(e)?,
            "freshness" => p.freshness_secs = want_pos_f64(e)?,
            _ => {
                return Err(unknown_key(
                    "[invariants]",
                    e,
                    &["check_every", "transient_deadline", "freshness"],
                ))
            }
        }
    }
    Ok(p)
}

struct RunSection {
    duration_secs: f64,
    settle_secs: Option<f64>,
}

fn lower_run(t: Option<&Table>) -> Result<RunSection, ManifestError> {
    let t = t.ok_or_else(|| ManifestError("missing required section [run]".to_string()))?;
    let mut duration = None;
    let mut settle = None;
    for e in &t.entries {
        match e.key.as_str() {
            "duration" => duration = Some(want_pos_f64(e)?),
            "settle" => {
                let x = want_f64(e)?;
                if x < 0.0 {
                    return err(format!("line {}: `settle` must be nonnegative", e.line));
                }
                settle = Some(x);
            }
            _ => return Err(unknown_key("[run]", e, &["duration", "settle"])),
        }
    }
    Ok(RunSection {
        duration_secs: duration
            .ok_or_else(|| ManifestError(format!("line {}: [run] needs `duration`", t.line)))?,
        settle_secs: settle,
    })
}

/// Lower `[checkpoints] at = [...]`: strictly ascending simulated
/// seconds inside `[0, duration + settle]`.
fn lower_checkpoints(t: Option<&Table>, horizon: f64) -> Result<Vec<f64>, ManifestError> {
    let Some(t) = t else {
        return Ok(Vec::new());
    };
    let mut at = None;
    for e in &t.entries {
        match e.key.as_str() {
            "at" => {
                let Value::Array(items) = &e.value else {
                    return err(format!(
                        "line {}: `at` must be an array of times, got {}",
                        e.line,
                        e.value.type_name()
                    ));
                };
                let mut times = Vec::with_capacity(items.len());
                for v in items {
                    let x = match v {
                        Value::Int(i) => *i as f64,
                        Value::Float(x) => *x,
                        other => {
                            return err(format!(
                                "line {}: checkpoint times must be numbers, got {}",
                                e.line,
                                other.type_name()
                            ))
                        }
                    };
                    if !(x.is_finite() && (0.0..=horizon).contains(&x)) {
                        return err(format!(
                            "line {}: checkpoint time {x} outside the run (0..={horizon} seconds)",
                            e.line
                        ));
                    }
                    if times.last().is_some_and(|&prev| x <= prev) {
                        return err(format!(
                            "line {}: checkpoint times must be strictly ascending",
                            e.line
                        ));
                    }
                    times.push(x);
                }
                at = Some(times);
            }
            _ => return Err(unknown_key("[checkpoints]", e, &["at"])),
        }
    }
    at.ok_or_else(|| ManifestError(format!("line {}: [checkpoints] needs `at`", t.line)))
}

impl Manifest {
    /// Parse and fully validate a v1 manifest.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let doc = toml::parse(text)?;

        // top level
        let mut version = None;
        let mut name = None;
        let mut seed = 0u64;
        for e in &doc.top.entries {
            match e.key.as_str() {
                "scenario_version" => version = Some(want_int(e)?),
                "name" => name = Some(want_str(e)?.to_string()),
                "seed" => seed = want_u64(e)?,
                _ => {
                    return Err(unknown_key(
                        "the top level",
                        e,
                        &["scenario_version", "name", "seed"],
                    ))
                }
            }
        }
        match version {
            Some(SCENARIO_VERSION) => {}
            Some(v) => {
                return err(format!(
                    "unsupported scenario_version {v} (this runtime speaks {SCENARIO_VERSION})"
                ))
            }
            None => return err("missing required `scenario_version`".to_string()),
        }
        let name =
            name.ok_or_else(|| ManifestError("missing required top-level `name`".to_string()))?;
        if name.is_empty() {
            return err("`name` must not be empty".to_string());
        }

        // every section must be one we know
        for t in &doc.tables {
            if !matches!(
                t.name.as_str(),
                "cluster"
                    | "federation"
                    | "run"
                    | "invariants"
                    | "limits"
                    | "assertions"
                    | "checkpoints"
            ) {
                return err(format!("line {}: unknown section [{}]", t.line, t.name));
            }
        }
        for t in &doc.arrays {
            if t.name != "fault" {
                return err(format!(
                    "line {}: unknown array section [[{}]] (only [[fault]] repeats)",
                    t.line, t.name
                ));
            }
        }

        let run = lower_run(doc.table("run"))?;
        let limits = lower_limits(doc.table("limits"))?;

        let mode = match (doc.table("cluster"), doc.table("federation")) {
            (Some(_), Some(f)) => {
                return err(format!(
                    "line {}: [cluster] and [federation] are mutually exclusive",
                    f.line
                ))
            }
            (None, None) => {
                return err("a scenario needs a [cluster] or [federation] section".to_string())
            }
            (Some(cluster), None) => {
                let mut nodes = None;
                let mut rack_network = true;
                let mut flap_threshold = None;
                let mut quarantine_release = None;
                for e in &cluster.entries {
                    match e.key.as_str() {
                        "nodes" => {
                            let n = want_u64(e)?;
                            if n == 0 {
                                return err(format!("line {}: `nodes` must be positive", e.line));
                            }
                            nodes = Some(u32::try_from(n).map_err(|_| {
                                ManifestError(format!("line {}: `nodes` is too large", e.line))
                            })?);
                        }
                        "rack_network" => rack_network = want_bool(e)?,
                        "flap_threshold" => {
                            let v = want_u64(e)?;
                            flap_threshold = Some(u32::try_from(v).map_err(|_| {
                                ManifestError(format!(
                                    "line {}: `flap_threshold` is too large",
                                    e.line
                                ))
                            })?);
                        }
                        "quarantine_release" => quarantine_release = Some(want_pos_f64(e)?),
                        _ => {
                            return Err(unknown_key(
                                "[cluster]",
                                e,
                                &[
                                    "nodes",
                                    "rack_network",
                                    "flap_threshold",
                                    "quarantine_release",
                                ],
                            ))
                        }
                    }
                }
                let n_nodes = nodes.ok_or_else(|| {
                    ManifestError(format!("line {}: [cluster] needs `nodes`", cluster.line))
                })?;

                let ctx = FaultCtx {
                    n_nodes,
                    n_racks: (n_nodes as usize).div_ceil(NODE_PORTS),
                    rack_network,
                    duration_secs: run.duration_secs,
                };
                let faults = doc
                    .arrays_named("fault")
                    .map(|t| lower_chaos_fault(t, &ctx))
                    .collect::<Result<_, _>>()?;
                Mode::Chaos(ChaosSpec {
                    n_nodes,
                    rack_network,
                    flap_threshold,
                    quarantine_release_secs: quarantine_release,
                    policy: lower_policy(doc.table("invariants"))?,
                    faults,
                })
            }
            (None, Some(fed)) => {
                if let Some(t) = doc.table("invariants") {
                    return err(format!(
                        "line {}: [invariants] only applies to [cluster] scenarios",
                        t.line
                    ));
                }
                let mut clusters = None;
                let mut nodes_per = None;
                let mut uplink = 10.0;
                let mut stale_after = 40.0;
                for e in &fed.entries {
                    match e.key.as_str() {
                        "clusters" => {
                            let n = want_u64(e)?;
                            if n == 0 {
                                return err(format!(
                                    "line {}: `clusters` must be positive",
                                    e.line
                                ));
                            }
                            clusters = Some(u16::try_from(n).map_err(|_| {
                                ManifestError(format!("line {}: `clusters` is too large", e.line))
                            })?);
                        }
                        "nodes_per_cluster" => {
                            let n = want_u64(e)?;
                            if n == 0 {
                                return err(format!(
                                    "line {}: `nodes_per_cluster` must be positive",
                                    e.line
                                ));
                            }
                            nodes_per = Some(u32::try_from(n).map_err(|_| {
                                ManifestError(format!(
                                    "line {}: `nodes_per_cluster` is too large",
                                    e.line
                                ))
                            })?);
                        }
                        "uplink" => uplink = want_pos_f64(e)?,
                        "stale_after" => stale_after = want_pos_f64(e)?,
                        _ => {
                            return Err(unknown_key(
                                "[federation]",
                                e,
                                &["clusters", "nodes_per_cluster", "uplink", "stale_after"],
                            ))
                        }
                    }
                }
                let clusters = clusters.ok_or_else(|| {
                    ManifestError(format!("line {}: [federation] needs `clusters`", fed.line))
                })?;
                let nodes_per = nodes_per.ok_or_else(|| {
                    ManifestError(format!(
                        "line {}: [federation] needs `nodes_per_cluster`",
                        fed.line
                    ))
                })?;
                let faults = doc
                    .arrays_named("fault")
                    .map(|t| lower_fed_fault(t, clusters, run.duration_secs))
                    .collect::<Result<_, _>>()?;
                Mode::Federation(FedSpec {
                    clusters,
                    nodes_per_cluster: nodes_per,
                    uplink_secs: uplink,
                    stale_after_secs: stale_after,
                    faults,
                })
            }
        };

        let assertions =
            lower_assertions(doc.table("assertions"), matches!(mode, Mode::Federation(_)))?;
        let settle_secs = run.settle_secs.unwrap_or(match mode {
            Mode::Chaos(_) => 600.0,
            Mode::Federation(_) => 0.0,
        });
        let checkpoints =
            lower_checkpoints(doc.table("checkpoints"), run.duration_secs + settle_secs)?;
        Ok(Manifest {
            name,
            seed,
            duration_secs: run.duration_secs,
            settle_secs,
            mode,
            limits,
            assertions,
            checkpoints,
        })
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chaos spec, when this is a `[cluster]` scenario.
    pub fn chaos(&self) -> Option<&ChaosSpec> {
        match &self.mode {
            Mode::Chaos(spec) => Some(spec),
            Mode::Federation(_) => None,
        }
    }

    /// Number of scheduled faults, in either mode.
    pub fn fault_count(&self) -> usize {
        match &self.mode {
            Mode::Chaos(spec) => spec.faults.len(),
            Mode::Federation(spec) => spec.faults.len(),
        }
    }

    /// The fault schedule in chronological order, rendered for reports:
    /// `(seconds, description)`. Ties keep manifest order (the order
    /// the runner applies them in).
    pub fn fault_schedule(&self) -> Vec<(f64, String)> {
        let mut v: Vec<(f64, String)> = match &self.mode {
            Mode::Chaos(spec) => spec
                .faults
                .iter()
                .map(|(at, kind)| (*at, kind.to_string()))
                .collect(),
            Mode::Federation(spec) => spec
                .faults
                .iter()
                .map(|(at, f)| {
                    let d = match f {
                        FedFault::Disconnect(c) => format!("cluster-disconnect {c}"),
                        FedFault::Heal(c) => format!("cluster-heal {c}"),
                    };
                    (*at, d)
                })
                .collect(),
        };
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    }

    /// A copy of this manifest keeping only the first `k` faults in
    /// chronological order (ties keep manifest order) — the probe
    /// schedules `cwx bisect` binary-searches over. Checkpoints are
    /// dropped: probes don't snapshot.
    pub fn with_fault_prefix(&self, k: usize) -> Manifest {
        let mut m = self.clone();
        m.checkpoints = Vec::new();
        fn keep_prefix<T>(faults: &mut Vec<(f64, T)>, k: usize) {
            faults.sort_by(|a, b| a.0.total_cmp(&b.0));
            faults.truncate(k);
        }
        match &mut m.mode {
            Mode::Chaos(spec) => keep_prefix(&mut spec.faults, k),
            Mode::Federation(spec) => keep_prefix(&mut spec.faults, k),
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
scenario_version = 1
name = "smoke"
seed = 7

[cluster]
nodes = 40
flap_threshold = 6
quarantine_release = 500.0

[run]
duration = 900
settle = 300

[invariants]
transient_deadline = 1800

[limits]
max_wall_ms = 60000

[[fault]]
at = 100
kind = "kernel-panic"
node = 7

[[fault]]
at = 200
kind = "partition-rack"
rack = 2

[[fault]]
at = 350
kind = "heal-rack"
rack = 2

[assertions]
min_availability = 0.8
final_up = "all"
quarantined_empty = true
"#;

    #[test]
    fn parses_a_full_chaos_manifest() {
        let m = Manifest::parse(GOOD).expect("parses");
        assert_eq!(m.name, "smoke");
        assert_eq!(m.seed, 7);
        assert_eq!(m.limits.max_wall_ms, Some(60000));
        assert_eq!(m.assertions.final_up, Some(FinalUp::All));
        let Mode::Chaos(spec) = &m.mode else {
            panic!("chaos mode")
        };
        assert_eq!(spec.n_nodes, 40);
        assert_eq!((m.duration_secs, m.settle_secs), (900.0, 300.0));
        assert_eq!(spec.flap_threshold, Some(6));
        assert_eq!(spec.quarantine_release_secs, Some(500.0));
        assert_eq!(spec.policy.transient_deadline_secs, 1800.0);
        assert_eq!(spec.policy.check_every_secs, 5.0);
        assert_eq!(spec.faults.len(), 3);
        assert_eq!(spec.faults[0], (100.0, FaultKind::KernelPanic(7)));
        assert_eq!(spec.faults[1], (200.0, FaultKind::PartitionRack(2)));
    }

    #[test]
    fn parses_a_federation_manifest() {
        let m = Manifest::parse(
            r#"
scenario_version = 1
name = "fed"

[federation]
clusters = 3
nodes_per_cluster = 16
uplink = 5

[run]
duration = 240
settle = 60

[[fault]]
at = 60
kind = "cluster-disconnect"
cluster = 1

[[fault]]
at = 120
kind = "cluster-heal"
cluster = 1

[assertions]
census_match = true
total_nodes = 48
"#,
        )
        .expect("parses");
        let Mode::Federation(spec) = &m.mode else {
            panic!("federation mode")
        };
        assert_eq!(spec.clusters, 3);
        assert_eq!(spec.uplink_secs, 5.0);
        assert_eq!(spec.stale_after_secs, 40.0);
        assert_eq!(
            spec.faults,
            vec![(60.0, FedFault::Disconnect(1)), (120.0, FedFault::Heal(1))]
        );
        assert_eq!(m.assertions.total_nodes, Some(48));
    }

    /// The negative-parse pin: every typo class is a hard error that
    /// names a line, never a silent no-op.
    #[test]
    fn rejects_bad_manifests_with_context() {
        let cases: &[(&str, &str, &str)] = &[
            ("no version", "name = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10", "scenario_version"),
            (
                "future version",
                "scenario_version = 2\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10",
                "unsupported scenario_version 2",
            ),
            (
                "typo'd top key",
                "scenario_version = 1\nname = \"x\"\nsede = 3\n[cluster]\nnodes = 4\n[run]\nduration = 10",
                "unknown key `sede`",
            ),
            (
                "typo'd fault kind",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [[fault]]\nat = 1\nkind = \"pannic\"\nnode = 1",
                "unknown fault kind \"pannic\"",
            ),
            (
                "unknown fault operand",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [[fault]]\nat = 1\nkind = \"kernel-panic\"\nnode = 1\nrack = 0",
                "does not take `rack`",
            ),
            (
                "node out of range",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [[fault]]\nat = 1\nkind = \"kernel-panic\"\nnode = 4",
                "out of range",
            ),
            (
                "rack out of range",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 40\n[run]\nduration = 10\n\
                 [[fault]]\nat = 1\nkind = \"partition-rack\"\nrack = 4",
                "out of range",
            ),
            (
                "fault after the end",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [[fault]]\nat = 11\nkind = \"kernel-panic\"\nnode = 1",
                "outside the run",
            ),
            (
                "partition without rack network",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 40\nrack_network = false\n\
                 [run]\nduration = 10\n[[fault]]\nat = 1\nkind = \"partition-rack\"\nrack = 0",
                "rack_network",
            ),
            (
                "both modes",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n\
                 [federation]\nclusters = 2\nnodes_per_cluster = 4\n[run]\nduration = 10",
                "mutually exclusive",
            ),
            (
                "neither mode",
                "scenario_version = 1\nname = \"x\"\n[run]\nduration = 10",
                "needs a [cluster] or [federation]",
            ),
            (
                "fed assertion in chaos mode",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [assertions]\ncensus_match = true",
                "only applies to [federation]",
            ),
            (
                "chaos assertion in fed mode",
                "scenario_version = 1\nname = \"x\"\n[federation]\nclusters = 2\nnodes_per_cluster = 4\n\
                 [run]\nduration = 10\n[assertions]\nmin_availability = 0.5",
                "only applies to [cluster]",
            ),
            (
                "invariants in fed mode",
                "scenario_version = 1\nname = \"x\"\n[federation]\nclusters = 2\nnodes_per_cluster = 4\n\
                 [run]\nduration = 10\n[invariants]\nfreshness = 60",
                "only applies to [cluster]",
            ),
            (
                "fed fault in chaos mode",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [[fault]]\nat = 1\nkind = \"cluster-disconnect\"\ncluster = 0",
                "federation fault",
            ),
            (
                "unknown section",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [clutser]\nnodes = 4",
                "unknown section",
            ),
            (
                "wrong value type",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = \"forty\"\n[run]\nduration = 10",
                "must be an integer",
            ),
            (
                "bad audit hash",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [assertions]\naudit_hash = \"xyz\"",
                "16 hex digits",
            ),
            (
                "missing run",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4",
                "[run]",
            ),
        ];
        for (what, text, needle) in cases {
            let e = Manifest::parse(text).expect_err(what);
            assert!(e.0.contains(needle), "{what}: {e}");
        }
    }

    /// A duration that rounds to 0 ns on the simulation grid is
    /// rejected at parse time, naming its line: a zero-length uplink
    /// would never advance the federation's epoch loop.
    #[test]
    fn sub_nanosecond_durations_are_rejected() {
        let fed = |uplink: &str| {
            format!(
                "scenario_version = 1\nname = \"x\"\n[federation]\nclusters = 2\n\
                 nodes_per_cluster = 4\nuplink = {uplink}\n[run]\nduration = 10"
            )
        };
        let e = Manifest::parse(&fed("1e-12")).expect_err("zero-length uplink");
        assert!(e.0.starts_with("line 6: `uplink`"), "{e}");
        assert!(e.0.contains("rounds to 0 ns"), "{e}");
        // tiny but non-zero is still a valid interval
        assert!(Manifest::parse(&fed("1e-6")).is_ok());

        let chaos = "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n\
                     [run]\nduration = 10\n[invariants]\nfreshness = 4e-10";
        let e = Manifest::parse(chaos).expect_err("zero-length freshness");
        assert!(e.0.starts_with("line 8: `freshness`"), "{e}");
    }

    #[test]
    fn audit_hash_assertion_accepts_both_hex_spellings() {
        for spelling in ["\"0xdeadbeefdeadbeef\"", "\"deadbeefdeadbeef\""] {
            let text = format!(
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [assertions]\naudit_hash = {spelling}"
            );
            let m = Manifest::parse(&text).expect(spelling);
            assert_eq!(m.assertions.audit_hash, Some(0xdead_beef_dead_beef));
        }
    }
}
