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

use crate::fault::{all_operands, Arg, FaultKind, FaultMode, KindRow, Operand, Read, KINDS};
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
    /// Scheduled faults, run-relative seconds, in manifest order. The
    /// parser admits only kinds of this manifest's mode.
    pub faults: Vec<(f64, FaultKind)>,
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

/// The `[section]` names a manifest may use.
#[rustfmt::skip]
const SECTIONS: [&str; 7] =
    ["cluster", "federation", "run", "invariants", "limits", "assertions", "checkpoints"];

// ---------- typed value extraction ----------

/// The error for an entry whose value is not `what` its key takes.
fn wrong_type<T>(e: &Entry, what: &str) -> Result<T, ManifestError> {
    let got = e.value.type_name();
    err(format!(
        "line {}: `{}` must be {what}, got {got}",
        e.line, e.key
    ))
}

fn want_int(e: &Entry) -> Result<i64, ManifestError> {
    match e.value {
        Value::Int(i) => Ok(i),
        _ => wrong_type(e, "an integer"),
    }
}

fn want_u64(e: &Entry) -> Result<u64, ManifestError> {
    let i = want_int(e)?;
    u64::try_from(i)
        .map_err(|_| ManifestError(format!("line {}: `{}` must be nonnegative", e.line, e.key)))
}

/// A nonnegative integer that fits `T`.
fn want_uint<T: TryFrom<u64>>(e: &Entry) -> Result<T, ManifestError> {
    T::try_from(want_u64(e)?)
        .map_err(|_| ManifestError(format!("line {}: `{}` is too large", e.line, e.key)))
}

/// A positive integer that fits `T`.
fn want_positive<T: TryFrom<u64>>(e: &Entry) -> Result<T, ManifestError> {
    if want_u64(e)? == 0 {
        return err(format!("line {}: `{}` must be positive", e.line, e.key));
    }
    want_uint(e)
}

fn want_f64(e: &Entry) -> Result<f64, ManifestError> {
    match e.value {
        Value::Int(i) => Ok(i as f64),
        Value::Float(x) => Ok(x),
        _ => wrong_type(e, "a number"),
    }
}

/// A number within 0..=1.
fn want_share(e: &Entry) -> Result<f64, ManifestError> {
    let x = want_f64(e)?;
    if !(0.0..=1.0).contains(&x) {
        return err(format!("line {}: `{}` must be within 0..=1", e.line, e.key));
    }
    Ok(x)
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
        _ => wrong_type(e, "a string"),
    }
}

fn want_bool(e: &Entry) -> Result<bool, ManifestError> {
    match e.value {
        Value::Bool(b) => Ok(b),
        _ => wrong_type(e, "a boolean"),
    }
}

/// Reads one section. Each read of a key, with the function that types
/// and range-checks its value, is that key's declaration: [`Self::finish`]
/// rejects any entry no read asked for and lists the keys that were.
struct Section<'a> {
    /// How messages name the section (`[run]`, `the top level`).
    name: &'static str,
    /// The section's entries (`None`: the manifest leaves it out).
    table: Option<&'a Table>,
    /// Keys read so far, in read order.
    read: Vec<&'static str>,
}

impl<'a> Section<'a> {
    fn new(name: &'static str, table: Option<&'a Table>) -> Section<'a> {
        Section {
            name,
            table,
            read: Vec::new(),
        }
    }

    /// Declare `key`: its entry, when the section has one.
    fn entry(&mut self, key: &'static str) -> Option<&'a Entry> {
        self.read.push(key);
        self.table?.get(key)
    }

    /// Declare `key` and read its value with `want`.
    fn get<T>(
        &mut self,
        key: &'static str,
        want: impl FnOnce(&'a Entry) -> Result<T, ManifestError>,
    ) -> Result<Option<T>, ManifestError> {
        self.entry(key).map(want).transpose()
    }

    /// [`Self::get`] for a key the section must have.
    fn need<T>(
        &mut self,
        key: &'static str,
        want: impl FnOnce(&'a Entry) -> Result<T, ManifestError>,
    ) -> Result<T, ManifestError> {
        self.get(key, want)?.ok_or_else(|| {
            let line = self.table.map_or(0, |t| t.line);
            ManifestError(format!("line {line}: {} needs `{key}`", self.name))
        })
    }

    /// Reject the first entry no read declared.
    fn finish(self) -> Result<(), ManifestError> {
        let entries = self.table.map_or(&[][..], |t| &t.entries);
        match entries
            .iter()
            .find(|e| !self.read.contains(&e.key.as_str()))
        {
            Some(e) => err(format!(
                "line {}: unknown key `{}` in {} (legal keys: {})",
                e.line,
                e.key,
                self.name,
                self.read.join(", ")
            )),
            None => Ok(()),
        }
    }
}

// ---------- fault lowering ----------

/// What a `[[fault]]` entry is checked against.
struct FaultScope {
    mode: FaultMode,
    duration_secs: f64,
    n_nodes: u32,
    n_racks: usize,
    clusters: u16,
    rack_network: bool,
}

impl FaultScope {
    /// Read one operand's value and check its range.
    fn read(&self, op: &Operand, e: &Entry) -> Result<Arg, ManifestError> {
        let below = |bound: usize, of: String| {
            let i = want_u64(e)?;
            if i >= bound as u64 {
                return err(format!(
                    "line {}: {} {i} is out of range {of}",
                    e.line, op.key
                ));
            }
            Ok(Arg::Int(i))
        };
        let (nodes, racks, clusters) = (self.n_nodes, self.n_racks, self.clusters);
        match op.read {
            Read::Rack => below(racks, format!("(fleet of {nodes} nodes has {racks} racks)")),
            Read::Node => below(nodes as usize, format!("for a fleet of {nodes} nodes")),
            Read::Cluster => below(clusters as usize, format!("for a federation of {clusters}")),
            Read::Secs => want_pos_f64(e).map(Arg::Num),
            Read::Share => want_share(e).map(Arg::Num),
            Read::Positive => want_positive(e).map(Arg::Int),
            Read::Number => want_f64(e).map(Arg::Num),
        }
    }
}

/// Lower one `[[fault]]` entry: its time, then its kind (known, and of
/// this scenario's mode), then exactly the operands its row declares.
fn lower_fault(t: &Table, scope: &FaultScope) -> Result<(f64, FaultKind), ManifestError> {
    let mut s = Section::new("[[fault]]", Some(t));
    let at = s.need("at", want_f64)?;
    if !(0.0..=scope.duration_secs).contains(&at) {
        return err(format!(
            "line {}: fault time {at} is outside the run's [0, {}] window",
            t.line, scope.duration_secs
        ));
    }
    let (name, kind_line) = s.need("kind", |e| Ok((want_str(e)?, e.line)))?;
    let Some(row) = KindRow::named(name) else {
        let legal = KINDS.iter().filter(|k| k.mode == scope.mode);
        let legal: Vec<_> = legal.map(|k| k.slug).collect();
        return err(format!(
            "line {kind_line}: unknown fault kind {name:?} (one of: {})",
            legal.join(", ")
        ));
    };
    if row.mode != scope.mode {
        return err(format!(
            "line {kind_line}: `{name}` is a {} fault; this is a [{}] scenario",
            row.mode.name(),
            scope.mode.name()
        ));
    }
    for op in all_operands() {
        if s.entry(op.key).is_some() && !row.operands.contains(op) {
            return err(format!(
                "line {}: `{name}` does not take `{}`",
                t.line, op.key
            ));
        }
    }
    s.finish()?;
    let args = row.operands.iter().map(|op| match t.get(op.key) {
        Some(e) => scope.read(op, e),
        None => err(format!("line {}: `{name}` needs `{}`", t.line, op.key)),
    });
    let kind = (row.build)(&args.collect::<Result<Vec<_>, _>>()?);
    if matches!(kind, FaultKind::PartitionRack(_) | FaultKind::HealRack(_)) && !scope.rack_network {
        return err(format!(
            "line {}: `{name}` needs `rack_network = true` in [cluster]",
            t.line
        ));
    }
    Ok((at, kind))
}

// ---------- section lowering ----------

fn lower_assertions(t: Option<&Table>, mode: FaultMode) -> Result<Assertions, ManifestError> {
    use FaultMode::{Cluster, Federation};
    let mut s = Section::new("[assertions]", t);
    // each assertion applies to one mode; naming it in the other is an error
    let mut key = |key: &'static str, applies: FaultMode| match s.entry(key) {
        Some(e) if applies != mode => err(format!(
            "line {}: assertion `{key}` only applies to [{}] scenarios",
            e.line,
            applies.name()
        )),
        e => Ok(e),
    };
    let a = Assertions {
        min_availability: key("min_availability", Cluster)?
            .map(want_share)
            .transpose()?,
        final_up: key("final_up", Cluster)?.map(want_final_up).transpose()?,
        max_emails: key("max_emails", Cluster)?.map(want_u64).transpose()?,
        quarantined_empty: key("quarantined_empty", Cluster)?
            .map(want_bool)
            .transpose()?,
        audit_hash: key("audit_hash", Cluster)?.map(want_hash).transpose()?,
        census_match: key("census_match", Federation)?
            .map(want_bool)
            .transpose()?,
        total_nodes: key("total_nodes", Federation)?.map(want_u64).transpose()?,
    };
    s.finish()?;
    Ok(a)
}

fn want_final_up(e: &Entry) -> Result<FinalUp, ManifestError> {
    match &e.value {
        Value::Str(s) if s == "all" => Ok(FinalUp::All),
        Value::Int(i) if *i >= 0 => Ok(FinalUp::Exactly(*i as u64)),
        v => err(format!(
            "line {}: `final_up` must be \"all\" or a nonnegative integer, got {v}",
            e.line
        )),
    }
}

/// 16 hex digits, with or without a `0x` prefix.
fn want_hash(e: &Entry) -> Result<u64, ManifestError> {
    let s = want_str(e)?;
    let hex = s.strip_prefix("0x").unwrap_or(s);
    let parsed = (hex.len() == 16)
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten();
    parsed.ok_or_else(|| {
        ManifestError(format!(
            "line {}: `audit_hash` must be 16 hex digits, got {s:?}",
            e.line
        ))
    })
}

/// Lower `[checkpoints] at = [...]`: strictly ascending simulated
/// seconds inside `[0, duration + settle]`.
fn lower_checkpoints(t: Option<&Table>, horizon: f64) -> Result<Vec<f64>, ManifestError> {
    if t.is_none() {
        return Ok(Vec::new());
    }
    let mut s = Section::new("[checkpoints]", t);
    let at = s.need("at", |e| {
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
        Ok(times)
    })?;
    s.finish()?;
    Ok(at)
}

impl Manifest {
    /// Parse and fully validate a v1 manifest.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let doc = toml::parse(text)?;

        let mut top = Section::new("the top level", Some(&doc.top));
        let version = top.get("scenario_version", want_int)?;
        let name = top.get("name", want_str)?;
        let seed = top.get("seed", want_u64)?.unwrap_or(0);
        top.finish()?;
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
            if !SECTIONS.contains(&t.name.as_str()) {
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

        let run = doc
            .table("run")
            .ok_or_else(|| ManifestError("missing required section [run]".to_string()))?;
        let mut s = Section::new("[run]", Some(run));
        let duration_secs = s.need("duration", want_pos_f64)?;
        let settle_secs = s.get("settle", |e| {
            let x = want_f64(e)?;
            if x < 0.0 {
                return err(format!("line {}: `settle` must be nonnegative", e.line));
            }
            Ok(x)
        })?;
        s.finish()?;

        let mut s = Section::new("[limits]", doc.table("limits"));
        let limits = Limits {
            max_wall_ms: s.get("max_wall_ms", want_positive)?,
        };
        s.finish()?;

        let (mode, scope) = match (doc.table("cluster"), doc.table("federation")) {
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
                let mut s = Section::new("[cluster]", Some(cluster));
                let n_nodes: u32 = s.need("nodes", want_positive)?;
                let rack_network = s.get("rack_network", want_bool)?.unwrap_or(true);
                let flap_threshold = s.get("flap_threshold", want_uint)?;
                let quarantine_release_secs = s.get("quarantine_release", want_pos_f64)?;
                s.finish()?;

                let mut s = Section::new("[invariants]", doc.table("invariants"));
                let mut policy = InvariantPolicy::default();
                if let Some(x) = s.get("check_every", want_pos_f64)? {
                    policy.check_every_secs = x;
                }
                if let Some(x) = s.get("transient_deadline", want_pos_f64)? {
                    policy.transient_deadline_secs = x;
                }
                if let Some(x) = s.get("freshness", want_pos_f64)? {
                    policy.freshness_secs = x;
                }
                s.finish()?;

                let scope = FaultScope {
                    mode: FaultMode::Cluster,
                    duration_secs,
                    n_nodes,
                    n_racks: (n_nodes as usize).div_ceil(NODE_PORTS),
                    clusters: 0,
                    rack_network,
                };
                let spec = ChaosSpec {
                    n_nodes,
                    rack_network,
                    flap_threshold,
                    quarantine_release_secs,
                    policy,
                };
                (Mode::Chaos(spec), scope)
            }
            (None, Some(fed)) => {
                if let Some(t) = doc.table("invariants") {
                    return err(format!(
                        "line {}: [invariants] only applies to [cluster] scenarios",
                        t.line
                    ));
                }
                let mut s = Section::new("[federation]", Some(fed));
                let spec = FedSpec {
                    clusters: s.need("clusters", want_positive)?,
                    nodes_per_cluster: s.need("nodes_per_cluster", want_positive)?,
                    uplink_secs: s.get("uplink", want_pos_f64)?.unwrap_or(10.0),
                    stale_after_secs: s.get("stale_after", want_pos_f64)?.unwrap_or(40.0),
                };
                s.finish()?;
                let scope = FaultScope {
                    mode: FaultMode::Federation,
                    duration_secs,
                    n_nodes: 0,
                    n_racks: 0,
                    clusters: spec.clusters,
                    rack_network: false,
                };
                (Mode::Federation(spec), scope)
            }
        };
        let faults = doc
            .arrays_named("fault")
            .map(|t| lower_fault(t, &scope))
            .collect::<Result<_, _>>()?;

        let assertions = lower_assertions(doc.table("assertions"), scope.mode)?;
        let settle_default = if scope.mode == FaultMode::Cluster {
            600.0
        } else {
            0.0
        };
        let settle_secs = settle_secs.unwrap_or(settle_default);
        let checkpoints = lower_checkpoints(doc.table("checkpoints"), duration_secs + settle_secs)?;
        Ok(Manifest {
            name: name.to_string(),
            seed,
            duration_secs,
            settle_secs,
            mode,
            faults,
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

    /// Number of scheduled faults.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// The fault schedule in chronological order, rendered for reports:
    /// `(seconds, description)`. Ties keep manifest order (the order
    /// the runner applies them in).
    pub fn fault_schedule(&self) -> Vec<(f64, String)> {
        let mut v: Vec<(f64, String)> = self
            .faults
            .iter()
            .map(|(at, kind)| (*at, kind.to_string()))
            .collect();
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
        m.faults.sort_by(|a, b| a.0.total_cmp(&b.0));
        m.faults.truncate(k);
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
        assert_eq!(m.faults.len(), 3);
        assert_eq!(m.faults[0], (100.0, FaultKind::KernelPanic(7)));
        assert_eq!(m.faults[1], (200.0, FaultKind::PartitionRack(2)));
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
            m.faults,
            vec![
                (60.0, FaultKind::ClusterDisconnect(1)),
                (120.0, FaultKind::ClusterHeal(1))
            ]
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
                "fault operand out of range",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 40\n[run]\nduration = 10\n\
                 [[fault]]\nat = 1\nkind = \"rack-bandwidth\"\nrack = 0\nbps = 0",
                "line 11: `bps` must be positive",
            ),
            (
                "chaos fault in fed mode",
                "scenario_version = 1\nname = \"x\"\n[federation]\nclusters = 2\nnodes_per_cluster = 4\n\
                 [run]\nduration = 10\n[[fault]]\nat = 1\nkind = \"kernel-panic\"\nnode = 1",
                "`kernel-panic` is a cluster fault; this is a [federation] scenario",
            ),
            (
                "typo'd fed fault kind without its operand",
                "scenario_version = 1\nname = \"x\"\n[federation]\nclusters = 2\nnodes_per_cluster = 4\n\
                 [run]\nduration = 10\n[[fault]]\nat = 1\nkind = \"cluster-disconect\"",
                "unknown fault kind \"cluster-disconect\"",
            ),
            (
                "typo'd fault operand",
                "scenario_version = 1\nname = \"x\"\n[cluster]\nnodes = 4\n[run]\nduration = 10\n\
                 [[fault]]\nat = 1\nkind = \"kernel-panic\"\nnod = 1",
                "unknown key `nod` in [[fault]] \
                 (legal keys: at, kind, rack, loss, bps, chassis, node, secs, delta, cluster)",
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
