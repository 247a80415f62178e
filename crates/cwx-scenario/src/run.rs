//! The headless scenario runtime: execute a validated [`Manifest`],
//! evaluate its invariants and assertions, and render machine-readable
//! artifacts (`result.json`, JUnit XML) plus a stable exit code.
//!
//! Artifact determinism is a contract: everything inside the result
//! body is a pure function of (manifest, seed), and the body's FNV-1a
//! fingerprint pins it. Wall-clock measurements live in a separate
//! `timing` section appended *after* the fingerprint is computed, so
//! they can never leak into it.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use clusterworx::World;
use cwx_fed::{FederationConfig, FederationSim};
use cwx_util::snapshot::SnapshotFile;
use cwx_util::time::SimDuration;

use crate::artifact::{esc_json, fnv1a, json_num, junit_xml, AssertionResult, JunitCase};
use crate::chaos::{run_chaos_observed, CampaignReport};
use crate::coverage::{scale_band, state_slug, CoverageRun};
use crate::fault::FaultKind;
use crate::invariants::INVARIANT_NAMES;
use crate::manifest::{Assertions, ChaosSpec, FedSpec, FinalUp, Manifest, Mode};
use crate::snapshot::{
    build_snapshot, check_resumable, effective_times, fed_segment_ends, horizon_nanos,
    secs_to_nanos,
};

/// World sections captured at one instant, as an engine produced them.
type Captured = Vec<(u64, Vec<(String, Vec<u8>)>)>;

/// How a scenario run ended, in exit-code order. These four codes are
/// the CLI-wide contract: every `cwx` subcommand exits with one of
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every invariant held and every assertion passed.
    Pass,
    /// An `[assertions]` demand failed.
    AssertionFail,
    /// The management plane broke one of its own invariants.
    InvariantViolation,
    /// The run itself could not proceed (bad manifest, I/O failure,
    /// blown resource limit).
    Error,
}

impl Outcome {
    /// The process exit code: 0 pass, 1 assertion failure, 2 invariant
    /// violation, 3 manifest/operational error.
    pub fn exit_code(self) -> i32 {
        match self {
            Outcome::Pass => 0,
            Outcome::AssertionFail => 1,
            Outcome::InvariantViolation => 2,
            Outcome::Error => 3,
        }
    }

    /// Stable name artifacts carry.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Pass => "pass",
            Outcome::AssertionFail => "assertion-fail",
            Outcome::InvariantViolation => "invariant-violation",
            Outcome::Error => "error",
        }
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Final outcome (wall-limit breaches included).
    pub outcome: Outcome,
    /// FNV-1a fingerprint of the deterministic result body.
    pub fingerprint: u64,
    /// The full `result.json` document (body + fingerprint + timing).
    pub result_json: String,
    /// JUnit XML for CI ingestion.
    pub junit: String,
    /// This run's coverage contribution.
    pub coverage: CoverageRun,
    /// Human-readable summary lines for the CLI to print.
    pub summary: Vec<String>,
    /// World snapshots captured at the requested instants (manifest
    /// `[checkpoints]` plus `--snapshot-at`), ready to encode to disk.
    /// Capture is fingerprint-neutral: the same run with no snapshots
    /// produces the identical `fingerprint`.
    pub snapshots: Vec<SnapshotFile>,
    /// Name of the first failed JUnit case (`invariant:NAME` or
    /// `assert:NAME`), when the run did not pass — what `cwx bisect`
    /// reports as the violated promise.
    pub first_failure: Option<String>,
}

/// Snapshot capture/resume options for [`run_scenario_with`].
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Extra capture instants in simulated seconds (the CLI's
    /// `--snapshot-at`), merged with the manifest's `[checkpoints]`.
    pub snapshot_at: Vec<f64>,
    /// Resume from this snapshot: re-derive the world from (manifest,
    /// seed), replay to the snapshot instant with fingerprint-neutral
    /// splits, byte-verify every section against the file, then
    /// continue. Verification failure is a hard error, not a warning.
    pub resume: Option<SnapshotFile>,
}

/// Execute a manifest headlessly and render its artifacts.
pub fn run_scenario(m: &Manifest) -> ScenarioResult {
    run_scenario_with(m, &RunOptions::default()).expect("a run without resume options cannot fail")
}

/// [`run_scenario`] with snapshot capture and resume. Errors are
/// single-line operational failures (exit 3 at the CLI): an invalid
/// capture time, an unacceptable snapshot file, or a resume replay
/// that diverged from the file.
pub fn run_scenario_with(m: &Manifest, opts: &RunOptions) -> Result<ScenarioResult, String> {
    let t0 = Instant::now();

    // the capture plan: manifest checkpoints + CLI instants + (for
    // resume) the snapshot's own instant, on the nanosecond grid
    let total_n = horizon_nanos(m);
    let mut emit_n: Vec<u64> = m.checkpoints.iter().map(|&t| secs_to_nanos(t)).collect();
    for &t in &opts.snapshot_at {
        if !t.is_finite() || t < 0.0 {
            return Err(format!("snapshot time {t} is not a valid instant"));
        }
        let n = secs_to_nanos(t);
        if n > total_n {
            return Err(format!(
                "snapshot time {t}s is beyond this run's horizon of {}s",
                total_n as f64 / 1e9
            ));
        }
        emit_n.push(n);
    }
    // federation pauses only on uplink-epoch boundaries
    let emit_n = effective_times(m, &emit_n);
    let mut at_nanos = emit_n.clone();
    if let Some(file) = &opts.resume {
        check_resumable(m, file)?;
        at_nanos.push(file.t_nanos);
        at_nanos.sort_unstable();
        at_nanos.dedup();
        if effective_times(m, &[file.t_nanos]) != [file.t_nanos] {
            return Err(format!(
                "snapshot instant {}s does not land on an uplink-epoch boundary of this \
                 schedule (was it taken under a different fault schedule?)",
                file.t_nanos as f64 / 1e9
            ));
        }
    }

    let mut captured: Captured = Vec::new();
    let (body_tail, cases, coverage, mut summary, sim_outcome) = match &m.mode {
        Mode::Chaos(spec) => chaos_output(m, spec, &at_nanos, &mut captured),
        Mode::Federation(spec) => run_federation(m, spec, &at_nanos, &mut captured),
    };

    // verified replay: the rebuilt world at the snapshot instant must
    // byte-match the file, section by section
    if let Some(file) = &opts.resume {
        let live = captured
            .iter()
            .find(|(t, _)| *t == file.t_nanos)
            .map(|(_, s)| s)
            .ok_or_else(|| {
                format!(
                    "snapshot instant {}s was never reached by the replay",
                    file.t_nanos as f64 / 1e9
                )
            })?;
        verify_sections(file, live)?;
        summary.insert(
            0,
            format!(
                "resumed from snapshot at t={}s: all {} sections verified bit-exact",
                file.t_nanos as f64 / 1e9,
                live.len()
            ),
        );
    }
    let snapshots: Vec<SnapshotFile> = captured
        .into_iter()
        .filter(|(t, _)| emit_n.contains(t))
        .map(|(t, sections)| build_snapshot(m, t, sections))
        .collect();
    let first_failure = cases
        .iter()
        .find(|c| c.failure.is_some())
        .map(|c| c.name.clone());
    let wall_ms = t0.elapsed().as_millis() as u64;

    // deterministic body: pure function of (manifest, seed)
    let mut body = format!(
        "{{\"schema\":\"cwx-result-v1\",\"name\":\"{}\",\"seed\":{},\"outcome\":\"{}\",\"exit_code\":{}",
        esc_json(&m.name),
        m.seed,
        sim_outcome.as_str(),
        sim_outcome.exit_code()
    );
    body.push_str(&body_tail);
    body.push('}');
    let fingerprint = fnv1a(body.as_bytes());

    // the wall clock rides outside the fingerprint, always
    let exceeded = m.limits.max_wall_ms.is_some_and(|mx| wall_ms > mx);
    let mut timing = format!("\"wall_ms\":{wall_ms}");
    if let Some(mx) = m.limits.max_wall_ms {
        let _ = write!(timing, ",\"max_wall_ms\":{mx},\"exceeded\":{exceeded}");
    }
    let mut result_json = body;
    result_json.pop();
    let _ = write!(
        result_json,
        ",\"fingerprint\":\"{fingerprint:016x}\",\"timing\":{{{timing}}}}}"
    );

    let outcome = if exceeded {
        summary.push(format!(
            "wall limit exceeded: {wall_ms}ms > {}ms",
            m.limits.max_wall_ms.unwrap_or(0)
        ));
        Outcome::Error
    } else {
        sim_outcome
    };
    summary.push(format!(
        "outcome: {} (exit {}) | fingerprint {fingerprint:016x}",
        outcome.as_str(),
        outcome.exit_code()
    ));

    Ok(ScenarioResult {
        outcome,
        fingerprint,
        result_json,
        junit: junit_xml(&m.name, &cases, wall_ms as f64 / 1000.0),
        coverage,
        summary,
        snapshots,
        first_failure,
    })
}

/// Byte-compare a snapshot file against the sections the replay
/// captured at the same instant, naming the first divergence.
fn verify_sections(file: &SnapshotFile, live: &[(String, Vec<u8>)]) -> Result<(), String> {
    for ((fname, fbytes), (lname, lbytes)) in file.sections.iter().zip(live) {
        if fname != lname {
            return Err(format!(
                "resume verification failed: section order diverged (file has `{fname}`, \
                 replay produced `{lname}`)"
            ));
        }
        if fbytes != lbytes {
            return Err(format!(
                "resume verification failed: section `{fname}` diverged — the replayed world \
                 does not match the snapshot (different build or corrupted capture?)"
            ));
        }
    }
    if file.sections.len() != live.len() {
        return Err(format!(
            "resume verification failed: snapshot has {} sections, replay produced {}",
            file.sections.len(),
            live.len()
        ));
    }
    Ok(())
}

type ModeOutput = (String, Vec<JunitCase>, CoverageRun, Vec<String>, Outcome);

/// A run's coverage: every injected kind × every lifecycle state any
/// node of `worlds` touched, at the scale band of all their nodes.
fn coverage_of<'w>(m: &Manifest, worlds: impl IntoIterator<Item = &'w World>) -> CoverageRun {
    let (mut states, mut n_nodes) = (BTreeSet::new(), 0);
    for w in worlds {
        n_nodes += w.nodes.len() as u32;
        let lc = w.control.lifecycle();
        for t in w.control.transitions() {
            states.insert(state_slug(t.from));
            states.insert(state_slug(t.to));
        }
        for node in 0..w.nodes.len() as u32 {
            states.insert(state_slug(lc.state(node)));
        }
    }
    CoverageRun {
        scale: scale_band(n_nodes),
        faults: m.faults.iter().map(|(_, kind)| kind.slug()).collect(),
        states,
    }
}

fn push_assert(
    cases: &mut Vec<JunitCase>,
    results: &mut Vec<AssertionResult>,
    name: &str,
    expected: String,
    actual: String,
    ok: bool,
) {
    cases.push(JunitCase {
        name: format!("assert:{name}"),
        failure: (!ok).then(|| format!("expected {expected}, got {actual}")),
    });
    results.push(AssertionResult {
        name: name.to_string(),
        expected,
        actual,
        ok,
    });
}

fn assertions_json(results: &[AssertionResult]) -> String {
    let items = results
        .iter()
        .map(AssertionResult::to_json)
        .collect::<Vec<_>>()
        .join(",");
    format!("\"assertions\":[{items}]")
}

fn outcome_of(any_violation: bool, asserts: &[AssertionResult]) -> Outcome {
    if any_violation {
        Outcome::InvariantViolation
    } else if asserts.iter().any(|a| !a.ok) {
        Outcome::AssertionFail
    } else {
        Outcome::Pass
    }
}

fn chaos_output(
    m: &Manifest,
    spec: &ChaosSpec,
    at_nanos: &[u64],
    captured: &mut Captured,
) -> ModeOutput {
    let (report, sim) = run_chaos_observed(m, at_nanos, &mut |t, sim| {
        captured.push((t, clusterworx::snapshot::capture_sections(sim)))
    });

    let coverage = coverage_of(m, [sim.world()]);

    // one JUnit case per invariant promise
    let mut cases = Vec::new();
    let mut invariants_json = String::from("\"invariants\":[");
    for (i, name) in INVARIANT_NAMES.iter().enumerate() {
        let broken: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.invariant == *name)
            .collect();
        cases.push(JunitCase {
            name: format!("invariant:{name}"),
            failure: broken
                .first()
                .map(|v| format!("{} violation(s); first: {v}", broken.len())),
        });
        if i > 0 {
            invariants_json.push(',');
        }
        let first = broken
            .first()
            .map(|v| format!("\"{}\"", esc_json(&v.to_string())))
            .unwrap_or_else(|| "null".to_string());
        let _ = write!(
            invariants_json,
            "{{\"name\":\"{name}\",\"violations\":{},\"first\":{first}}}",
            broken.len()
        );
    }
    invariants_json.push(']');

    let mut asserts = Vec::new();
    eval_chaos_assertions(
        &m.assertions,
        spec.n_nodes,
        &report,
        &mut cases,
        &mut asserts,
    );
    let outcome = outcome_of(!report.violations.is_empty(), &asserts);

    let tail = format!(
        ",\"mode\":\"chaos\",\"nodes\":{},\"duration_secs\":{},\"settle_secs\":{},\
         \"audit\":{{\"hash\":\"{:016x}\",\"records\":{}}},\
         \"metrics\":{{\"availability\":{},\"detection_latency_secs\":{},\"mttr_secs\":{},\
         \"final_up\":{},\"quarantined\":{},\"emails\":{},\"storms\":{}}},\
         {invariants_json},{},\"coverage\":{}",
        spec.n_nodes,
        json_num(m.duration_secs),
        json_num(m.settle_secs),
        report.audit_hash,
        report.audit_len,
        json_num(report.availability),
        json_num(report.detection_latency_secs),
        json_num(report.mttr_secs),
        report.final_up,
        report.quarantined.len(),
        report.emails,
        report.storms,
        assertions_json(&asserts),
        coverage.to_json()
    );

    let summary = vec![
        format!(
            "chaos `{}`: {} nodes, {}s + {}s settle, seed {}, {} faults",
            m.name,
            spec.n_nodes,
            m.duration_secs,
            m.settle_secs,
            m.seed,
            m.faults.len()
        ),
        format!(
            "availability {:.4} | detection {:.1}s | mttr {:.1}s | {} up | {} quarantined | {} emails",
            report.availability,
            report.detection_latency_secs,
            report.mttr_secs,
            report.final_up,
            report.quarantined.len(),
            report.emails
        ),
        format!(
            "audit {:016x} ({} records) | {} invariant violation(s)",
            report.audit_hash,
            report.audit_len,
            report.violations.len()
        ),
    ];
    (tail, cases, coverage, summary, outcome)
}

fn eval_chaos_assertions(
    a: &Assertions,
    n_nodes: u32,
    report: &CampaignReport,
    cases: &mut Vec<JunitCase>,
    out: &mut Vec<AssertionResult>,
) {
    if let Some(min) = a.min_availability {
        push_assert(
            cases,
            out,
            "min_availability",
            format!(">= {min}"),
            format!("{:.4}", report.availability),
            report.availability >= min,
        );
    }
    if let Some(want) = a.final_up {
        let expected = match want {
            FinalUp::All => n_nodes as u64,
            FinalUp::Exactly(n) => n,
        };
        push_assert(
            cases,
            out,
            "final_up",
            format!("{expected}"),
            format!("{}", report.final_up),
            report.final_up as u64 == expected,
        );
    }
    if let Some(max) = a.max_emails {
        push_assert(
            cases,
            out,
            "max_emails",
            format!("<= {max}"),
            format!("{}", report.emails),
            report.emails as u64 <= max,
        );
    }
    if let Some(true) = a.quarantined_empty {
        push_assert(
            cases,
            out,
            "quarantined_empty",
            "[]".to_string(),
            format!("{:?}", report.quarantined),
            report.quarantined.is_empty(),
        );
    }
    if let Some(hash) = a.audit_hash {
        push_assert(
            cases,
            out,
            "audit_hash",
            format!("{hash:016x}"),
            format!("{:016x}", report.audit_hash),
            report.audit_hash == hash,
        );
    }
}

fn run_federation(
    m: &Manifest,
    spec: &FedSpec,
    at_nanos: &[u64],
    captured: &mut Captured,
) -> ModeOutput {
    let mut cfg = FederationConfig::uniform(spec.clusters, spec.nodes_per_cluster, m.seed);
    cfg.uplink_interval = SimDuration::from_secs_f64(spec.uplink_secs);
    cfg.stale_after = SimDuration::from_secs_f64(spec.stale_after_secs);
    let mut fed = FederationSim::build(cfg);

    // piecewise advance on the nanosecond grid: each distinct fault
    // instant ends a segment, and capture instants (already aligned to
    // uplink-epoch boundaries by the caller) split segments without
    // changing the epoch schedule. Captures that coincide with a fault
    // instant see the world *before* the fault applies. Faults on one
    // nanosecond apply in time order, ties in manifest order.
    let mut schedule = m.faults.clone();
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
    let apply = |fed: &mut FederationSim, at: u64| {
        for &(_, kind) in schedule.iter().filter(|f| secs_to_nanos(f.0) == at) {
            match kind {
                FaultKind::ClusterDisconnect(c) => fed.disconnect(c),
                FaultKind::ClusterHeal(c) => fed.heal(c),
                other => unreachable!("a parsed [federation] manifest has no {other}"),
            }
        }
    };
    let mut req = at_nanos.iter().copied().peekable();
    let mut now_n = 0u64;
    if req.peek() == Some(&0) {
        captured.push((0, fed.capture_sections()));
        req.next();
    }
    apply(&mut fed, 0);
    for seg_end in fed_segment_ends(m) {
        while let Some(&t) = req.peek() {
            if t > seg_end {
                break;
            }
            if t > now_n {
                fed.run_for(SimDuration::from_nanos(t - now_n));
                now_n = t;
            }
            captured.push((t, fed.capture_sections()));
            req.next();
        }
        if seg_end > now_n {
            fed.run_for(SimDuration::from_nanos(seg_end - now_n));
            now_n = seg_end;
        }
        apply(&mut fed, seg_end);
    }

    let fleet = fed.aggregate();
    let sum = fed.sub_counts_sum();
    let census_match = fleet.counts == sum;
    let audit_hash = fed.head().audit_hash();
    let (frames, bytes) = fed.uplink_stats();

    let coverage = coverage_of(m, (0..spec.clusters).map(|c| fed.sub_sim(c).world()));

    let mut cases = Vec::new();
    let mut asserts = Vec::new();
    if m.assertions.census_match.unwrap_or(true) {
        push_assert(
            &mut cases,
            &mut asserts,
            "census_match",
            "head census == sub-cluster sum".to_string(),
            format!(
                "head up {} failed {} vs sum up {} failed {}",
                fleet.counts.up, fleet.counts.failed, sum.up, sum.failed
            ),
            census_match,
        );
    }
    if let Some(want) = m.assertions.total_nodes {
        push_assert(
            &mut cases,
            &mut asserts,
            "total_nodes",
            format!("{want}"),
            format!("{}", fleet.total_nodes),
            fleet.total_nodes as u64 == want,
        );
    }
    let outcome = outcome_of(false, &asserts);

    let tail = format!(
        ",\"mode\":\"federation\",\
         \"federation\":{{\"clusters\":{},\"nodes_per_cluster\":{},\"uplink_secs\":{},\"stale_after_secs\":{}}},\
         \"duration_secs\":{},\"settle_secs\":{},\
         \"audit\":{{\"hash\":\"{audit_hash:016x}\"}},\
         \"metrics\":{{\"total_nodes\":{},\"up\":{},\"failed\":{},\"reachable\":{},\"stale\":{},\
         \"census_match\":{census_match},\"uplink_frames\":{frames},\"uplink_bytes\":{bytes}}},\
         \"invariants\":[],{},\"coverage\":{}",
        spec.clusters,
        spec.nodes_per_cluster,
        json_num(spec.uplink_secs),
        json_num(spec.stale_after_secs),
        json_num(m.duration_secs),
        json_num(m.settle_secs),
        fleet.total_nodes,
        fleet.counts.up,
        fleet.counts.failed,
        fleet.reachable,
        fleet.stale,
        assertions_json(&asserts),
        coverage.to_json()
    );

    let summary = vec![
        format!(
            "federation `{}`: {} clusters x {} nodes, {}s + {}s settle, seed {}",
            m.name, spec.clusters, spec.nodes_per_cluster, m.duration_secs, m.settle_secs, m.seed
        ),
        format!(
            "head view: {} nodes | up {} | failed {} | reachable {} | {} stale | census match: {census_match}",
            fleet.total_nodes, fleet.counts.up, fleet.counts.failed, fleet.reachable, fleet.stale
        ),
        format!("audit {audit_hash:016x} | {frames} uplink frames, {bytes} bytes"),
    ];
    (tail, cases, coverage, summary, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
scenario_version = 1
name = "tiny"
seed = 11

[cluster]
nodes = 8

[run]
duration = 120
settle = 120

[[fault]]
at = 30
kind = "agent-crash"
node = 3

[[fault]]
at = 60
kind = "agent-recover"
node = 3

[assertions]
final_up = "all"
"#;

    #[test]
    fn same_manifest_same_seed_same_body() {
        let m = Manifest::parse(TINY).expect("parses");
        let a = run_scenario(&m);
        let b = run_scenario(&m);
        assert_eq!(a.fingerprint, b.fingerprint);
        // the bodies (everything before the fingerprint) are identical;
        // only the timing section may differ
        let cut = |s: &str| s[..s.find(",\"fingerprint\"").expect("fingerprint field")].to_string();
        assert_eq!(cut(&a.result_json), cut(&b.result_json));
        assert_eq!(a.outcome, Outcome::Pass);
        assert!(a.result_json.contains("\"schema\":\"cwx-result-v1\""));
        assert!(a.result_json.contains("\"timing\":{\"wall_ms\":"));
        assert!(a.coverage.faults.contains("agent-crash"));
        assert!(a.coverage.states.contains("Up"));
        assert!(a.junit.contains("invariant:command-accounting"));
        assert!(a.junit.contains("assert:final_up"));
    }

    #[test]
    fn failed_assertion_is_exit_1() {
        let text = TINY.replace("final_up = \"all\"", "max_emails = 0\nfinal_up = \"all\"");
        let m = Manifest::parse(&text).expect("parses");
        let r = run_scenario(&m);
        // the crash alone emails the admin at least once
        assert_eq!(r.outcome, Outcome::AssertionFail);
        assert_eq!(r.outcome.exit_code(), 1);
        assert!(r.result_json.contains("\"outcome\":\"assertion-fail\""));
    }

    #[test]
    fn exit_codes_are_the_documented_ladder() {
        assert_eq!(Outcome::Pass.exit_code(), 0);
        assert_eq!(Outcome::AssertionFail.exit_code(), 1);
        assert_eq!(Outcome::InvariantViolation.exit_code(), 2);
        assert_eq!(Outcome::Error.exit_code(), 3);
    }

    #[test]
    fn chaos_snapshot_capture_is_fingerprint_neutral_and_resumes_bit_exact() {
        let m = Manifest::parse(TINY).expect("parses");
        let plain = run_scenario(&m);
        let opts = RunOptions {
            snapshot_at: vec![50.0],
            resume: None,
        };
        let snapped = run_scenario_with(&m, &opts).expect("capture run");
        // capture must never perturb the run
        assert_eq!(plain.fingerprint, snapped.fingerprint);
        assert_eq!(snapped.snapshots.len(), 1);
        let file = snapped.snapshots[0].clone();
        assert_eq!(file.t_nanos, 50_000_000_000);
        // the snapshot survives an encode/decode round trip
        let file = SnapshotFile::decode(&file.encode()).expect("round trip");

        let resumed = run_scenario_with(
            &m,
            &RunOptions {
                snapshot_at: vec![],
                resume: Some(file.clone()),
            },
        )
        .expect("resume run");
        assert_eq!(resumed.fingerprint, plain.fingerprint);
        assert!(
            resumed.summary[0].contains("resumed from snapshot"),
            "{:?}",
            resumed.summary
        );

        // a flipped byte inside a section is a named divergence
        let mut bad = file.clone();
        bad.sections[3].1[0] ^= 0x01;
        let err = run_scenario_with(
            &m,
            &RunOptions {
                snapshot_at: vec![],
                resume: Some(bad),
            },
        )
        .expect_err("diverged");
        assert!(err.contains("resume verification failed"), "{err}");
        assert!(err.contains(&file.sections[3].0), "{err}");

        // a different seed is refused before any replay happens
        let mut other = m.clone();
        other.seed = 777;
        let err = run_scenario_with(
            &other,
            &RunOptions {
                snapshot_at: vec![],
                resume: Some(file),
            },
        )
        .expect_err("identity mismatch");
        assert!(err.contains("identity"), "{err}");
    }

    #[test]
    fn federation_snapshot_aligns_to_epochs_and_resumes_bit_exact() {
        let text = r#"
scenario_version = 1
name = "fed-snap"
seed = 21

[federation]
clusters = 2
nodes_per_cluster = 6
uplink = 10

[run]
duration = 200
settle = 40

[[fault]]
at = 45
kind = "cluster-disconnect"
cluster = 1

[[fault]]
at = 95
kind = "cluster-heal"
cluster = 1
"#;
        let m = Manifest::parse(text).expect("parses");
        let plain = run_scenario(&m);
        let snapped = run_scenario_with(
            &m,
            &RunOptions {
                snapshot_at: vec![67.0],
                resume: None,
            },
        )
        .expect("capture run");
        assert_eq!(plain.fingerprint, snapped.fingerprint);
        assert_eq!(snapped.snapshots.len(), 1);
        let file = snapped.snapshots[0].clone();
        // 67s inside the [45, 95] fault segment rounds up to the next
        // uplink epoch: 45 + 3*10 = 75s
        assert_eq!(file.t_nanos, 75_000_000_000);

        let resumed = run_scenario_with(
            &m,
            &RunOptions {
                snapshot_at: vec![],
                resume: Some(file),
            },
        )
        .expect("resume run");
        assert_eq!(resumed.fingerprint, plain.fingerprint);
        assert!(
            resumed.summary[0].contains("resumed from snapshot at t=75s"),
            "{:?}",
            resumed.summary
        );
    }

    #[test]
    fn manifest_checkpoints_drive_capture() {
        let text = format!("{TINY}\n[checkpoints]\nat = [40, 80.5]\n");
        let m = Manifest::parse(&text).expect("parses");
        let r = run_scenario(&m);
        assert_eq!(r.snapshots.len(), 2);
        assert_eq!(r.snapshots[0].t_nanos, 40_000_000_000);
        assert_eq!(r.snapshots[1].t_nanos, 80_500_000_000);
        // checkpoints are fingerprint-neutral by contract
        let plain = run_scenario(&Manifest::parse(TINY).expect("parses"));
        assert_eq!(r.fingerprint, plain.fingerprint);
    }

    #[test]
    fn out_of_range_snapshot_time_is_an_error() {
        let m = Manifest::parse(TINY).expect("parses");
        let err = run_scenario_with(
            &m,
            &RunOptions {
                snapshot_at: vec![100_000.0],
                resume: None,
            },
        )
        .expect_err("beyond horizon");
        assert!(err.contains("horizon"), "{err}");
    }
}
