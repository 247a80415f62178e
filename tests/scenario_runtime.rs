//! The scenario runtime's cross-crate contracts: every shipped example
//! manifest reproduces its pinned outcome, fingerprint and audit hash,
//! result bodies are deterministic under a fixed seed, and the
//! exit-code ladder classifies assertion failures and invariant
//! violations the way `cwx run --help` documents.

use cwx_scenario::{fnv1a, prefix_identity, run_scenario, Manifest, Outcome};

/// Read a manifest from `examples/scenarios/` relative to the repo root.
fn example(name: &str) -> String {
    let path = format!("{}/examples/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// What every shipped manifest must keep producing:
/// `(file, outcome, fingerprint, audit hash)`. A fingerprint of `None`
/// pins the audit hash only (the manifest's assertions changed its
/// body, not its simulation). Every file in `examples/scenarios/` must
/// have a row.
#[rustfmt::skip]
const PINS: [(&str, Outcome, Option<&str>, &str); 11] = [
    ("smoke.toml",                Outcome::Pass,          Some("9de5528ca84e28ea"), "3ebe2615805c5f35"),
    ("rack-outage.toml",          Outcome::Pass,          Some("1be9312c7f7ca323"), "c152c946c8c3ee55"),
    ("hardware-grief.toml",       Outcome::Pass,          Some("24fcd243ad99f8a0"), "ec1d7d3068e6e5cb"),
    ("sensor-lies.toml",          Outcome::Pass,          Some("d06fe04078f88c23"), "b8b3cacf7d84b2df"),
    ("bisect-demo.toml",          Outcome::AssertionFail, Some("b79a00ea9b9be1de"), "3775ae808fcb29f8"),
    ("federation-smoke.toml",     Outcome::Pass,          Some("1f4fdb37b7115f6c"), "c10950f343d61915"),
    ("federation-partition.toml", Outcome::Pass,          Some("c7f3057ff6716e35"), "cacce18d9a364865"),
    ("soak.toml",                 Outcome::Pass,          Some("024bbda4bc9fddb8"), "db176533d71f32cd"),
    ("partition-storm.toml",      Outcome::Pass,          None,                     "14d5ec6fb1c9abdf"),
    ("chassis-carnage.toml",      Outcome::Pass,          None,                     "915e8aaafe624b77"),
    ("flaky-fleet.toml",          Outcome::Pass,          None,                     "72eaf8f49809c579"),
];

/// The pin table: deleting or refactoring code must not move a single
/// shipped scenario. Release-only (CI `chaos-soak` job runs it with
/// `--include-ignored`); the 400-node soak takes minutes in debug.
#[test]
#[ignore = "release-mode pin table (CI chaos-soak job); debug builds take minutes"]
fn shipped_manifests_reproduce_their_pins() {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.ends_with(".toml"))
        .collect();
    files.sort();
    let mut pinned: Vec<String> = PINS.iter().map(|p| p.0.to_string()).collect();
    pinned.sort();
    assert_eq!(files, pinned, "every shipped manifest has exactly one pin");

    for (file, outcome, fingerprint, audit) in PINS {
        let r = run_scenario(&Manifest::parse(&example(file)).expect(file));
        assert_eq!(r.outcome, outcome, "{file}: {:?}", r.summary);
        if let Some(fp) = fingerprint {
            assert_eq!(format!("{:016x}", r.fingerprint), fp, "{file} fingerprint");
        }
        let want = format!("\"audit\":{{\"hash\":\"{audit}\"");
        assert!(
            r.result_json.contains(&want),
            "{file}: wanted {want} in {}",
            r.result_json
        );
    }
}

/// What every shipped manifest must keep parsing to, checked without
/// running anything: `(file, prefix identity over the whole run, FNV-1a
/// of the `Debug` text of its assertions, limits and checkpoints, fault
/// count)`. A parser refactor that drops, reorders or re-renders one
/// fault or one key moves a constant here in the fast suite.
#[rustfmt::skip]
const PARSE_PINS: [(&str, u64, u64, usize); 11] = [
    ("smoke.toml",                0x81276861535c23a6, 0xda9bd51ed193c7c1, 11),
    ("rack-outage.toml",          0x940d09a6477456d7, 0xc77972d9a767c1e2,  6),
    ("hardware-grief.toml",       0x6e78a036a6d93673, 0xfc34242526f14be1,  5),
    ("sensor-lies.toml",          0xb7f74fc918b3542c, 0xc77972d9a767c1e2,  5),
    ("bisect-demo.toml",          0xf4ef5b869a889959, 0xf69b9b926cc7d68e,  4),
    ("federation-smoke.toml",     0x143c65c4dbc19219, 0xa2bbf7ad8f5213d5,  0),
    ("federation-partition.toml", 0x37ac536b87245284, 0x85c34d4215b59cc3,  2),
    ("soak.toml",                 0x9af2cdc941063099, 0xda9bd51ed193c7c1, 31),
    ("partition-storm.toml",      0x97e11083c6eb1ae7, 0x2a3bb43ca11339c7,  8),
    ("chassis-carnage.toml",      0xd4728d8c910d5dc6, 0x8168a12322fafcea, 10),
    ("flaky-fleet.toml",          0xd4522ae6d59262e9, 0x83442c844d14afd5, 12),
];

/// The other shipped chaos manifests must at least parse and carry the
/// fault schedules their comments describe; every shipped manifest
/// keeps its [`PARSE_PINS`] row.
#[test]
fn shipped_manifests_parse() {
    for (file, identity, sections, faults) in PARSE_PINS {
        let m = Manifest::parse(&example(file)).expect(file);
        let got = (
            prefix_identity(&m, u64::MAX),
            fnv1a(format!("{:?}{:?}{:?}", m.assertions, m.limits, m.checkpoints).as_bytes()),
            m.fault_count(),
        );
        assert_eq!(got, (identity, sections, faults), "{file}");
    }
    let smoke = Manifest::parse(&example("smoke.toml")).expect("smoke.toml parses");
    assert_eq!(smoke.chaos().expect("chaos").n_nodes, 60);
    let rack = Manifest::parse(&example("rack-outage.toml")).expect("rack-outage.toml parses");
    assert_eq!(rack.faults.len(), 6);
    let fed = Manifest::parse(&example("federation-smoke.toml")).expect("fed smoke parses");
    assert!(
        fed.chaos().is_none(),
        "federation manifest has no chaos spec"
    );
    Manifest::parse(&example("federation-partition.toml")).expect("fed partition parses");
}

/// Same manifest + same seed ⇒ byte-identical result body; a different
/// seed must move the fingerprint.
#[test]
fn result_bodies_are_deterministic_modulo_timing() {
    let text = example("rack-outage.toml").replace("nodes = 40", "nodes = 30");
    let m = Manifest::parse(&text).expect("parses");
    let a = run_scenario(&m);
    let b = run_scenario(&m);
    let body = |s: &str| s[..s.find(",\"fingerprint\"").expect("fingerprint")].to_string();
    assert_eq!(body(&a.result_json), body(&b.result_json));
    assert_eq!(a.fingerprint, b.fingerprint);

    let mut reseeded = m;
    reseeded.seed = 100;
    let c = run_scenario(&reseeded);
    assert_ne!(a.fingerprint, c.fingerprint, "seed must reach the body");
}

/// A federation manifest runs headless and the default census check
/// (head's aggregate vs sub-cluster ground truth) passes.
#[test]
fn federation_manifest_census_check_passes() {
    let m = Manifest::parse(
        r#"
scenario_version = 1
name = "fed-tiny"
seed = 5

[federation]
clusters = 2
nodes_per_cluster = 8

[run]
duration = 120

[assertions]
census_match = true
total_nodes = 16
"#,
    )
    .expect("parses");
    let r = run_scenario(&m);
    assert_eq!(r.outcome, Outcome::Pass, "summary: {:?}", r.summary);
    assert!(r.result_json.contains("\"mode\":\"federation\""));
    assert!(r.junit.contains("assert:census_match"));
}

/// An impossibly tight invariant policy turns a healthy reboot into a
/// stuck-transient violation — and a violation outranks a failed
/// assertion, so the run classifies as exit 2, not exit 1.
#[test]
fn invariant_violation_outranks_assertion_failure() {
    let m = Manifest::parse(
        r#"
scenario_version = 1
name = "strict"
seed = 3

[cluster]
nodes = 8

[run]
duration = 300
settle = 120

[invariants]
transient_deadline = 1.0

[[fault]]
at = 30
kind = "kernel-panic"
node = 2

[assertions]
max_emails = 0
"#,
    )
    .expect("parses");
    let r = run_scenario(&m);
    assert_eq!(r.outcome, Outcome::InvariantViolation);
    assert_eq!(r.outcome.exit_code(), 2);
    assert!(r
        .result_json
        .contains("\"outcome\":\"invariant-violation\""));
}
