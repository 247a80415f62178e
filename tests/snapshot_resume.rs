//! Snapshot / resume / bisect contracts, end to end: capture is
//! fingerprint-neutral, a resumed run reproduces the straight-through
//! run bit for bit (audit hash and result fingerprint), corrupted
//! snapshot files die with one-line diagnostics instead of panics, and
//! `cwx bisect` converges on the documented minimal prefix for the
//! shipped demo scenario.

use cwx_scenario::{
    bisect_scenario, fnv1a, run_scenario, run_scenario_with, Manifest, Outcome, RunOptions,
};
use cwx_util::snapshot::{SnapshotFile, SNAPSHOT_MAGIC};

fn example(name: &str) -> String {
    let path = format!("{}/examples/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A fast chaos scenario with a mid-run crash/recover cycle.
const CHAOS: &str = r#"
scenario_version = 1
name = "rt-chaos"
seed = 31

[cluster]
nodes = 12

[run]
duration = 300
settle = 200

[[fault]]
at = 60
kind = "agent-crash"
node = 5

[[fault]]
at = 140
kind = "kernel-panic"
node = 9

[assertions]
final_up = "all"
"#;

/// A fast federation scenario with a partition window.
const FED: &str = r#"
scenario_version = 1
name = "rt-fed"
seed = 47

[federation]
clusters = 3
nodes_per_cluster = 8
uplink = 10

[run]
duration = 300
settle = 60

[[fault]]
at = 75
kind = "cluster-disconnect"
cluster = 2

[[fault]]
at = 165
kind = "cluster-heal"
cluster = 2
"#;

/// Capture at many instants across the run, resume from each one, and
/// demand the identical fingerprint every time — a seeded sweep in
/// place of a proptest dependency. Covers both engines.
#[test]
fn resume_reproduces_the_straight_run_at_every_instant() {
    for text in [CHAOS, FED] {
        let m = Manifest::parse(text).expect("parses");
        let straight = run_scenario(&m);
        assert_eq!(straight.outcome, Outcome::Pass, "{:?}", straight.summary);

        // a cheap LCG walks pseudo-random capture instants over the run
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut times = Vec::new();
        for _ in 0..6 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // stay inside both manifests' horizons (500s and 360s)
            times.push((x >> 33) as f64 % 300.0);
        }
        times.sort_by(f64::total_cmp);
        times.dedup();

        let snapped = run_scenario_with(
            &m,
            &RunOptions {
                snapshot_at: times.clone(),
                resume: None,
            },
        )
        .expect("capture run");
        assert_eq!(
            snapped.fingerprint, straight.fingerprint,
            "capture must be fingerprint-neutral for {}",
            m.name
        );
        assert!(!snapped.snapshots.is_empty());

        for file in snapped.snapshots {
            // every snapshot survives the byte container round trip
            let file = SnapshotFile::decode(&file.encode()).expect("round trip");
            let t = file.t_nanos;
            let resumed = run_scenario_with(
                &m,
                &RunOptions {
                    snapshot_at: vec![],
                    resume: Some(file),
                },
            )
            .unwrap_or_else(|e| panic!("resume {} at {t}ns: {e}", m.name));
            assert_eq!(
                resumed.fingerprint, straight.fingerprint,
                "resume at {t}ns must reproduce {}",
                m.name
            );
            assert!(resumed.summary[0].contains("verified bit-exact"));
        }
    }
}

/// `(manifest, --snapshot-at, effective instant, encoded bytes, FNV-1a
/// of the encoding, prefix identity)`.
type SnapshotPin = (&'static str, &'static [f64], u64, usize, u64, u64);

#[rustfmt::skip]
const SNAPSHOT_PINS: [SnapshotPin; 2] = [
    ("hardware-grief.toml",       &[],      600_000_000_000, 73_063,  0xc531_c4ce_faad_21f2, 0x6e78_a036_a6d9_3673),
    ("federation-partition.toml", &[333.0], 340_000_000_000, 119_893, 0x9512_5d60_dfaf_2424, 0xe25b_6cf6_e346_f12c),
];

/// Snapshot files outlive the build that wrote them: a capture must
/// resume under the next build, so its section bytes and its prefix
/// identity may not drift. Two shipped captures are pinned — the
/// length and FNV-1a of the encoded file, and the identity hash.
#[test]
fn shipped_snapshot_bytes_are_pinned() {
    for (file, snapshot_at, t_nanos, len, hash, identity) in SNAPSHOT_PINS {
        let m = Manifest::parse(&example(file)).expect(file);
        let opts = RunOptions {
            snapshot_at: snapshot_at.to_vec(),
            resume: None,
        };
        let r = run_scenario_with(&m, &opts).expect(file);
        assert_eq!(r.snapshots.len(), 1, "{file}");
        let snap = &r.snapshots[0];
        assert_eq!(snap.t_nanos, t_nanos, "{file} capture instant");
        assert_eq!(snap.identity, identity, "{file} prefix identity");
        let bytes = snap.encode();
        assert_eq!(bytes.len(), len, "{file} encoded length");
        assert_eq!(fnv1a(&bytes), hash, "{file} encoded bytes");
    }
}

/// Every corruption of a valid snapshot file is a one-line decode
/// error, never a panic and never a silent partial load.
#[test]
fn corrupted_snapshots_fail_loudly_and_precisely() {
    let m = Manifest::parse(CHAOS).expect("parses");
    let r = run_scenario_with(
        &m,
        &RunOptions {
            snapshot_at: vec![120.0],
            resume: None,
        },
    )
    .expect("capture");
    let good = r.snapshots[0].encode();
    assert_eq!(&good[..8], SNAPSHOT_MAGIC.as_slice());

    // truncation at every prefix length is rejected cleanly
    for cut in [0, 1, 7, 8, 11, 12, 16, good.len() / 2, good.len() - 1] {
        let err = SnapshotFile::decode(&good[..cut]).expect_err("truncated");
        let msg = err.to_string();
        assert!(!msg.contains('\n'), "multi-line error: {msg}");
    }
    // a bit flip anywhere in the body is caught by the CRC; in the
    // header, by magic/version/CRC checks (stride keeps the sweep fast)
    for i in (0..good.len()).step_by(97) {
        let mut bad = good.clone();
        bad[i] ^= 0x20;
        assert!(
            SnapshotFile::decode(&bad).is_err(),
            "flip at byte {i} went undetected"
        );
    }
    // trailing garbage is rejected too
    let mut padded = good.clone();
    padded.push(0);
    assert!(SnapshotFile::decode(&padded).is_err());
}

/// A snapshot refuses to resume under a manifest whose world differs.
/// Chaos campaigns pre-schedule every fault into the event queue, so
/// *any* schedule change invalidates the snapshot; federation faults
/// are applied externally, so only the prefix up to the capture
/// instant matters and later faults can vary (fork-many).
#[test]
fn resume_refuses_a_diverged_fault_prefix() {
    // chaos: even a fault scheduled after the capture instant is
    // pending engine state at the capture, so the resume is refused
    let m = Manifest::parse(CHAOS).expect("parses");
    let r = run_scenario_with(
        &m,
        &RunOptions {
            snapshot_at: vec![200.0],
            resume: None,
        },
    )
    .expect("capture");
    let chaos_file = r.snapshots[0].clone();
    let diverged = CHAOS.replace(
        "[assertions]",
        "[[fault]]\nat = 250\nkind = \"agent-crash\"\nnode = 2\n\n[assertions]",
    );
    let diverged = Manifest::parse(&diverged).expect("parses");
    let err = run_scenario_with(
        &diverged,
        &RunOptions {
            snapshot_at: vec![],
            resume: Some(chaos_file),
        },
    )
    .expect_err("chaos schedule diverged");
    assert!(err.contains("identity"), "{err}");

    // federation: a fault added *after* the capture instant forks the
    // continuation and still resumes bit-exact...
    let m = Manifest::parse(FED).expect("parses");
    let r = run_scenario_with(
        &m,
        &RunOptions {
            snapshot_at: vec![100.0],
            resume: None,
        },
    )
    .expect("capture");
    let fed_file = r.snapshots[0].clone();
    let forked =
        format!("{FED}\n[[fault]]\nat = 200\nkind = \"cluster-disconnect\"\ncluster = 0\n");
    let forked = Manifest::parse(&forked).expect("parses");
    assert_eq!(forked.fault_count(), 3);
    let out = run_scenario_with(
        &forked,
        &RunOptions {
            snapshot_at: vec![],
            resume: Some(fed_file.clone()),
        },
    )
    .expect("fed fork resumes");
    assert!(out.summary[0].contains("verified bit-exact"));

    // ...but a fault before it is a different world: refused
    let diverged = FED.replace("at = 75", "at = 45");
    let diverged = Manifest::parse(&diverged).expect("parses");
    let err = run_scenario_with(
        &diverged,
        &RunOptions {
            snapshot_at: vec![],
            resume: Some(fed_file),
        },
    )
    .expect_err("fed prefix diverged");
    assert!(err.contains("identity"), "{err}");
}

/// The shipped bisect demo converges on the verdict its comments
/// document: prefix 3, culprit agent-crash at 300s, max_emails.
#[test]
fn bisect_demo_finds_the_documented_culprit() {
    let m = Manifest::parse(&example("bisect-demo.toml")).expect("parses");
    let full = run_scenario(&m);
    assert_eq!(full.outcome, Outcome::AssertionFail);

    let r = bisect_scenario(&m).expect("bisects");
    assert_eq!(r.minimal_prefix, 3);
    let (i, at, kind) = r.culprit.clone().expect("culprit");
    assert_eq!((i, at), (2, 300.0));
    assert!(kind.contains("agent-crash"), "{kind}");
    assert_eq!(r.first_failure.as_deref(), Some("assert:max_emails"));
    let json = r.to_json(&m.fault_schedule());
    assert!(json.contains("\"schema\":\"cwx-bisect-v1\""));
    assert!(json.contains("\"minimal_prefix\":3"));
}

/// The other new shipped scenarios pass and cover the fault kinds the
/// scoreboard previously flagged as unexercised.
#[test]
fn grief_and_sensor_scenarios_pass_and_cover_new_faults() {
    let hg = Manifest::parse(&example("hardware-grief.toml")).expect("parses");
    let r = run_scenario(&hg);
    assert_eq!(r.outcome, Outcome::Pass, "{:?}", r.summary);
    for kind in [
        "fan-failure",
        "psu-failure",
        "memory-leak",
        "rack-bandwidth",
    ] {
        assert!(r.coverage.faults.contains(kind), "{kind} not covered");
    }
    // the manifest's [checkpoints] capture rides along
    assert_eq!(r.snapshots.len(), 1);

    let sl = Manifest::parse(&example("sensor-lies.toml")).expect("parses");
    let r = run_scenario(&sl);
    assert_eq!(r.outcome, Outcome::Pass, "{:?}", r.summary);
    for kind in [
        "probe-stuck",
        "probe-skew",
        "probe-clear",
        "console-garbage",
    ] {
        assert!(r.coverage.faults.contains(kind), "{kind} not covered");
    }
}
