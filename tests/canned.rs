//! The three E14 campaigns (`examples/scenarios/{partition-storm,
//! chassis-carnage,flaky-fleet}.toml`) run clean. Each manifest's
//! `[assertions]` — fleet back up, availability, the pinned audit hash
//! (same seed, same trail) — are checked by the runtime itself; what a
//! manifest cannot express is checked here on the chaos run's report.

use cwx_scenario::{run_chaos, run_scenario, CampaignReport, Manifest, Outcome};

/// Parse `examples/scenarios/{name}.toml` and require the scenario
/// runtime to pass it (every invariant and assertion).
fn passes(name: &str) -> Manifest {
    let path = format!(
        "{}/examples/scenarios/{name}.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let m = Manifest::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let r = run_scenario(&m);
    assert_eq!(r.outcome, Outcome::Pass, "{name}: {:#?}", r.summary);
    m
}

/// The chaos run's own report, for what the manifest cannot assert.
fn report(m: &Manifest) -> CampaignReport {
    run_chaos(m).0
}

#[test]
fn partition_storm_runs_clean() {
    let r = report(&passes("partition-storm"));
    assert!(
        r.detection_latency_secs.is_finite(),
        "partitions must be detected"
    );
}

#[test]
fn chassis_carnage_runs_clean() {
    passes("chassis-carnage");
}

#[test]
fn flaky_fleet_quarantines_the_flapper() {
    let r = report(&passes("flaky-fleet"));
    assert!(
        r.quarantined.contains(&7),
        "the flapper must be quarantined, got {:?}",
        r.quarantined
    );
    assert!(r.mttr_secs.is_finite(), "the one-off panic recovered");
}
