//! E14: resilience under deterministic chaos campaigns.
//!
//! The paper's pitch is qualitative — failed nodes are noticed, power-
//! cycled and reported without flooding the administrator. E14 makes it
//! quantitative: three scenario manifests from `examples/scenarios/`
//! (rack partitions, chassis-controller carnage, flapping nodes) run
//! under their fixed seeds while the invariant checker watches, and we
//! report the detection latency, mean time to repair, fleet
//! availability and notification volume each campaign produced — plus
//! the two numbers that must always be zero and always be equal:
//! invariant violations, and the audit-hash difference between two runs
//! of the same seed.

use cwx_scenario::{run_chaos, CampaignReport, Manifest};

/// The E14 campaigns' manifests, in presentation order.
const MANIFESTS: [&str; 3] = [
    include_str!("../../../examples/scenarios/partition-storm.toml"),
    include_str!("../../../examples/scenarios/chassis-carnage.toml"),
    include_str!("../../../examples/scenarios/flaky-fleet.toml"),
];

/// One campaign's row in the E14 table.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The campaign's manifest.
    pub manifest: Manifest,
    /// The campaign's report.
    pub report: CampaignReport,
    /// Whether a second run under the same seed produced the same
    /// audit-trail hash.
    pub reproducible: bool,
}

/// Run one manifest's campaign (twice — the second run checks
/// reproducibility).
fn run_manifest(text: &str) -> ChaosRun {
    let manifest = Manifest::parse(text).expect("shipped manifest parses");
    let (report, _) = run_chaos(&manifest);
    let (again, _) = run_chaos(&manifest);
    let reproducible = report.audit_hash == again.audit_hash && report.audit_len == again.audit_len;
    ChaosRun {
        manifest,
        report,
        reproducible,
    }
}

/// All three campaigns, in presentation order.
pub fn all_canned() -> Vec<ChaosRun> {
    MANIFESTS.iter().map(|text| run_manifest(text)).collect()
}
