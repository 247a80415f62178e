//! The chaos soak: a simulated-hour campaign at 400 nodes throwing
//! overlapping rack partitions, chassis-controller restarts, agent
//! crashes and a hard-flapping node at the management plane, all at
//! once. The run must keep every invariant, quarantine the flapper
//! without a notification storm, converge to all-Up after the last
//! heal, and replay byte-for-byte under the same seed. The campaign is
//! `examples/scenarios/soak.toml`, the manifest CI also runs through
//! `cwx run`.
//!
//! The full-size runs are expensive in debug builds, so they are
//! `#[ignore]`d by default and driven in release mode by the CI
//! `chaos-soak` job (`cargo test --release --test chaos_soak --
//! --ignored`). A scaled-down smoke variant always runs.

use clusterworx::AuditEntry;
use cwx_chaos::{campaign_config, run_campaign_sim, CampaignReport, InvariantPolicy};
use cwx_scenario::Manifest;
use cwx_util::time::SimDuration;

/// The flapping node in `examples/scenarios/soak.toml`'s schedule.
const FLAPPER: u32 = 7;

fn run_soak(seed: u64) -> (CampaignReport, cwx_util::sim::Sim<clusterworx::World>) {
    let mut m =
        Manifest::parse(include_str!("../examples/scenarios/soak.toml")).expect("soak.toml parses");
    m.set_seed(seed);
    let c = m.campaign().expect("soak.toml is a [cluster] scenario");
    assert!(c.n_nodes >= 400, "the soak must cover at least 400 nodes");
    run_campaign_sim(c, campaign_config(c), InvariantPolicy::default())
}

fn assert_soak_clean(seed: u64) -> CampaignReport {
    let (r, sim) = run_soak(seed);
    let w = sim.world();

    // 1. every invariant held, the whole way through
    assert_eq!(r.violations, vec![], "seed {seed}: {:#?}", r.violations);

    // 2. the flapper was quarantined — exactly one audit event
    let trips: Vec<_> = w
        .control
        .audit()
        .iter()
        .filter(|rec| {
            rec.node == Some(FLAPPER) && matches!(rec.entry, AuditEntry::Quarantined { .. })
        })
        .collect();
    assert_eq!(
        trips.len(),
        1,
        "seed {seed}: the flapper quarantines exactly once, got {trips:#?}"
    );

    // 3. ...with at most one notification episode afterwards: once the
    // node is parked dark its events stop re-opening episodes, so the
    // outbox must not keep paging the admin about it.
    let t_quarantine = trips[0].time;
    let flap_mail_after = w
        .server
        .outbox()
        .iter()
        .filter(|e| e.at > t_quarantine + SimDuration::from_secs(60) && e.nodes.contains(&FLAPPER))
        .count();
    assert!(
        flap_mail_after <= 1,
        "seed {seed}: quarantine must silence the flapper's mail storm, \
         got {flap_mail_after} emails after quarantine"
    );

    // 4. convergence: everyone back up within the settle window
    assert_eq!(
        r.final_up as u32, r.n_nodes,
        "seed {seed}: all-Up after the final heal (quarantined at end: {:?})",
        r.quarantined
    );

    // sanity on the metrics the report carries into E14 / CI artifacts
    assert!(r.detection_latency_secs.is_finite());
    assert!(
        r.availability > 0.8 && r.availability <= 1.0,
        "{}",
        r.availability
    );
    r
}

#[test]
#[ignore = "release-mode soak (CI chaos-soak job); debug builds take minutes"]
fn soak_400_nodes_survives_the_campaign() {
    assert_soak_clean(4001);
}

#[test]
#[ignore = "release-mode soak (CI chaos-soak job); debug builds take minutes"]
fn soak_other_seeds_survive_too() {
    // CI sweeps three fixed seeds; the first lives in the test above.
    assert_soak_clean(4002);
    assert_soak_clean(4003);
}

#[test]
#[ignore = "release-mode soak (CI chaos-soak job); debug builds take minutes"]
fn soak_same_seed_same_audit_hash() {
    let (a, _) = run_soak(4001);
    let (b, _) = run_soak(4001);
    assert_eq!(a.audit_hash, b.audit_hash, "the soak must be reproducible");
    assert_eq!(a.audit_len, b.audit_len);
}

/// A scaled-down version of the same promise that always runs: one
/// partitioned rack, one chassis restart, one crashed agent, one
/// flapper — zero violations, flapper quarantined, convergence,
/// reproducibility.
#[test]
fn soak_smoke_scaled_down() {
    use cwx_chaos::FaultKind::*;
    let c = cwx_chaos::Campaign::new("soak-smoke", 4009, 60, 1400.0)
        .flap_threshold(6)
        .release_after(500.0)
        .at(240.0, KernelPanic(FLAPPER))
        .at(390.0, KernelPanic(FLAPPER))
        .at(540.0, KernelPanic(FLAPPER))
        .at(690.0, KernelPanic(FLAPPER))
        .at(840.0, KernelPanic(FLAPPER))
        .at(990.0, KernelPanic(FLAPPER))
        .at(300.0, PartitionRack(3))
        .at(520.0, HealRack(3))
        .at(450.0, ChassisRestart(5))
        .at(350.0, AgentCrash(31))
        .at(1100.0, AgentRecover(31))
        .settle(800.0);
    let (a, sim) = run_campaign_sim(&c, campaign_config(&c), InvariantPolicy::default());
    assert_eq!(a.violations, vec![], "{:#?}", a.violations);
    assert_eq!(
        a.final_up as u32, a.n_nodes,
        "quarantined: {:?}",
        a.quarantined
    );
    let trips = sim
        .world()
        .control
        .audit()
        .iter()
        .filter(|rec| {
            rec.node == Some(FLAPPER) && matches!(rec.entry, AuditEntry::Quarantined { .. })
        })
        .count();
    assert_eq!(trips, 1, "the flapper quarantines exactly once");
    let (b, _) = run_campaign_sim(&c, campaign_config(&c), InvariantPolicy::default());
    assert_eq!(a.audit_hash, b.audit_hash);
}
