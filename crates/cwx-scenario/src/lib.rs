//! cwx-scenario — the unified scenario runtime for the ClusterWorX
//! reproduction.
//!
//! One versioned TOML manifest (`scenario_version = 1`) composes
//! everything a reproducible experiment needs: the cluster shape, a
//! chaos fault schedule or federation topology, the invariant policy,
//! resource limits and pass/fail assertions. `cwx run manifest.toml`
//! executes it headless and emits machine-readable artifacts:
//!
//! - `result.json` — outcome, metrics, invariant verdicts, assertion
//!   results and a coverage record, fingerprinted with FNV-1a over the
//!   deterministic body (wall-clock timings sit outside the
//!   fingerprint, in a separate `timing` section);
//! - JUnit XML — one test case per invariant promise and assertion,
//!   so CI dashboards ingest scenario runs natively;
//! - `coverage.json` — a FaultKind × lifecycle-state × scale
//!   scoreboard merged across runs.
//!
//! Exit codes are a contract: 0 pass, 1 assertion failure, 2 invariant
//! violation, 3 manifest or operational error. A manifest is the one
//! way to define a scenario: the shipped ones live in
//! `examples/scenarios/`, and experiments and tests read those same
//! files, so there is exactly one execution path to trust.
//!
//! The paper sells ClusterWorX on resilience claims — failed nodes are
//! detected, power-cycled, quarantined; the administrator hears about
//! each incident once. A manifest's [`FaultKind`] schedule makes those
//! claims executable, in either mode. A `[federation]` manifest severs
//! and restores sub-cluster uplinks. A `[cluster]` manifest's schedule
//! (network segments, ICE Box chassis, monitoring agents, node
//! hardware, temperature probes) is what [`run_chaos`] injects into a
//! simulated fleet under one seed while an invariant checker watches
//! the management plane's promises:
//!
//! 1. every lifecycle transition crosses a legal edge,
//! 2. no control-plane command is silently dropped (audit accounting),
//! 3. no node sits in a transient state past its deadline,
//! 4. the event engine re-converges with hardware truth once faults
//!    heal, and
//! 5. the history store answers queries after every kill.
//!
//! Identical (manifest, seed) pairs produce identical audit trails —
//! [`CampaignReport::audit_hash`] makes that checkable.
//!
//! Because every run is deterministic, it can also be frozen and
//! replayed: [`run_scenario_with`] captures `cwx-snapshot-v1` world
//! snapshots at requested instants (or a `[checkpoints]` manifest
//! section) and resumes from one via verified replay with a bit-exact
//! fingerprint guarantee, and [`bisect_scenario`] binary-searches a
//! failing scenario's fault schedule down to the minimal failing
//! prefix. See the [`snapshot`] and [`bisect`] modules.

#![warn(missing_docs)]

pub mod artifact;
pub mod bisect;
mod chaos;
pub mod coverage;
mod fault;
mod invariants;
pub mod json;
pub mod manifest;
pub mod run;
pub mod snapshot;
pub mod toml;

pub use artifact::{esc_json, fnv1a, json_num, junit_xml, AssertionResult, JunitCase};
pub use bisect::{bisect_scenario, BisectReport};
pub use chaos::{run_chaos, CampaignReport};
pub use coverage::{scale_band, state_slug, CoverageRun, Scoreboard, SCALE_BANDS, STATE_SLUGS};
pub use fault::FaultKind;
pub use invariants::{InvariantPolicy, Violation};
pub use manifest::{
    Assertions, ChaosSpec, FedSpec, FinalUp, Limits, Manifest, ManifestError, Mode,
    SCENARIO_VERSION,
};
pub use run::{run_scenario, run_scenario_with, Outcome, RunOptions, ScenarioResult};
pub use snapshot::{build_snapshot, check_resumable, prefix_identity, secs_to_nanos};
