//! cwx-chaos — deterministic chaos campaigns for the ClusterWorX
//! reproduction.
//!
//! The paper sells ClusterWorX on resilience claims — failed nodes are
//! detected, power-cycled, quarantined; the administrator hears about
//! each incident once. This crate turns those claims into executable
//! checks. A [`Campaign`] is a timestamped schedule of faults across
//! every layer (network segments, ICE Box chassis, monitoring agents,
//! node hardware, temperature probes); [`run_campaign`] replays it on a
//! simulated fleet under one seed while an [`InvariantChecker`] watches
//! the management plane's promises:
//!
//! 1. every lifecycle transition crosses a legal edge,
//! 2. no control-plane command is silently dropped (audit accounting),
//! 3. no node sits in a transient state past its deadline,
//! 4. the event engine re-converges with hardware truth once faults
//!    heal, and
//! 5. the history store answers queries after every kill.
//!
//! Identical (campaign, seed) pairs produce identical audit trails —
//! [`CampaignReport::audit_hash`] makes that checkable.

#![warn(missing_docs)]

pub mod campaign;
pub mod invariants;
pub mod run;

pub use campaign::{Campaign, FaultEvent, FaultKind, FAULT_SLUGS};
pub use invariants::{audit_hash, InvariantChecker, InvariantPolicy, Violation, INVARIANT_NAMES};
pub use run::{
    apply_fault, campaign_config, run_campaign, run_campaign_sim, run_campaign_sim_observed,
    CampaignReport,
};
