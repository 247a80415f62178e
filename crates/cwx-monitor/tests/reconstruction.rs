//! The delta-consolidation soundness invariant: a server that applies
//! every (possibly delta-suppressed) report in order reconstructs
//! exactly the same monitor values a non-consolidating agent would have
//! sent. Losing this property would mean the bandwidth savings of paper
//! §5.3.2 silently corrupt the monitoring data.

use std::collections::BTreeMap;

use cwx_monitor::agent::{Agent, AgentConfig};
use cwx_monitor::monitor::MonitorKey;
use cwx_monitor::snapshot::Sensors;
use cwx_monitor::transmit::{Report, WireDecoder};
use cwx_proc::synthetic::SyntheticProc;
use cwx_util::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Apply a report to a server-side key→rendered-value view.
fn apply(view: &mut BTreeMap<MonitorKey, String>, report: &Report) {
    for (k, v) in &report.values {
        view.insert(k.clone(), v.render());
    }
}

fn run_pair(
    activity: &[(f64, f64)],
) -> (BTreeMap<MonitorKey, String>, BTreeMap<MonitorKey, String>) {
    // two agents over IDENTICAL state evolution: one delta, one full
    let mk = || SyntheticProc::default();
    let (proc_a, proc_b) = (mk(), mk());
    let mut delta_agent = Agent::new(
        proc_a.clone(),
        AgentConfig {
            delta_enabled: true,
            compress: true,
            ..AgentConfig::default()
        },
    )
    .unwrap();
    let mut full_agent = Agent::new(
        proc_b.clone(),
        AgentConfig {
            delta_enabled: false,
            compress: false,
            ..AgentConfig::default()
        },
    )
    .unwrap();

    let mut view_delta = BTreeMap::new();
    let mut view_full = BTreeMap::new();
    let mut decoder = WireDecoder::new();
    let mut now = SimTime::ZERO;
    for &(dt, util) in activity {
        now += SimDuration::from_secs_f64(dt.max(0.1));
        proc_a.with_state(|s| s.tick(dt.max(0.1), util));
        proc_b.with_state(|s| s.tick(dt.max(0.1), util));
        let sensors = Sensors {
            cpu_temp_c: 30.0 + 40.0 * util,
            board_temp_c: 28.0,
            fan_rpm: 6000.0,
            power_watts: 90.0 + 100.0 * util,
            udp_echo_ok: true,
        };
        // ship the delta agent's bytes through the codec like the wire
        let out = delta_agent.tick(now, sensors).unwrap();
        let decoded = decoder.decode_auto(&out.payload).unwrap();
        apply(&mut view_delta, &decoded);
        apply(
            &mut view_full,
            &full_agent.tick(now, sensors).unwrap().report,
        );
    }
    (view_delta, view_full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn delta_view_equals_full_view(
        activity in proptest::collection::vec((0.1f64..20.0, 0.0f64..1.0), 1..25)
    ) {
        let (delta, full) = run_pair(&activity);
        prop_assert_eq!(delta, full);
    }
}

#[test]
fn reconstruction_after_resync_mid_stream() {
    // simulate a server restart: it loses its view; the agent resyncs
    let proc_ = SyntheticProc::default();
    let mut agent = Agent::new(
        proc_.clone(),
        AgentConfig {
            delta_enabled: true,
            compress: false,
            ..AgentConfig::default()
        },
    )
    .unwrap();
    let mut now = SimTime::ZERO;
    let mut view = BTreeMap::new();
    for i in 0..5 {
        now += SimDuration::from_secs(5);
        proc_.with_state(|s| s.tick(5.0, 0.2 + 0.1 * i as f64));
        apply(
            &mut view,
            &agent.tick(now, Sensors::default()).unwrap().report,
        );
    }
    let full_view = view.clone();

    // server restarts with empty state; without resync it would miss
    // every static and unchanged value
    let mut fresh = BTreeMap::new();
    agent.resync();
    now += SimDuration::from_secs(5);
    proc_.with_state(|s| s.tick(5.0, 0.7));
    apply(
        &mut fresh,
        &agent.tick(now, Sensors::default()).unwrap().report,
    );
    // after resync a single report restores the complete key set
    assert_eq!(
        fresh.keys().collect::<Vec<_>>(),
        full_view.keys().collect::<Vec<_>>(),
        "resync must retransmit every monitor"
    );
}
