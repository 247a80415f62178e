//! Out-of-band monitoring passes: ICE Box probe sampling and the
//! server's housekeeping/liveness tick.
//!
//! Split out of the old `world.rs` god module. Both passes derive their
//! "is this node supposed to be running?" gating from the control
//! plane's lifecycle machine ([`crate::lifecycle`]) instead of the
//! ad-hoc `expected_up`/`up_since` booleans the world used to carry.

use cwx_icebox::chassis::ProbeReading;
use cwx_monitor::monitor::MonitorKey;
use cwx_util::sim::Sim;

use crate::world::{execute_pending_actions, World};

/// How many agent intervals after its last report a node is considered
/// unreachable by the staleness checks (probes and housekeeping).
pub(crate) const STALE_AGENT_INTERVALS: u64 = 4;

/// Sample the ICE Box probes and feed them to the server out-of-band.
///
/// A single fleet-wide pass over the dense node vector: the chassis,
/// node, and server borrows are split once instead of re-borrowing the
/// world per node.
pub(crate) fn probe_tick(sim: &mut Sim<World>) {
    let now = sim.now();
    {
        let World {
            nodes,
            iceboxes,
            server,
            control,
            ..
        } = sim.world_mut();
        let lifecycle = control.lifecycle();
        for (i, st) in nodes.iter().enumerate() {
            let (bx, port) = World::rack_of(i as u32);
            let reading = ProbeReading {
                temp_c: st.hw.temperature_c(),
                watts: st.hw.power_watts(),
                fan_rpm: st.hw.fan_rpm(),
            };
            iceboxes[bx].record_probe(port, reading);
            // Feed the event engine only for nodes that are supposed to
            // be running: a node mid-boot (or whose outlet is still in
            // its sequenced energize window) legitimately draws nothing
            // and must not trip the PSU/fan rules.
            let relay_on = iceboxes[bx].relay_on(port);
            let settled = iceboxes[bx].pending_energize(port).is_none();
            let expected = st.hw.is_up()
                || lifecycle.state(i as u32).expects_os()
                || matches!(
                    st.hw.health(),
                    cwx_hw::HealthState::PsuFailed | cwx_hw::HealthState::Burned
                );
            if relay_on && settled && expected {
                server.record_probe(
                    now,
                    i as u32,
                    reading.temp_c,
                    reading.watts,
                    reading.fan_rpm,
                );
            }
        }
    }
    execute_pending_actions(sim);
}

/// Flush mail, check liveness via the UDP echo probe.
///
/// The echo travels the same management network the reports do, so the
/// model uses the evidence the server actually has: a node answers the
/// echo iff its OS is up *and* its reports have been arriving. A grace
/// window after boot keeps a freshly started agent from reading as dead
/// before its first report lands.
pub(crate) fn housekeeping_tick(sim: &mut Sim<World>) {
    let now = sim.now();
    let key = MonitorKey::new("net.connectivity");
    {
        let w = sim.world_mut();
        let stale = w.cfg.agent_interval * STALE_AGENT_INTERVALS;
        let World {
            nodes,
            server,
            control,
            ..
        } = w;
        let lifecycle = control.lifecycle();
        for (i, st) in nodes.iter().enumerate() {
            let Some(up_since) = lifecycle.up_since(i as u32) else {
                continue;
            };
            if now.since(up_since) <= stale {
                continue; // grace period after boot
            }
            let heard_recently = server
                .node_status(i as u32)
                .map(|s| now.since(s.last_report) <= stale)
                .unwrap_or(false);
            let echo = st.hw.is_up() && heard_recently;
            server.observe(now, i as u32, &key, echo as u8 as f64);
        }
    }
    execute_pending_actions(sim);
    sim.world_mut().server.housekeeping(now);
}
