//! ClusterWorX Lite: the single-host edition.
//!
//! The companion white paper ships a trimmed "ClusterWorX Lite" for
//! small installations — monitoring, history, events and notification on
//! one machine, without the 3-tier server or any chassis hardware. The
//! reproduction's Lite is an [`Agent`] over any [`cwx_proc::ProcSource`]
//! feeding an in-process [`Server`] — the same history, event and
//! notification path a cluster's reports take — which makes it directly
//! usable on the real `/proc` of a Linux host. Actions are surfaced to
//! the caller as firings (there is no ICE Box to switch relays through).

use std::io;
use std::sync::Arc;

use cwx_events::engine::{EventEngine, Firing};
use cwx_events::notify::Email;
use cwx_monitor::agent::{Agent, AgentConfig};
use cwx_monitor::monitor::Registry;
use cwx_monitor::snapshot::Sensors;
use cwx_proc::source::ProcSource;
use cwx_store::Store;
use cwx_util::time::{SimDuration, SimTime};

use crate::server::{commit, Arrival, Server};

/// One Lite tick's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LiteTick {
    /// Values that changed this tick.
    pub changed_values: usize,
    /// Events that fired (the caller decides what to do; Lite has no
    /// chassis to act through).
    pub fired: Vec<Firing>,
    /// Emails that became due.
    pub mail: Vec<Email>,
}

/// A standalone single-host monitor.
pub struct LiteMonitor<S: ProcSource> {
    agent: Agent<S>,
    server: Server,
}

impl<S: ProcSource + Clone> LiteMonitor<S> {
    /// Build over a proc source with the default rule set.
    pub fn new(source: S, host: &str) -> io::Result<Self> {
        Ok(LiteMonitor {
            agent: Agent::new(
                source,
                AgentConfig {
                    node: 0,
                    // Lite never transmits; skip compression work
                    compress: false,
                    ..AgentConfig::default()
                },
            )?,
            // one host reporting to itself every tick is never stale
            server: Server::new(
                host,
                SimDuration::from_secs(30),
                720,
                SimDuration::from_nanos(u64::MAX),
            ),
        })
    }

    /// Local history (for charting).
    pub fn history(&self) -> &Arc<dyn Store> {
        self.server.history()
    }

    /// Event engine (to add site rules).
    pub fn engine_mut(&mut self) -> &mut EventEngine {
        self.server.engine_mut()
    }

    /// The monitor registry (to add plug-ins).
    pub fn registry_mut(&mut self) -> &mut Registry {
        self.agent.registry_mut()
    }

    /// All notifications so far.
    pub fn outbox(&self) -> &[Email] {
        self.server.outbox()
    }

    /// One sampling cycle at logical time `now`.
    pub fn tick(&mut self, now: SimTime, sensors: Sensors) -> io::Result<LiteTick> {
        let out = self.agent.tick(now, sensors)?;
        let changed_values = out.report.values.len();
        let store = Arc::clone(self.server.history());
        // Lite never transmits: the report arrives with no wire bytes
        let arrival = Arrival {
            recv: now,
            wire: 0,
            report: Ok(out.report),
        };
        commit(&*store, &[arrival], || &mut self.server);
        // every tick drains the feed, so it never reaches its cap
        let (fired, _) = self.server.take_alarms();
        let mail = self.server.housekeeping(now);
        // no chassis: the firings above are how actions surface
        self.server.take_actions();
        Ok(LiteTick {
            changed_values,
            fired,
            mail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_events::Action;
    use cwx_monitor::monitor::Value;
    use cwx_proc::synthetic::SyntheticProc;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn lite_monitors_and_charts_locally() {
        let proc_ = SyntheticProc::default();
        let mut lite = LiteMonitor::new(proc_.clone(), "workstation").unwrap();
        for i in 1..=20u64 {
            proc_.with_state(|s| s.tick(5.0, 0.3));
            lite.tick(
                t(i * 5),
                Sensors {
                    udp_echo_ok: true,
                    fan_rpm: 6000.0,
                    power_watts: 120.0,
                    ..Default::default()
                },
            )
            .unwrap();
        }
        let hist = lite.history().range(0, "uptime.secs", t(0), t(1000));
        assert_eq!(hist.len(), 20);
        assert!(lite.outbox().is_empty(), "healthy host, no mail");
    }

    #[test]
    fn lite_fires_events_and_mails_without_a_server() {
        let proc_ = SyntheticProc::default();
        let mut lite = LiteMonitor::new(proc_.clone(), "workstation").unwrap();
        // healthy tick, then the fan dies
        let ok = |fan: f64| Sensors {
            fan_rpm: fan,
            udp_echo_ok: true,
            power_watts: 120.0,
            ..Default::default()
        };
        lite.tick(t(5), ok(6000.0)).unwrap();
        let tick = lite.tick(t(10), ok(0.0)).unwrap();
        assert_eq!(tick.fired.len(), 1);
        assert_eq!(tick.fired[0].action, Action::PowerDown);
        // mail flushes after the batching window
        let later = lite.tick(t(60), ok(0.0)).unwrap();
        assert_eq!(later.mail.len(), 1);
        assert!(later.mail[0].subject.contains("cpu-fan-failure"));
        assert!(later.mail[0].cluster == "workstation");
    }

    #[test]
    fn lite_accepts_plugins() {
        let proc_ = SyntheticProc::default();
        let mut lite = LiteMonitor::new(proc_, "ws").unwrap();
        lite.registry_mut().register_plugin(
            "site.answer",
            cwx_monitor::monitor::MonitorClass::Static,
            "",
            |_| Some(Value::Num(42.0)),
        );
        lite.tick(
            t(5),
            Sensors {
                power_watts: 120.0,
                fan_rpm: 6000.0,
                ..Default::default()
            },
        )
        .unwrap();
        let v = lite.history().latest(0, "site.answer").unwrap();
        assert_eq!(v.value, 42.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn lite_runs_on_the_real_host() {
        use cwx_proc::source::RealProc;
        let src = RealProc::new();
        if !src.available() {
            return;
        }
        let mut lite = LiteMonitor::new(src, "build-host").unwrap();
        let tick = lite
            .tick(
                t(5),
                Sensors {
                    fan_rpm: 6000.0,
                    udp_echo_ok: true,
                    power_watts: 120.0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            tick.changed_values > 40,
            "first tick carries the full monitor set"
        );
        assert!(lite.history().latest(0, "mem.total").is_some());
    }
}
