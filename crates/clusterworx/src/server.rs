//! The ClusterWorX management server.
//!
//! The middle tier of the paper's 3-tier design: agents push reports up,
//! clients (GUI sessions) query downward. The server decodes reports,
//! feeds the history store, evaluates events and queues the resulting
//! actions for the chassis layer to execute.
//!
//! History is one `Arc<dyn Store>`: a [`MemStore`] ring from
//! [`Server::new`], or whatever [`Server::with_history`] is handed (a
//! `cwx_store::disk::DiskStore` for history that survives a restart).
//! Every report takes one path, [`commit`], in the simulator, in Lite
//! and in the live flush workers alike: its numeric values go to the
//! store as one batch stamped at the report's gather time, outside the
//! server borrow, then [`Server::ingest_report_events_only`] runs —
//! liveness, counters, events. The server never sees wire bytes:
//! decoding belongs to whoever owns the channel.

use std::collections::BTreeMap;
use std::ops::DerefMut;
use std::sync::{Arc, LazyLock};

use cwx_events::engine::{default_rules, EventDef, EventEngine, Firing};
use cwx_events::notify::{Email, Notifier};
use cwx_monitor::monitor::{MonitorKey, Value};
use cwx_monitor::transmit::{Report, WireError};
use cwx_store::mem::MemStore;
use cwx_store::{BatchSample, Store};
use cwx_util::time::{SimDuration, SimTime};

use cwx_events::Action;

use crate::lifecycle::LifecycleCounts;

/// Cap on the buffered alarm feed: non-federated deployments never call
/// [`Server::take_alarms`], so the buffer must stay bounded.
const ALARM_FEED_CAP: usize = 4096;

/// The sensor keys a probe reading is recorded under, in
/// [`Server::record_probe`]'s argument order — built once, not per
/// node per probe sweep.
static PROBE_KEYS: LazyLock<[MonitorKey; 3]> =
    LazyLock::new(|| ["temp.cpu", "power.watts", "fan.cpu_rpm"].map(MonitorKey::new));

/// Liveness bookkeeping per node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStatus {
    /// Last report arrival.
    pub last_report: SimTime,
    /// Reports received.
    pub reports: u64,
    /// Whether the server currently considers the node reachable.
    pub reachable: bool,
}

/// Server-side counters (experiment E11 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Reports received.
    pub reports_rx: u64,
    /// Wire bytes received.
    pub bytes_rx: u64,
    /// Individual values processed.
    pub values_rx: u64,
    /// Reports that failed to decode.
    pub decode_errors: u64,
    /// Well-formed reports the channel's sequence check refused (a
    /// duplicate, or a delta after a lost one): nothing stored, but
    /// each proved its node alive.
    pub refused: u64,
    /// Actions queued for execution.
    pub actions: u64,
}

/// An action the event engine wants executed on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingAction {
    /// Target node.
    pub node: u32,
    /// What to do.
    pub action: Action,
    /// The firing that caused it.
    pub cause: Firing,
}

/// A point-in-time rollup of one cluster, shaped for export to a
/// federation head: lifecycle census, liveness, traffic counters and
/// the alarms raised since the previous snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterSnapshot {
    /// Nodes in the cluster.
    pub n_nodes: u32,
    /// Census of nodes by lifecycle state.
    pub counts: LifecycleCounts,
    /// Nodes the server currently considers reachable.
    pub reachable: u32,
    /// Server-side traffic counters.
    pub stats: ServerStats,
    /// Alarms (event firings) drained since the last snapshot.
    pub alarms: Vec<Firing>,
    /// Alarms dropped because the feed buffer overflowed.
    pub alarms_dropped: u64,
}

/// One report as it reached the server: when it arrived, the size of
/// the frame it came in, and what that frame decoded to.
#[derive(Debug)]
pub struct Arrival {
    /// Receive time (liveness and event evaluation).
    pub recv: SimTime,
    /// Wire bytes of the frame.
    pub wire: usize,
    /// The decoded report, or why the frame did not decode.
    pub report: Result<Report, WireError>,
}

/// Commit a batch of arrivals: the one path from a decoded report to
/// the store and the event engine, in every deployment.
///
/// Every numeric sample is stamped at its report's gather time (the
/// receive time if that is not finite and non-negative), so store
/// contents are a pure function of the agent traffic. The samples go to
/// `store` as one batch outside the server borrow. Then `server` is
/// borrowed once: [`Server::ingest_report_events_only`] per report,
/// [`Server::note_refused`] per frame the sequence check refused,
/// [`Server::note_decode_error`] per other failure. The event engine never
/// reads history, so evaluating after the append sees what evaluating
/// between appends saw. Returns the samples appended.
pub fn commit<S: DerefMut<Target = Server>>(
    store: &dyn Store,
    arrivals: &[Arrival],
    server: impl FnOnce() -> S,
) -> usize {
    let mut batch: Vec<BatchSample<'_>> = Vec::new();
    for a in arrivals {
        let Ok(report) = &a.report else { continue };
        let t = report.time_secs;
        let at = if t.is_finite() && t >= 0.0 {
            SimTime::ZERO + SimDuration::from_secs_f64(t)
        } else {
            a.recv
        };
        batch.extend(report.values.iter().filter_map(|(key, value)| {
            value.as_num().map(|x| BatchSample {
                node: report.node,
                monitor: key.as_str(),
                time: at,
                value: x,
            })
        }));
    }
    store.append_batch(&batch);
    let mut srv = server();
    for a in arrivals {
        match &a.report {
            Ok(report) => srv.ingest_report_events_only(a.recv, report, a.wire),
            Err(e) => match e.refused_node() {
                Some(node) => srv.note_refused(a.recv, node, a.wire),
                None => srv.note_decode_error(a.wire),
            },
        }
    }
    batch.len()
}

/// The management server.
#[derive(Debug)]
pub struct Server {
    history: Arc<dyn Store>,
    engine: EventEngine,
    notifier: Notifier,
    status: BTreeMap<u32, NodeStatus>,
    pending: Vec<PendingAction>,
    stats: ServerStats,
    stale_after: SimDuration,
    /// Firings buffered for federation fan-in (bounded).
    alarm_feed: Vec<Firing>,
    alarms_dropped: u64,
}

impl Server {
    /// A server with the paper's default rule set installed, keeping at
    /// most `history_capacity` samples per series in memory.
    pub fn new(
        cluster_name: &str,
        notify_window: SimDuration,
        history_capacity: usize,
        stale_after: SimDuration,
    ) -> Self {
        Server::with_history(
            cluster_name,
            notify_window,
            Arc::new(MemStore::new(history_capacity)),
            stale_after,
        )
    }

    /// A server over a caller-supplied history store — pass a
    /// `cwx_store::disk::DiskStore` and monitoring history (charts,
    /// range queries) survives a server restart.
    pub fn with_history(
        cluster_name: &str,
        notify_window: SimDuration,
        history: Arc<dyn Store>,
        stale_after: SimDuration,
    ) -> Self {
        let mut engine = EventEngine::new();
        for rule in default_rules() {
            engine.add(rule);
        }
        Server {
            history,
            engine,
            notifier: Notifier::new(cluster_name, notify_window),
            status: BTreeMap::new(),
            pending: Vec::new(),
            stats: ServerStats::default(),
            stale_after,
            alarm_feed: Vec::new(),
            alarms_dropped: 0,
        }
    }

    /// The event engine (to add administrator rules).
    pub fn engine_mut(&mut self) -> &mut EventEngine {
        &mut self.engine
    }

    /// The history store (charting queries; clone the `Arc` to write to
    /// it outside the server lock).
    pub fn history(&self) -> &Arc<dyn Store> {
        &self.history
    }

    /// Counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Per-node liveness.
    pub fn node_status(&self, node: u32) -> Option<NodeStatus> {
        self.status.get(&node).copied()
    }

    /// All emails sent so far.
    pub fn outbox(&self) -> &[Email] {
        self.notifier.outbox()
    }

    /// Emails suppressed by episode dedup.
    pub fn mails_suppressed(&self) -> u64 {
        self.notifier.suppressed()
    }

    /// Configure the notifier's event-storm rate limiter.
    pub fn set_storm_policy(&mut self, policy: cwx_events::StormPolicy) {
        self.notifier.set_storm_policy(policy);
    }

    /// Episodes the storm limiter has flagged so far.
    pub fn storms(&self) -> u64 {
        self.notifier.storms()
    }

    /// Take the queued actions (the chassis layer executes them).
    pub fn take_actions(&mut self) -> Vec<PendingAction> {
        std::mem::take(&mut self.pending)
    }

    /// Drain the buffered alarm feed (federation fan-in). Returns the
    /// firings since the last drain and the count dropped to the
    /// buffer cap in that window.
    pub fn take_alarms(&mut self) -> (Vec<Firing>, u64) {
        let dropped = std::mem::take(&mut self.alarms_dropped);
        (std::mem::take(&mut self.alarm_feed), dropped)
    }

    /// Nodes the server currently considers reachable.
    pub fn reachable_count(&self) -> u32 {
        self.status.values().filter(|st| st.reachable).count() as u32
    }

    /// This cluster's federation rollup over the control plane's
    /// lifecycle `counts`, draining the alarm feed. The census sizes
    /// the cluster: every node has a lifecycle state.
    pub fn cluster_snapshot(&mut self, counts: LifecycleCounts) -> ClusterSnapshot {
        let (alarms, alarms_dropped) = self.take_alarms();
        ClusterSnapshot {
            n_nodes: counts.total(),
            counts,
            reachable: self.reachable_count(),
            stats: self.stats(),
            alarms,
            alarms_dropped,
        }
    }

    /// Queue an administrator-requested action, exactly as if a rule had
    /// fired it. This is the scriptable entry point the control-plane
    /// equivalence tests drive through both deployments.
    pub fn request_action(&mut self, now: SimTime, node: u32, action: Action) {
        if action == Action::None {
            return;
        }
        self.stats.actions += 1;
        self.pending.push(PendingAction {
            node,
            action: action.clone(),
            cause: Firing {
                event: cwx_events::engine::EventId(0),
                node,
                time: now,
                value: 0.0,
                action,
            },
        });
    }

    /// Handle a report whose samples [`commit`] already appended to the
    /// store: account stats and liveness and run event evaluation.
    pub fn ingest_report_events_only(&mut self, now: SimTime, report: &Report, wire_bytes: usize) {
        self.stats.bytes_rx += wire_bytes as u64;
        self.stats.reports_rx += 1;
        self.heard_from(now, report.node).reports += 1;
        for (key, value) in &report.values {
            self.stats.values_rx += 1;
            if let Value::Num(x) = value {
                self.observe(now, report.node, key, *x);
            }
        }
    }

    /// Account a frame that failed to decode (the channel's owner
    /// decodes, outside the server lock).
    pub fn note_decode_error(&mut self, wire_bytes: usize) {
        self.stats.bytes_rx += wire_bytes as u64;
        self.stats.decode_errors += 1;
    }

    /// Account a frame from `node` that the channel's sequence check
    /// refused: nothing is stored or evaluated, but the node is alive.
    pub fn note_refused(&mut self, now: SimTime, node: u32, wire_bytes: usize) {
        self.stats.bytes_rx += wire_bytes as u64;
        self.stats.refused += 1;
        self.heard_from(now, node);
    }

    /// Liveness: `node` was heard from at `now`.
    fn heard_from(&mut self, now: SimTime, node: u32) -> &mut NodeStatus {
        let entry = self.status.entry(node).or_insert(NodeStatus {
            last_report: now,
            reports: 0,
            reachable: true,
        });
        entry.last_report = now;
        entry.reachable = true;
        entry
    }

    /// Feed one out-of-band observation (ICE Box probe path — works even
    /// when the node OS is hung).
    pub fn observe(&mut self, now: SimTime, node: u32, key: &MonitorKey, value: f64) {
        let (fired, cleared) = self.engine.observe(now, node, key, value);
        for f in &fired {
            if self.alarm_feed.len() < ALARM_FEED_CAP {
                self.alarm_feed.push(f.clone());
            } else {
                self.alarms_dropped += 1;
            }
            if let Some(def) = self.engine.defs().iter().find(|d| d.id == f.event) {
                let def: EventDef = def.clone();
                self.notifier.on_fire(now, &def, f);
            }
            if f.action != Action::None {
                self.stats.actions += 1;
                self.pending.push(PendingAction {
                    node,
                    action: f.action.clone(),
                    cause: f.clone(),
                });
            }
        }
        for c in &cleared {
            self.notifier.on_clear(c);
        }
    }

    /// Record a probe reading into history under the sensor keys.
    pub fn record_probe(&mut self, now: SimTime, node: u32, temp_c: f64, watts: f64, fan_rpm: f64) {
        let readings = [temp_c, watts, fan_rpm];
        let batch: [BatchSample<'_>; 3] = std::array::from_fn(|i| BatchSample {
            node,
            monitor: PROBE_KEYS[i].as_str(),
            time: now,
            value: readings[i],
        });
        self.history.append_batch(&batch);
        for (key, v) in PROBE_KEYS.iter().zip(readings) {
            self.observe(now, node, key, v);
        }
    }

    /// Housekeeping: flush due mail, mark silent nodes unreachable.
    /// Returns the emails sent this round.
    pub fn housekeeping(&mut self, now: SimTime) -> Vec<Email> {
        for st in self.status.values_mut() {
            if now.since(st.last_report) > self.stale_after {
                st.reachable = false;
            }
        }
        self.notifier.flush(now, self.engine.defs())
    }

    /// The engine lost track of a node (powered down): clear its trigger
    /// state so the event can re-fire after repair.
    pub fn forget_node(&mut self, node: u32) {
        for c in self.engine.forget_node(node) {
            self.notifier.on_clear(&c);
        }
        if let Some(st) = self.status.get_mut(&node) {
            st.reachable = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_monitor::transmit::{encode_compressed, WireDecoder};

    /// Commit one arrival through the one report path.
    fn commit_one(s: &mut Server, now: SimTime, wire: usize, report: Result<Report, WireError>) {
        let store = Arc::clone(s.history());
        let arrival = Arrival {
            recv: now,
            wire,
            report,
        };
        commit(&*store, &[arrival], || s);
    }

    /// Commit one frame, decoded by a fresh channel decoder.
    fn ingest(s: &mut Server, now: SimTime, payload: &[u8]) {
        let report = WireDecoder::new().decode_auto(payload);
        commit_one(s, now, payload.len(), report);
    }

    fn server() -> Server {
        Server::new(
            "test",
            SimDuration::from_secs(5),
            100,
            SimDuration::from_secs(30),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn report(node: u32, temp: f64) -> Report {
        Report {
            node,
            seq: 0,
            time_secs: 0.0,
            values: vec![
                (MonitorKey::new("temp.cpu"), Value::Num(temp)),
                (MonitorKey::new("load.one"), Value::Num(0.5)),
            ],
        }
    }

    #[test]
    fn ingest_decodes_and_stores_history() {
        let mut s = server();
        let payload = encode_compressed(&report(7, 55.0));
        ingest(&mut s, t(1), &payload);
        let st = s.stats();
        assert_eq!(st.reports_rx, 1);
        assert_eq!(st.values_rx, 2);
        assert_eq!(st.bytes_rx, payload.len() as u64);
        let latest = s.history().latest(7, "temp.cpu").unwrap();
        assert_eq!(latest.value, 55.0);
        assert!(s.node_status(7).unwrap().reachable);
    }

    #[test]
    fn garbage_counts_as_decode_error() {
        let mut s = server();
        ingest(&mut s, t(1), b"definitely not a report");
        assert_eq!(s.stats().decode_errors, 1);
        assert_eq!(s.stats().reports_rx, 0);
    }

    #[test]
    fn a_refused_report_proves_liveness_and_stores_nothing() {
        let mut s = server();
        let mut dec = WireDecoder::new();
        let payload = encode_compressed(&report(7, 55.0));
        for now in [t(1), t(50)] {
            let report = dec.decode_auto(&payload);
            commit_one(&mut s, now, payload.len(), report);
        }
        let st = s.stats();
        assert_eq!((st.reports_rx, st.refused, st.decode_errors), (1, 1, 0));
        assert_eq!(st.bytes_rx, 2 * payload.len() as u64);
        assert_eq!(s.history().total_samples(), 2, "one copy stored");
        let status = s.node_status(7).unwrap();
        assert_eq!((status.last_report, status.reports), (t(50), 1));
        // stale after 30 s: the stored copy is 59 s old, the refused 10 s
        s.housekeeping(t(60));
        assert!(s.node_status(7).unwrap().reachable);
    }

    #[test]
    fn overtemp_report_queues_power_down() {
        let mut s = server();
        commit_one(&mut s, t(1), 0, Ok(report(3, 80.0)));
        let actions = s.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].node, 3);
        assert_eq!(actions[0].action, Action::PowerDown);
        // drained
        assert!(s.take_actions().is_empty());
    }

    #[test]
    fn probe_path_catches_hung_nodes() {
        let mut s = server();
        // no agent reports at all; the ICE Box probe sees a dead fan
        s.record_probe(t(1), 5, 60.0, 150.0, 0.0);
        let actions = s.take_actions();
        assert!(actions.iter().any(|a| a.action == Action::PowerDown));
    }

    #[test]
    fn housekeeping_flushes_mail_and_marks_stale() {
        let mut s = server();
        commit_one(&mut s, t(1), 0, Ok(report(1, 80.0)));
        assert!(s.housekeeping(t(2)).is_empty(), "window not expired");
        let mails = s.housekeeping(t(10));
        assert_eq!(mails.len(), 1);
        assert!(mails[0].subject.contains("cpu-overtemp"));
        // silence makes the node unreachable
        assert!(s.node_status(1).unwrap().reachable);
        s.housekeeping(t(60));
        assert!(!s.node_status(1).unwrap().reachable);
    }

    #[test]
    fn forget_node_allows_refire() {
        let mut s = server();
        commit_one(&mut s, t(1), 0, Ok(report(2, 80.0)));
        assert_eq!(s.take_actions().len(), 1);
        s.forget_node(2);
        // node repaired and reports hot again: must re-fire
        commit_one(&mut s, t(100), 0, Ok(report(2, 81.0)));
        assert_eq!(s.take_actions().len(), 1);
    }

    #[test]
    fn text_values_do_not_hit_the_engine() {
        let mut s = server();
        let r = Report {
            node: 1,
            seq: 0,
            time_secs: 0.0,
            values: vec![(MonitorKey::new("cpu.type"), Value::Text("PIII".into()))],
        };
        commit_one(&mut s, t(1), 0, Ok(r));
        assert!(s.take_actions().is_empty());
        assert_eq!(s.stats().values_rx, 1);
    }
}
