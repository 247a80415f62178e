//! The federation head: fleet-wide aggregated view, command fan-out
//! with retry, graceful degradation, and per-cluster audit trails.
//!
//! The head never forgets a cluster on silence — it serves the last
//! known view marked [`ClusterStatus::Stale`] with its age, queues
//! commands for the cluster (idempotent, bounded retry once the link
//! returns), and reconciles wholesale when the sub-server's `Resync`
//! frame arrives. Retry attempts only burn while the cluster is fresh:
//! a partition is not the command's fault.

use std::collections::BTreeMap;

use clusterworx::{LifecycleCounts, RetryPolicy};
use cwx_events::engine::{ClusterEventId, EventId};
use cwx_events::Action;
use cwx_monitor::transmit::WireDecoder;
use cwx_util::time::{SimDuration, SimTime};

use crate::protocol::{FedWireError, Frame};
use crate::sub::counts_from_rollup;

/// How the head currently regards a cluster's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterStatus {
    /// Heard from within the staleness window.
    Fresh,
    /// Silent for the contained age; the last known view is served.
    Stale(SimDuration),
}

/// The head's view of one cluster.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Cluster id.
    pub cluster: u16,
    /// Nodes the sub-server manages.
    pub n_nodes: u32,
    /// Last known lifecycle census.
    pub counts: LifecycleCounts,
    /// Last known reachable-node count.
    pub reachable: u32,
    /// When the head last heard from the sub-server.
    pub last_seen: SimTime,
    /// Alarms recorded from this cluster.
    pub alarms_seen: u64,
    /// Alarms the sub-server reported dropping before export.
    pub alarms_dropped: u64,
    /// Latest decoded rollup values by key (merged across delta frames).
    metrics: BTreeMap<String, f64>,
    /// Whether the last `tick` considered the view stale (edge
    /// detection for the audit trail).
    marked_stale: bool,
}

/// One row in a per-cluster head audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadAuditRow {
    /// Head-wide monotonic sequence number (total order across
    /// clusters; rows within one cluster are also in order).
    pub seq: u64,
    /// When.
    pub time: SimTime,
    /// The cluster concerned.
    pub cluster: u16,
    /// What happened.
    pub entry: HeadAuditEntry,
}

impl std::fmt::Display for HeadAuditRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "c{:03} #{} t={:.3}s {:?}",
            self.cluster,
            self.seq,
            self.time.as_secs_f64(),
            self.entry
        )
    }
}

/// What a head audit row records.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadAuditEntry {
    /// A sub-server introduced itself.
    ClusterJoined {
        /// Nodes it manages.
        n_nodes: u32,
    },
    /// An alarm arrived through fan-in.
    AlarmRecorded {
        /// Cluster-qualified event id.
        id: ClusterEventId,
        /// Node it fired on.
        node: u32,
        /// Observed value.
        value: f64,
    },
    /// The sub-server's bounded feed dropped alarms before export.
    AlarmsDropped {
        /// How many.
        n: u64,
    },
    /// A command was sent (attempt 1) or re-sent.
    CommandIssued {
        /// Command id.
        id: u64,
        /// Target node.
        node: u32,
        /// The action.
        action: Action,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A command is waiting out a partition (logged once per outage).
    CommandQueued {
        /// Command id.
        id: u64,
        /// Target node.
        node: u32,
        /// The action.
        action: Action,
    },
    /// The sub-server acknowledged a command.
    CommandDelivered {
        /// Command id.
        id: u64,
        /// True when the sub had already applied it (redelivery).
        duplicate: bool,
    },
    /// A command exhausted its retry budget while the cluster was
    /// reachable.
    CommandFailed {
        /// Command id.
        id: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// The view aged past the staleness window.
    ClusterStale,
    /// A resync frame replaced the view after an outage.
    ClusterResynced {
        /// Nodes after resync.
        n_nodes: u32,
        /// Commands released from the partition queue.
        released: usize,
        /// In-flight commands the resync proved already applied.
        already_applied: usize,
    },
    /// The administrator removed the cluster from the federation.
    ClusterForgotten {
        /// Pending commands aborted with it.
        aborted: usize,
    },
}

/// Head-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeadStats {
    /// Federation frames received.
    pub frames_rx: u64,
    /// Federation bytes received.
    pub bytes_rx: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Alarms recorded.
    pub alarms_rx: u64,
    /// Command send attempts (first sends and retries).
    pub commands_sent: u64,
    /// Commands acknowledged.
    pub commands_delivered: u64,
    /// Commands that exhausted their retry budget.
    pub commands_failed: u64,
    /// Resync frames processed.
    pub resyncs: u64,
}

/// The fleet-wide aggregate the head serves to its clients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetView {
    /// Clusters known (fresh or stale).
    pub clusters: u32,
    /// Clusters currently stale.
    pub stale: u32,
    /// Total nodes across all clusters.
    pub total_nodes: u32,
    /// Summed lifecycle census.
    pub counts: LifecycleCounts,
    /// Summed reachable-node counts.
    pub reachable: u32,
}

#[derive(Debug, Clone)]
struct PendingCommand {
    id: u64,
    cluster: u16,
    node: u32,
    action: Action,
    attempts: u32,
    next_try: SimTime,
    queued_logged: bool,
}

/// The federation head.
#[derive(Debug)]
pub struct FederationHead {
    stale_after: SimDuration,
    retry: RetryPolicy,
    decoder: WireDecoder,
    clusters: BTreeMap<u16, ClusterView>,
    pending: Vec<PendingCommand>,
    next_id: u64,
    audit: BTreeMap<u16, Vec<HeadAuditRow>>,
    seq: u64,
    stats: HeadStats,
}

impl FederationHead {
    /// A head that marks clusters stale after `stale_after` of silence
    /// and retries commands under `retry`.
    pub fn new(stale_after: SimDuration, retry: RetryPolicy) -> Self {
        FederationHead {
            stale_after,
            retry,
            decoder: WireDecoder::new(),
            clusters: BTreeMap::new(),
            pending: Vec::new(),
            next_id: 1,
            audit: BTreeMap::new(),
            seq: 0,
            stats: HeadStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> HeadStats {
        self.stats
    }

    /// The head's view of one cluster (fresh or stale).
    pub fn cluster(&self, cluster: u16) -> Option<&ClusterView> {
        self.clusters.get(&cluster)
    }

    /// All known cluster ids, in order.
    pub fn cluster_ids(&self) -> Vec<u16> {
        self.clusters.keys().copied().collect()
    }

    /// How the head currently regards `cluster`.
    pub fn status(&self, now: SimTime, cluster: u16) -> Option<ClusterStatus> {
        let view = self.clusters.get(&cluster)?;
        let age = now.since(view.last_seen);
        Some(if age > self.stale_after {
            ClusterStatus::Stale(age)
        } else {
            ClusterStatus::Fresh
        })
    }

    /// The fleet-wide aggregate: stale clusters contribute their last
    /// known view rather than vanishing.
    pub fn aggregate(&self, now: SimTime) -> FleetView {
        let mut fleet = FleetView::default();
        for view in self.clusters.values() {
            fleet.clusters += 1;
            if now.since(view.last_seen) > self.stale_after {
                fleet.stale += 1;
            }
            fleet.total_nodes += view.n_nodes;
            fleet.counts.accumulate(&view.counts);
            fleet.reachable += view.reachable;
        }
        fleet
    }

    /// Commands currently queued or awaiting retry for `cluster`.
    pub fn outstanding(&self, cluster: u16) -> usize {
        self.pending.iter().filter(|p| p.cluster == cluster).count()
    }

    /// Ingest one sub→head frame, returning the cluster it spoke for:
    /// the head routes that cluster's commands down the connection the
    /// frame came on. A `Metrics` frame whose payload is refused still
    /// names its cluster, as [`FedWireError::BadPayload`].
    pub fn ingest(&mut self, now: SimTime, bytes: &[u8]) -> Result<u16, FedWireError> {
        self.stats.bytes_rx += bytes.len() as u64;
        let frame = match Frame::decode(bytes) {
            Ok(f) => f,
            Err(e) => {
                self.stats.decode_errors += 1;
                return Err(e);
            }
        };
        self.stats.frames_rx += 1;
        let cluster = match frame {
            Frame::Hello { cluster, n_nodes } => {
                let known = self.clusters.contains_key(&cluster);
                let view = self.view_mut(cluster, now);
                view.n_nodes = n_nodes;
                view.last_seen = now;
                if !known {
                    self.record(now, cluster, HeadAuditEntry::ClusterJoined { n_nodes });
                }
                cluster
            }
            Frame::Metrics { cluster, payload } => {
                let report = self
                    .decoder
                    .decode_auto(&payload)
                    .map_err(|_| FedWireError::BadPayload { cluster })?;
                let view = self.view_mut(cluster, now);
                view.last_seen = now;
                for (key, value) in &report.values {
                    if let cwx_monitor::monitor::Value::Num(x) = value {
                        view.metrics.insert(key.to_string(), *x);
                    }
                }
                let counts = {
                    let m = &view.metrics;
                    counts_from_rollup(|k| m.get(k).copied())
                };
                view.counts = counts;
                if let Some(n) = view.metrics.get("fleet.nodes") {
                    view.n_nodes = *n as u32;
                }
                if let Some(r) = view.metrics.get("fleet.reachable") {
                    view.reachable = *r as u32;
                }
                cluster
            }
            Frame::Alarm {
                cluster,
                alarms,
                dropped,
            } => {
                let view = self.view_mut(cluster, now);
                view.last_seen = now;
                view.alarms_seen += alarms.len() as u64;
                view.alarms_dropped += dropped;
                self.stats.alarms_rx += alarms.len() as u64;
                for a in alarms {
                    self.record(
                        now,
                        cluster,
                        HeadAuditEntry::AlarmRecorded {
                            id: ClusterEventId {
                                cluster,
                                event: EventId(a.event.0),
                            },
                            node: a.node,
                            value: a.value,
                        },
                    );
                }
                if dropped > 0 {
                    self.record(now, cluster, HeadAuditEntry::AlarmsDropped { n: dropped });
                }
                cluster
            }
            Frame::Resync {
                cluster,
                n_nodes,
                counts,
                reachable,
                applied,
            } => {
                self.stats.resyncs += 1;
                let view = self.view_mut(cluster, now);
                view.last_seen = now;
                view.n_nodes = n_nodes;
                view.counts = counts;
                view.reachable = reachable;
                view.marked_stale = false;
                // in-flight commands the sub already applied before the
                // partition: delivered, not retried
                let mut already = 0usize;
                let mut delivered = Vec::new();
                self.pending.retain(|p| {
                    if p.cluster == cluster && p.attempts > 0 && applied.contains(&p.id) {
                        delivered.push(p.id);
                        already += 1;
                        false
                    } else {
                        true
                    }
                });
                for id in delivered {
                    self.stats.commands_delivered += 1;
                    self.record(
                        now,
                        cluster,
                        HeadAuditEntry::CommandDelivered {
                            id,
                            duplicate: true,
                        },
                    );
                }
                // release the partition queue: everything still pending
                // becomes due immediately
                let mut released = 0usize;
                for p in self.pending.iter_mut().filter(|p| p.cluster == cluster) {
                    p.next_try = now;
                    p.queued_logged = false;
                    released += 1;
                }
                self.record(
                    now,
                    cluster,
                    HeadAuditEntry::ClusterResynced {
                        n_nodes,
                        released,
                        already_applied: already,
                    },
                );
                cluster
            }
            Frame::CommandAck { cluster, id, fresh } => {
                let before = self.pending.len();
                self.pending.retain(|p| p.id != id);
                if self.pending.len() != before {
                    self.stats.commands_delivered += 1;
                    self.record(
                        now,
                        cluster,
                        HeadAuditEntry::CommandDelivered {
                            id,
                            duplicate: !fresh,
                        },
                    );
                }
                if let Some(view) = self.clusters.get_mut(&cluster) {
                    view.last_seen = now;
                }
                cluster
            }
            Frame::Command { .. } => return Err(FedWireError::BadType),
        };
        Ok(cluster)
    }

    /// Queue a control-plane command for the owning sub-server. Returns
    /// the command id (the idempotency token the sub dedups on).
    pub fn request_action(&mut self, now: SimTime, cluster: u16, node: u32, action: Action) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(PendingCommand {
            id,
            cluster,
            node,
            action,
            attempts: 0,
            next_try: now,
            queued_logged: false,
        });
        id
    }

    /// Staleness edge detection: audit each Fresh→Stale transition once.
    pub fn tick(&mut self, now: SimTime) {
        let stale_after = self.stale_after;
        let transitions: Vec<u16> = self
            .clusters
            .values_mut()
            .filter_map(|v| {
                let stale = now.since(v.last_seen) > stale_after;
                if stale && !v.marked_stale {
                    v.marked_stale = true;
                    Some(v.cluster)
                } else {
                    if !stale {
                        v.marked_stale = false;
                    }
                    None
                }
            })
            .collect();
        for cluster in transitions {
            self.record(now, cluster, HeadAuditEntry::ClusterStale);
        }
    }

    /// Due command deliveries: encoded `Command` frames per owning
    /// cluster, in `(cluster, command id)` order. Stale clusters keep
    /// their commands queued without burning attempts; commands that
    /// exhaust the retry budget while the cluster is reachable are
    /// dropped loudly (audited + counted).
    pub fn poll(&mut self, now: SimTime) -> Vec<(u16, Vec<u8>)> {
        self.tick(now);
        let mut out = Vec::new();
        let mut failed = Vec::new();
        let mut rows = Vec::new();
        self.pending.sort_by_key(|p| (p.cluster, p.id));
        for p in &mut self.pending {
            let fresh = match self.clusters.get(&p.cluster) {
                Some(v) => now.since(v.last_seen) <= self.stale_after,
                None => false,
            };
            if !fresh {
                if !p.queued_logged {
                    p.queued_logged = true;
                    rows.push((
                        p.cluster,
                        HeadAuditEntry::CommandQueued {
                            id: p.id,
                            node: p.node,
                            action: p.action.clone(),
                        },
                    ));
                }
                continue;
            }
            if p.next_try > now {
                continue;
            }
            if p.attempts >= self.retry.max_attempts {
                failed.push(p.id);
                rows.push((
                    p.cluster,
                    HeadAuditEntry::CommandFailed {
                        id: p.id,
                        attempts: p.attempts,
                    },
                ));
                continue;
            }
            p.attempts += 1;
            p.next_try = now + self.retry.backoff(p.attempts);
            self.stats.commands_sent += 1;
            rows.push((
                p.cluster,
                HeadAuditEntry::CommandIssued {
                    id: p.id,
                    node: p.node,
                    action: p.action.clone(),
                    attempt: p.attempts,
                },
            ));
            out.push((
                p.cluster,
                Frame::Command {
                    id: p.id,
                    node: p.node,
                    action: p.action.clone(),
                }
                .encode(),
            ));
        }
        self.stats.commands_failed += failed.len() as u64;
        self.pending.retain(|p| !failed.contains(&p.id));
        for (cluster, entry) in rows {
            self.record(now, cluster, entry);
        }
        out
    }

    /// Remove a cluster from the federation — the administrative
    /// counterpart of `Server::forget_node`. Aborts its queued
    /// commands (audited) and drops the view; the audit trail itself
    /// is append-only and survives.
    pub fn forget_cluster(&mut self, now: SimTime, cluster: u16) {
        let before = self.pending.len();
        self.pending.retain(|p| p.cluster != cluster);
        let aborted = before - self.pending.len();
        if self.clusters.remove(&cluster).is_some() || aborted > 0 {
            self.record(now, cluster, HeadAuditEntry::ClusterForgotten { aborted });
        }
    }

    /// One cluster's audit trail, in order.
    pub fn cluster_audit(&self, cluster: u16) -> &[HeadAuditRow] {
        self.audit.get(&cluster).map(Vec::as_slice).unwrap_or(&[])
    }

    /// FNV-1a fingerprint of one cluster's audit trail (the
    /// workspace-canonical [`cwx_util::hash`] debug fold).
    pub fn cluster_audit_hash(&self, cluster: u16) -> u64 {
        cwx_util::hash::fnv1a_debug(self.cluster_audit(cluster))
    }

    /// The head audit hash: FNV-1a over the ordered per-cluster hashes
    /// (cluster-id order), so two heads that saw the same per-cluster
    /// histories agree even if interleaving differed.
    pub fn audit_hash(&self) -> u64 {
        use cwx_util::hash::{fnv1a_fold, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        for &cluster in self.audit.keys() {
            let ch = self.cluster_audit_hash(cluster);
            h = fnv1a_fold(h, &cluster.to_le_bytes());
            h = fnv1a_fold(h, &ch.to_le_bytes());
        }
        h
    }

    fn view_mut(&mut self, cluster: u16, now: SimTime) -> &mut ClusterView {
        self.clusters.entry(cluster).or_insert_with(|| ClusterView {
            cluster,
            n_nodes: 0,
            counts: LifecycleCounts::default(),
            reachable: 0,
            last_seen: now,
            alarms_seen: 0,
            alarms_dropped: 0,
            metrics: BTreeMap::new(),
            marked_stale: false,
        })
    }

    fn record(&mut self, now: SimTime, cluster: u16, entry: HeadAuditEntry) {
        let seq = self.seq;
        self.seq += 1;
        self.audit.entry(cluster).or_default().push(HeadAuditRow {
            seq,
            time: now,
            cluster,
            entry,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn head() -> FederationHead {
        FederationHead::new(SimDuration::from_secs(30), RetryPolicy::default())
    }

    #[test]
    fn hello_then_metrics_builds_a_view() {
        let mut h = head();
        let mut link = crate::sub::SubLink::new(4);
        h.ingest(t(0), &link.hello(16)).unwrap();
        let snap = clusterworx::ClusterSnapshot {
            n_nodes: 16,
            counts: LifecycleCounts {
                up: 14,
                off: 2,
                ..Default::default()
            },
            reachable: 14,
            ..Default::default()
        };
        for f in link.export(t(1), &snap) {
            h.ingest(t(1), &f).unwrap();
        }
        let v = h.cluster(4).unwrap();
        assert_eq!(v.n_nodes, 16);
        assert_eq!(v.counts.up, 14);
        assert_eq!(h.aggregate(t(1)).total_nodes, 16);
        assert_eq!(h.status(t(1), 4), Some(ClusterStatus::Fresh));
    }

    #[test]
    fn ingest_names_the_cluster_each_frame_spoke_for() {
        let mut h = head();
        let report = cwx_monitor::transmit::Report {
            node: 4,
            seq: 0,
            time_secs: 1.0,
            values: Vec::new(),
        };
        let metrics = cwx_monitor::transmit::WireEncoder::new().encode(&report);
        let cases = [
            (
                Frame::Hello {
                    cluster: 3,
                    n_nodes: 2,
                },
                Ok(3),
            ),
            (
                Frame::Metrics {
                    cluster: 4,
                    payload: metrics,
                },
                Ok(4),
            ),
            (
                Frame::Metrics {
                    cluster: 5,
                    payload: b"junk".to_vec(),
                },
                Err(FedWireError::BadPayload { cluster: 5 }),
            ),
            (
                Frame::Alarm {
                    cluster: 6,
                    alarms: Vec::new(),
                    dropped: 1,
                },
                Ok(6),
            ),
            (
                Frame::Resync {
                    cluster: 7,
                    n_nodes: 2,
                    counts: LifecycleCounts::default(),
                    reachable: 2,
                    applied: Vec::new(),
                },
                Ok(7),
            ),
            (
                Frame::CommandAck {
                    cluster: 8,
                    id: 1,
                    fresh: true,
                },
                Ok(8),
            ),
            (
                Frame::Command {
                    id: 1,
                    node: 0,
                    action: Action::Reboot,
                },
                Err(FedWireError::BadType),
            ),
        ];
        for (frame, want) in cases {
            assert_eq!(h.ingest(t(1), &frame.encode()), want, "{frame:?}");
        }
        assert_eq!(
            h.ingest(t(1), b"not a federation frame"),
            Err(FedWireError::BadMagic)
        );
    }

    #[test]
    fn silence_degrades_to_stale_not_forgotten() {
        let mut h = head();
        let mut link = crate::sub::SubLink::new(1);
        h.ingest(t(0), &link.hello(8)).unwrap();
        h.tick(t(100));
        assert_eq!(
            h.status(t(100), 1),
            Some(ClusterStatus::Stale(SimDuration::from_secs(100)))
        );
        // the last known view still aggregates
        assert_eq!(h.aggregate(t(100)).clusters, 1);
        assert_eq!(h.aggregate(t(100)).stale, 1);
        // exactly one ClusterStale row despite repeated ticks
        h.tick(t(101));
        h.tick(t(102));
        let stale_rows = h
            .cluster_audit(1)
            .iter()
            .filter(|r| r.entry == HeadAuditEntry::ClusterStale)
            .count();
        assert_eq!(stale_rows, 1);
    }

    #[test]
    fn commands_queue_through_partition_and_release_on_resync() {
        let mut h = head();
        let mut link = crate::sub::SubLink::new(2);
        h.ingest(t(0), &link.hello(4)).unwrap();
        // partition: silence past the window, then a command arrives
        h.tick(t(60));
        let id = h.request_action(t(60), 2, 3, Action::Reboot);
        assert!(h.poll(t(61)).is_empty(), "stale cluster: queued, not sent");
        assert_eq!(h.outstanding(2), 1);
        // heal: sub resyncs, command goes out and is acked
        let snap = clusterworx::ClusterSnapshot {
            n_nodes: 4,
            ..Default::default()
        };
        for f in link.reconnect(t(90), &snap) {
            h.ingest(t(90), &f).unwrap();
        }
        let due = h.poll(t(90));
        assert_eq!(due.len(), 1);
        let delivery = link.handle_frame(&due[0].1).unwrap().unwrap();
        assert_eq!(delivery.apply, Some(Action::Reboot));
        h.ingest(t(90), &delivery.ack).unwrap();
        assert_eq!(h.outstanding(2), 0);
        assert_eq!(h.stats().commands_delivered, 1);
        let audit = h.cluster_audit(2);
        assert!(audit
            .iter()
            .any(|r| matches!(r.entry, HeadAuditEntry::CommandQueued { id: i, .. } if i == id)));
        assert!(audit
            .iter()
            .any(|r| matches!(r.entry, HeadAuditEntry::CommandDelivered { id: i, .. } if i == id)));
    }

    #[test]
    fn retries_burn_only_while_fresh_and_fail_loudly() {
        let mut h = FederationHead::new(
            SimDuration::from_secs(1_000_000),
            RetryPolicy {
                base: SimDuration::from_secs(1),
                max_delay: SimDuration::from_secs(4),
                max_attempts: 2,
            },
        );
        let mut link = crate::sub::SubLink::new(1);
        h.ingest(t(0), &link.hello(4)).unwrap();
        h.request_action(t(0), 1, 0, Action::Halt);
        assert_eq!(h.poll(t(0)).len(), 1, "attempt 1");
        assert_eq!(h.poll(t(2)).len(), 1, "attempt 2");
        assert!(h.poll(t(10)).is_empty(), "budget exhausted");
        assert_eq!(h.stats().commands_failed, 1);
        assert_eq!(h.outstanding(1), 0, "failed command is dropped loudly");
        assert!(h
            .cluster_audit(1)
            .iter()
            .any(|r| matches!(r.entry, HeadAuditEntry::CommandFailed { .. })));
    }

    #[test]
    fn forget_cluster_aborts_and_audits() {
        let mut h = head();
        let mut link = crate::sub::SubLink::new(9);
        h.ingest(t(0), &link.hello(4)).unwrap();
        h.request_action(t(1), 9, 0, Action::PowerDown);
        h.forget_cluster(t(2), 9);
        assert!(h.cluster(9).is_none());
        assert_eq!(h.outstanding(9), 0);
        assert!(h
            .cluster_audit(9)
            .iter()
            .any(|r| matches!(r.entry, HeadAuditEntry::ClusterForgotten { aborted: 1 })));
        // audit hash still covers the forgotten cluster's history
        assert_ne!(
            h.audit_hash(),
            FederationHead::new(SimDuration::from_secs(30), RetryPolicy::default()).audit_hash()
        );
    }

    #[test]
    fn audit_rows_carry_cluster_prefix() {
        let mut h = head();
        let mut link = crate::sub::SubLink::new(12);
        h.ingest(t(0), &link.hello(4)).unwrap();
        let row = &h.cluster_audit(12)[0];
        assert!(row.to_string().starts_with("c012 "), "got {row}");
    }
}
