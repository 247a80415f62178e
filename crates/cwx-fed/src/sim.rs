//! The federated simulation: N independent cluster worlds stepped in
//! lock-step epochs under one seed, exchanging federation frames with
//! an in-process head.
//!
//! An epoch steps every sub-world to the epoch boundary concurrently,
//! on one thread per CPU the process may use (never more threads than
//! worlds), then exports and drains them into the head in cluster-id
//! order on the calling thread.
//!
//! Determinism discipline: a sub-world shares no state with any other,
//! so which thread steps it, and when, cannot change it; everything that
//! crosses worlds (export, head ingest, command fan-out) runs serially in
//! cluster-id order. Per-cluster seeds derive from the federation seed
//! with a splitmix-style mix, and every head structure iterates in
//! `BTreeMap` order — so two runs with the same [`FederationConfig`]
//! produce byte-identical audit trails on any number of CPUs (the CI
//! smoke job asserts the hash, and a unit test steps one federation
//! through 1, 2, 3 and 8 threads). Wall-clock load accounting uses
//! `std::time::Instant` but never feeds back into simulated state.

use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use clusterworx::{Cluster, ClusterConfig, LifecycleCounts, RetryPolicy, World};
use cwx_events::Action;
use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};

use crate::head::{FederationHead, FleetView};
use crate::sub::SubLink;

/// Build parameters for [`FederationSim`].
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Federation seed; per-cluster seeds derive from it.
    pub seed: u64,
    /// One config per sub-cluster. `cluster_id` and `seed` are
    /// overwritten by the builder to keep identities and streams
    /// consistent.
    pub clusters: Vec<ClusterConfig>,
    /// How often each sub-server exports a rollup upward.
    pub uplink_interval: SimDuration,
    /// Head-side staleness window.
    pub stale_after: SimDuration,
}

impl FederationConfig {
    /// A federation of `n_clusters` identical clusters of `nodes_per`
    /// nodes each.
    pub fn uniform(n_clusters: u16, nodes_per: u32, seed: u64) -> Self {
        let clusters = (0..n_clusters)
            .map(|_| ClusterConfig {
                n_nodes: nodes_per,
                ..ClusterConfig::default()
            })
            .collect();
        FederationConfig {
            seed,
            clusters,
            uplink_interval: SimDuration::from_secs(10),
            stale_after: SimDuration::from_secs(40),
        }
    }
}

/// Per-tier load accounting (experiment E15 reads this).
#[derive(Debug, Clone, Copy, Default)]
pub struct FedLoad {
    /// Wall time the head spent ingesting frames and polling commands.
    pub head_busy: Duration,
    /// Time spent stepping the sub-cluster simulations: the sum of each
    /// sub-world's `run_until` time, measured on the thread that stepped
    /// it. That is sub-tier CPU, not the wall time of an epoch's step,
    /// which is shorter when sub-worlds step concurrently.
    pub sub_busy: Duration,
    /// Simulation events executed across all sub-clusters.
    pub sub_events: u64,
}

struct SubEntry {
    sim: Sim<World>,
    link: SubLink,
    connected: bool,
    /// Needs a full resync on the next connected epoch.
    resync_due: bool,
    /// The introduction frame was sent.
    hello_sent: bool,
}

/// N cluster worlds plus a federation head, stepped in lock-step.
pub struct FederationSim {
    head: FederationHead,
    subs: Vec<SubEntry>,
    now: SimTime,
    uplink: SimDuration,
    load: FedLoad,
}

impl FederationSim {
    /// Wire the federation: one simulated world per cluster config,
    /// cluster ids assigned by index, per-cluster seeds derived from
    /// the federation seed.
    pub fn build(cfg: FederationConfig) -> Self {
        let subs = cfg
            .clusters
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                let id = i as u16;
                c.cluster_id = id;
                c.seed = cfg
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                SubEntry {
                    sim: Cluster::build(c),
                    link: SubLink::new(id),
                    connected: true,
                    resync_due: false,
                    hello_sent: false,
                }
            })
            .collect();
        FederationSim {
            head: FederationHead::new(cfg.stale_after, RetryPolicy::default()),
            subs,
            now: SimTime::ZERO,
            uplink: cfg.uplink_interval,
            load: FedLoad::default(),
        }
    }

    /// Current simulated time (epoch-aligned).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The head (fleet view, audit trails, command entry point).
    pub fn head(&self) -> &FederationHead {
        &self.head
    }

    /// Mutable head access (administrative operations like
    /// `forget_cluster`).
    pub fn head_mut(&mut self) -> &mut FederationHead {
        &mut self.head
    }

    /// Per-tier load counters so far.
    pub fn load(&self) -> FedLoad {
        FedLoad {
            sub_events: self.subs.iter().map(|s| s.sim.events_executed()).sum(),
            ..self.load
        }
    }

    /// Total uplink traffic across every sub link: `(frames, bytes)`.
    pub fn uplink_stats(&self) -> (u64, u64) {
        self.subs.iter().fold((0, 0), |(f, b), s| {
            let (lf, lb) = s.link.tx_stats();
            (f + lf, b + lb)
        })
    }

    /// One sub-cluster's simulation (assertions, fault injection).
    pub fn sub_sim(&self, cluster: u16) -> &Sim<World> {
        &self.subs[cluster as usize].sim
    }

    /// Sever the uplink of `cluster` (sub keeps running; the head
    /// hears nothing and command frames fall on the floor).
    pub fn disconnect(&mut self, cluster: u16) {
        let s = &mut self.subs[cluster as usize];
        s.connected = false;
        s.resync_due = true;
    }

    /// Restore the uplink; the next epoch performs the full resync
    /// handshake (dictionary reset + `Resync` frame).
    pub fn heal(&mut self, cluster: u16) {
        self.subs[cluster as usize].connected = true;
    }

    /// Queue a command through the head for `node` in `cluster`.
    pub fn request_action(&mut self, cluster: u16, node: u32, action: Action) -> u64 {
        self.head.request_action(self.now, cluster, node, action)
    }

    /// The head's aggregated fleet view as of now.
    pub fn aggregate(&self) -> FleetView {
        self.head.aggregate(self.now)
    }

    /// Ground truth: the summed lifecycle census straight from the
    /// sub-cluster control planes (what the head's aggregate must
    /// match while every link is fresh).
    pub fn sub_counts_sum(&self) -> LifecycleCounts {
        let mut sum = LifecycleCounts::default();
        for s in &self.subs {
            sum.accumulate(&s.sim.world().control.lifecycle().counts());
        }
        sum
    }

    /// The configured uplink (epoch) interval.
    pub fn uplink_interval(&self) -> SimDuration {
        self.uplink
    }

    /// Capture the complete federation state as named canonical
    /// sections: a `fed` section (clock, link states, head audit and
    /// command accounting) plus every sub-cluster's full world capture
    /// with a `sub<id>/` prefix. Strictly read-only — no snapshot
    /// export, no alarm drain — so capturing never perturbs the run.
    ///
    /// Only meaningful at an epoch boundary (which is the only place
    /// [`FederationSim::run_for`] can stop anyway): between epochs the
    /// head's view and the sub-worlds are mutually consistent.
    pub fn capture_sections(&self) -> Vec<(String, Vec<u8>)> {
        use cwx_util::hash::fnv1a_debug;
        use cwx_util::snapshot::{put_str, put_u32, put_u64};
        let mut sections: Vec<(String, Vec<u8>)> = Vec::new();
        let mut b = Vec::new();
        put_u64(&mut b, self.now.as_nanos());
        put_u64(&mut b, self.uplink.as_nanos());
        put_u32(&mut b, self.subs.len() as u32);
        for s in &self.subs {
            b.push(s.connected as u8);
            b.push(s.resync_due as u8);
            b.push(s.hello_sent as u8);
            let (frames, bytes) = s.link.tx_stats();
            put_u64(&mut b, frames);
            put_u64(&mut b, bytes);
        }
        put_str(&mut b, &format!("{:?}", self.head.stats()));
        put_u64(&mut b, self.head.audit_hash());
        for c in self.head.cluster_ids() {
            put_u64(&mut b, self.head.outstanding(c) as u64);
            put_u64(&mut b, fnv1a_debug(&[self.head.status(self.now, c)]));
        }
        sections.push(("fed".to_string(), b));
        for (i, s) in self.subs.iter().enumerate() {
            for (name, data) in clusterworx::snapshot::capture_sections(&s.sim) {
                sections.push((format!("sub{i}/{name}"), data));
            }
        }
        sections
    }

    /// Advance the whole federation by `span`, in uplink-interval
    /// epochs (a final partial epoch covers any remainder).
    pub fn run_for(&mut self, span: SimDuration) {
        // respects CPU affinity and cgroup quotas
        let threads = thread::available_parallelism().map_or(1, |p| p.get());
        let deadline = self.now + span;
        while self.now < deadline {
            let target = (self.now + self.uplink).min(deadline);
            self.epoch(target, threads);
        }
    }

    fn epoch(&mut self, target: SimTime, threads: usize) {
        // 1. step every sub-world to the epoch boundary, concurrently
        self.load.sub_busy += step_subs(&mut self.subs, target, threads);

        // 2. connected subs export; the head ingests in id order
        for s in &mut self.subs {
            if !s.connected {
                continue;
            }
            let snap = s.sim.world_mut().fed_snapshot();
            let frames = if s.resync_due {
                s.resync_due = false;
                s.hello_sent = true;
                s.link.reconnect(target, &snap)
            } else if !s.hello_sent {
                s.hello_sent = true;
                let mut f = vec![s.link.hello(snap.n_nodes)];
                f.extend(s.link.export(target, &snap));
                f
            } else {
                s.link.export(target, &snap)
            };
            let t1 = Instant::now();
            for f in &frames {
                let _ = self.head.ingest(target, f);
            }
            self.load.head_busy += t1.elapsed();
        }

        // 3. the head marks staleness edges and fans out due commands
        let t2 = Instant::now();
        self.head.tick(target);
        let due = self.head.poll(target);
        self.load.head_busy += t2.elapsed();
        for (cluster, frame) in due {
            let s = &mut self.subs[cluster as usize];
            if !s.connected {
                continue; // lost on the dead link; the head will retry
            }
            if let Ok(Some(delivery)) = s.link.handle_frame(&frame) {
                if let Some(action) = delivery.apply {
                    s.sim
                        .world_mut()
                        .server
                        .request_action(target, delivery.node, action);
                }
                let t3 = Instant::now();
                let _ = self.head.ingest(target, &delivery.ack);
                self.load.head_busy += t3.elapsed();
            }
        }

        self.now = target;
    }
}

// `step_subs` hands sub-worlds to other threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Sim<World>>();
    send::<FederationSim>();
};

/// Step every sub-world to `target` on at most `threads` threads, the
/// caller among them. Threads claim sub-worlds one at a time from a
/// shared cursor, so a cluster count that does not divide evenly still
/// balances. With one thread or one sub-world everything runs on the
/// caller.
///
/// Which thread steps a world cannot change it: a world owns every
/// piece of state its events touch, and no world reads another's until
/// the head drains them in id order afterwards. Returns the summed time
/// each world spent in `run_until`, measured on the thread that stepped
/// it.
fn step_subs(subs: &mut [SubEntry], target: SimTime, threads: usize) -> Duration {
    let helpers = threads.min(subs.len()).saturating_sub(1);
    let queue = Mutex::new(subs.iter_mut());
    let work = || {
        let mut busy = Duration::ZERO;
        loop {
            let Some(s) = queue
                .lock()
                .expect("claiming a sub-world never panics")
                .next()
            else {
                return busy;
            };
            let t0 = Instant::now();
            s.sim.run_until(target);
            busy += t0.elapsed();
        }
    };
    thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut busy = work();
        for h in spawned {
            busy += h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
        busy
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n_clusters: u16, nodes: u32, seed: u64) -> FederationConfig {
        let mut cfg = FederationConfig::uniform(n_clusters, nodes, seed);
        cfg.uplink_interval = SimDuration::from_secs(10);
        cfg
    }

    #[test]
    fn aggregate_matches_sub_sum() {
        let mut fed = FederationSim::build(small(3, 8, 7));
        fed.run_for(SimDuration::from_secs(300));
        let fleet = fed.aggregate();
        assert_eq!(fleet.clusters, 3);
        assert_eq!(fleet.stale, 0);
        assert_eq!(fleet.total_nodes, 24);
        assert_eq!(fleet.counts, fed.sub_counts_sum());
        assert!(fleet.counts.up > 0, "clusters must have booted");
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run = |seed| {
            let mut fed = FederationSim::build(small(2, 6, seed));
            fed.run_for(SimDuration::from_secs(240));
            (fed.head().audit_hash(), fed.aggregate())
        };
        let (h1, a1) = run(11);
        let (h2, a2) = run(11);
        assert_eq!(h1, h2, "audit hash must reproduce");
        assert_eq!(a1, a2);
    }

    #[test]
    fn command_round_trips_through_the_fan_out() {
        let mut fed = FederationSim::build(small(2, 4, 5));
        fed.run_for(SimDuration::from_secs(200));
        assert_eq!(fed.sub_sim(1).world().up_count(), 4);
        fed.request_action(1, 2, Action::PowerDown);
        fed.run_for(SimDuration::from_secs(120));
        assert_eq!(
            fed.sub_sim(1).world().up_count(),
            3,
            "the head's command must land on cluster 1"
        );
        assert_eq!(fed.sub_sim(0).world().up_count(), 4, "cluster 0 untouched");
        assert_eq!(fed.head().stats().commands_delivered, 1);
    }

    #[test]
    fn thread_count_never_changes_a_byte() {
        // 5 clusters, so 2 and 3 threads claim unevenly; 8 > clusters
        let mut feds: Vec<(usize, FederationSim)> = [1, 2, 3, 8]
            .into_iter()
            .map(|t| (t, FederationSim::build(small(5, 6, 23))))
            .collect();
        for k in 0..30 {
            for (threads, fed) in &mut feds {
                match k {
                    8 => fed.disconnect(3),
                    14 => fed.heal(3),
                    20 => {
                        fed.request_action(1, 2, Action::PowerDown);
                    }
                    _ => {}
                }
                let target = fed.now() + fed.uplink_interval();
                fed.epoch(target, *threads);
            }
            let (_, serial) = &feds[0];
            let want = serial.capture_sections();
            for (threads, fed) in &feds[1..] {
                assert!(
                    fed.capture_sections() == want,
                    "epoch {k}: {threads} threads diverged from 1"
                );
                assert_eq!(fed.head().audit_hash(), serial.head().audit_hash());
            }
        }
        let serial = &feds[0].1;
        assert_eq!(serial.head().stats().commands_delivered, 1);
        assert_eq!(serial.sub_sim(1).world().up_count(), 5);
    }

    /// The `sim_fleet` benchmark's round (`SIM_FLEET` in
    /// `cwxbench/src/simfleet.rs`, at its default seed 1): 4 × 1250
    /// nodes, 60 s of boot, then 100 s with cluster 2 cut off from
    /// +10 s to +60 s. One and two step threads must agree on the head
    /// audit hash after every epoch and on every captured byte at the
    /// end (a capture digests each node's history, so one per epoch
    /// would cost more than the round), and the round must end on the
    /// audit hash the benchmark prints.
    #[test]
    #[ignore = "4 x 1250 nodes; run with --ignored in release mode"]
    fn benchmark_round_is_pinned() {
        const PINNED: u64 = 0xe83d_ac3b_c7ef_c3cc;
        const BOOT_EPOCHS: u64 = 6;
        let (cut, heal) = (BOOT_EPOCHS + 1, BOOT_EPOCHS + 6);
        let build = || FederationSim::build(FederationConfig::uniform(4, 1250, 1));
        let mut feds = [(1, build()), (2, build())];
        for k in 0..BOOT_EPOCHS + 10 {
            for (threads, fed) in &mut feds {
                if k == cut {
                    fed.disconnect(2);
                }
                if k == heal {
                    fed.heal(2);
                }
                let target = fed.now() + fed.uplink_interval();
                fed.epoch(target, *threads);
            }
            assert_eq!(
                feds[1].1.head().audit_hash(),
                feds[0].1.head().audit_hash(),
                "epoch {k}: 2 threads diverged from 1"
            );
        }
        assert!(
            feds[1].1.capture_sections() == feds[0].1.capture_sections(),
            "2 threads captured other bytes than 1"
        );
        let fed = &feds[0].1;
        assert_eq!(fed.aggregate().counts, fed.sub_counts_sum(), "census");
        assert_eq!(fed.aggregate().counts.up, 5000, "every node up");
        let hash = fed.head().audit_hash();
        assert_eq!(hash, PINNED, "head audit hash is {hash:016x}");
    }
}
