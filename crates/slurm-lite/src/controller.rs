//! The control daemon: queue, allocation, completion, failover.

use std::collections::BTreeMap;

use cwx_util::time::SimTime;

use crate::job::{Job, JobId, JobRequest, JobState};
use crate::sched::{fifo_priority, PriorityFn, SchedulerKind};

/// Allocation state of one compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAllocState {
    /// Free.
    Idle,
    /// Held by a job.
    Allocated(JobId),
    /// Failed or drained.
    Down,
}

/// API errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlurmError {
    /// Request asks for more nodes than the partition has.
    TooLarge {
        /// Nodes requested.
        requested: u32,
        /// Nodes in the partition.
        partition_size: u32,
    },
    /// Unknown partition name.
    NoSuchPartition(String),
    /// Unknown job.
    NoSuchJob(JobId),
    /// Job is already terminal.
    AlreadyFinished(JobId),
}

impl std::fmt::Display for SlurmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlurmError::TooLarge {
                requested,
                partition_size,
            } => {
                write!(
                    f,
                    "job needs {requested} nodes, partition has {partition_size}"
                )
            }
            SlurmError::NoSuchPartition(p) => write!(f, "no such partition: {p}"),
            SlurmError::NoSuchJob(id) => write!(f, "no such job: {id}"),
            SlurmError::AlreadyFinished(id) => write!(f, "{id} already finished"),
        }
    }
}

impl std::error::Error for SlurmError {}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs killed at their time limit.
    pub timed_out: u64,
    /// Jobs lost to node failures.
    pub node_failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs started by the backfill pass.
    pub backfilled: u64,
    /// Integral of allocated nodes over time (node-seconds).
    pub busy_node_secs: f64,
    /// Sum of queue waits of started jobs (seconds).
    pub total_wait_secs: f64,
}

/// The SLURM-lite control daemon. `Clone` is the failover mechanism:
/// replicate the controller onto a backup host; if the primary dies the
/// replica carries on (every piece of state is plain data).
#[derive(Debug, Clone)]
pub struct Controller {
    nodes: Vec<NodeAllocState>,
    /// shared (non-exclusive) occupants per node, one cpu slot each
    shared: Vec<Vec<JobId>>,
    /// draining nodes: no new work lands; existing work runs out
    draining: Vec<bool>,
    /// cpu slots per node available to shared jobs
    cpus_per_node: u32,
    partitions: BTreeMap<String, Vec<u32>>,
    jobs: BTreeMap<JobId, Job>,
    /// pending job ids in submission order
    queue: Vec<JobId>,
    next_id: u64,
    kind: SchedulerKind,
    priority: PriorityFn,
    stats: ControllerStats,
    last_advance: SimTime,
}

impl Controller {
    /// A controller managing `n_nodes` in one default partition.
    pub fn new(n_nodes: u32, kind: SchedulerKind) -> Self {
        let mut partitions = BTreeMap::new();
        partitions.insert(String::new(), (0..n_nodes).collect());
        Controller {
            nodes: vec![NodeAllocState::Idle; n_nodes as usize],
            shared: vec![Vec::new(); n_nodes as usize],
            draining: vec![false; n_nodes as usize],
            cpus_per_node: 2,
            partitions,
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            next_id: 1,
            kind,
            priority: fifo_priority,
            stats: ControllerStats::default(),
            last_advance: SimTime::ZERO,
        }
    }

    /// Install an external scheduler's priority function (the Maui
    /// hook).
    pub fn set_priority_fn(&mut self, f: PriorityFn) {
        self.priority = f;
    }

    /// Define a named partition over specific node indices.
    pub fn add_partition(&mut self, name: &str, nodes: Vec<u32>) {
        self.partitions.insert(name.to_string(), nodes);
    }

    /// Counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// A job's current record.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All jobs (for reporting).
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Pending queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Node allocation states.
    pub fn nodes(&self) -> &[NodeAllocState] {
        &self.nodes
    }

    /// Set the cpu slots shared jobs may use per node (default 2,
    /// dual-processor nodes of the era).
    pub fn set_cpus_per_node(&mut self, cpus: u32) {
        self.cpus_per_node = cpus.max(1);
    }

    /// Shared occupants of a node.
    pub fn shared_jobs(&self, node: u32) -> &[JobId] {
        &self.shared[node as usize]
    }

    /// Whether a node currently holds work (exclusive or shared).
    pub fn node_busy(&self, node: u32) -> bool {
        matches!(self.nodes[node as usize], NodeAllocState::Allocated(_))
            || !self.shared[node as usize].is_empty()
    }

    /// Start draining a node: the scheduler places no new work on it;
    /// work already there runs to completion. This is the handshake the
    /// ClusterWorX control plane uses before power actions on allocated
    /// nodes (paper §6).
    pub fn drain_node(&mut self, node: u32) {
        self.draining[node as usize] = true;
    }

    /// Return a draining node to scheduling service.
    pub fn undrain_node(&mut self, node: u32) {
        self.draining[node as usize] = false;
    }

    /// Whether a drain has been requested for a node.
    pub fn is_draining(&self, node: u32) -> bool {
        self.draining[node as usize]
    }

    /// Whether a requested drain has completed: the drain mark is set
    /// and no job (exclusive or shared) remains on the node.
    pub fn is_drained(&self, node: u32) -> bool {
        self.draining[node as usize] && !self.node_busy(node)
    }

    /// Nodes in a partition free for an exclusive allocation: idle relay
    /// state and no shared occupants.
    fn idle_in(&self, partition: &[u32]) -> Vec<u32> {
        partition
            .iter()
            .copied()
            .filter(|&i| {
                self.nodes[i as usize] == NodeAllocState::Idle
                    && self.shared[i as usize].is_empty()
                    && !self.draining[i as usize]
            })
            .collect()
    }

    /// Nodes in a partition with at least one free shared cpu slot
    /// (not down, not exclusively held, slot available).
    fn shared_capacity_in(&self, partition: &[u32]) -> Vec<u32> {
        partition
            .iter()
            .copied()
            .filter(|&i| {
                self.nodes[i as usize] == NodeAllocState::Idle
                    && (self.shared[i as usize].len() as u32) < self.cpus_per_node
                    && !self.draining[i as usize]
            })
            .collect()
    }

    /// Submit a job. It enters the pending queue; call
    /// [`Controller::advance`] to let the scheduler place it.
    pub fn submit(&mut self, now: SimTime, request: JobRequest) -> Result<JobId, SlurmError> {
        let partition = self
            .partitions
            .get(&request.partition)
            .ok_or_else(|| SlurmError::NoSuchPartition(request.partition.clone()))?;
        if request.nodes > partition.len() as u32 || request.nodes == 0 {
            return Err(SlurmError::TooLarge {
                requested: request.nodes,
                partition_size: partition.len() as u32,
            });
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                request,
                state: JobState::Pending,
                submitted: now,
                started: None,
                ended: None,
                allocation: vec![],
                backfilled: false,
            },
        );
        self.queue.push(id);
        self.stats.submitted += 1;
        Ok(id)
    }

    /// Cancel a pending or running job.
    pub fn cancel(&mut self, now: SimTime, id: JobId) -> Result<(), SlurmError> {
        let job = self.jobs.get_mut(&id).ok_or(SlurmError::NoSuchJob(id))?;
        if job.state.is_terminal() {
            return Err(SlurmError::AlreadyFinished(id));
        }
        let allocation = std::mem::take(&mut job.allocation);
        job.state = JobState::Cancelled;
        job.ended = Some(now);
        self.stats.cancelled += 1;
        let exclusive = self.jobs[&id].request.exclusive;
        for n in allocation {
            if exclusive {
                self.nodes[n as usize] = NodeAllocState::Idle;
            } else {
                self.shared[n as usize].retain(|&j| j != id);
            }
        }
        self.queue.retain(|&q| q != id);
        Ok(())
    }

    /// Mark a node failed. The job holding it (if any) dies with
    /// `NodeFail` and is requeued.
    pub fn node_fail(&mut self, now: SimTime, node: u32) {
        let prev = self.nodes[node as usize];
        self.nodes[node as usize] = NodeAllocState::Down;
        // shared occupants die with the node
        for id in std::mem::take(&mut self.shared[node as usize]) {
            let job = self.jobs.get_mut(&id).expect("shared job exists");
            if job.state != JobState::Running {
                continue;
            }
            let allocation = std::mem::take(&mut job.allocation);
            job.state = JobState::NodeFail;
            job.ended = Some(now);
            let request = job.request.clone();
            self.stats.node_failed += 1;
            for n in allocation {
                if n != node {
                    self.shared[n as usize].retain(|&j| j != id);
                }
            }
            let _ = self.submit(now, request);
        }
        if let NodeAllocState::Allocated(id) = prev {
            let job = self.jobs.get_mut(&id).expect("allocated job exists");
            let allocation = std::mem::take(&mut job.allocation);
            job.state = JobState::NodeFail;
            job.ended = Some(now);
            let request = job.request.clone();
            self.stats.node_failed += 1;
            for n in allocation {
                if n != node {
                    self.nodes[n as usize] = NodeAllocState::Idle;
                }
            }
            // resubmitted under a fresh id, keeping queue fairness
            let _ = self.submit(now, request);
        }
    }

    /// Return a failed node to service.
    pub fn node_resume(&mut self, node: u32) {
        if self.nodes[node as usize] == NodeAllocState::Down {
            self.nodes[node as usize] = NodeAllocState::Idle;
        }
    }

    /// The next instant something completes on its own (for simulation
    /// drivers).
    pub fn next_completion(&self) -> Option<SimTime> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter_map(|j| j.expected_end())
            .min()
    }

    /// Advance to `now`: finish due jobs, then run the scheduler.
    pub fn advance(&mut self, now: SimTime) {
        // utilisation integral
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 {
            let busy = self
                .nodes
                .iter()
                .zip(&self.shared)
                .filter(|(n, shared)| {
                    matches!(n, NodeAllocState::Allocated(_)) || !shared.is_empty()
                })
                .count();
            self.stats.busy_node_secs += busy as f64 * dt;
            self.last_advance = now;
        }

        // completions
        let due: Vec<JobId> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter(|j| j.expected_end().is_some_and(|e| e <= now))
            .map(|j| j.id)
            .collect();
        for id in due {
            let job = self.jobs.get_mut(&id).expect("running job exists");
            let timed_out = job.request.actual_runtime > job.request.time_limit;
            job.state = if timed_out {
                JobState::TimedOut
            } else {
                JobState::Completed
            };
            job.ended = job.expected_end();
            let allocation = std::mem::take(&mut job.allocation);
            let exclusive = job.request.exclusive;
            if timed_out {
                self.stats.timed_out += 1;
            } else {
                self.stats.completed += 1;
            }
            for n in allocation {
                if exclusive {
                    if self.nodes[n as usize] == NodeAllocState::Allocated(id) {
                        self.nodes[n as usize] = NodeAllocState::Idle;
                    }
                } else {
                    self.shared[n as usize].retain(|&j| j != id);
                }
            }
        }

        self.schedule(now);
    }

    fn start_job(&mut self, now: SimTime, id: JobId, nodes: Vec<u32>, backfilled: bool) {
        let exclusive = self.jobs[&id].request.exclusive;
        for &n in &nodes {
            if exclusive {
                self.nodes[n as usize] = NodeAllocState::Allocated(id);
            } else {
                self.shared[n as usize].push(id);
            }
        }
        let job = self.jobs.get_mut(&id).expect("pending job exists");
        job.state = JobState::Running;
        job.started = Some(now);
        job.allocation = nodes;
        job.backfilled = backfilled;
        self.stats.total_wait_secs += now.since(job.submitted).as_secs_f64();
        if backfilled {
            self.stats.backfilled += 1;
        }
        self.queue.retain(|&q| q != id);
    }

    /// One scheduling pass.
    fn schedule(&mut self, now: SimTime) {
        // order pending ids by (priority desc, submit order)
        let mut order: Vec<JobId> = self.queue.clone();
        let pri = self.priority;
        order.sort_by_key(|id| {
            let j = &self.jobs[id];
            (std::cmp::Reverse(pri(j, now)), j.submitted, j.id)
        });

        let mut i = 0;
        while i < order.len() {
            let id = order[i];
            let (nodes_needed, partition, exclusive) = {
                let j = &self.jobs[&id];
                (
                    j.request.nodes,
                    self.partitions[&j.request.partition].clone(),
                    j.request.exclusive,
                )
            };
            let idle = if exclusive {
                self.idle_in(&partition)
            } else {
                self.shared_capacity_in(&partition)
            };
            if idle.len() as u32 >= nodes_needed {
                let alloc: Vec<u32> = idle.into_iter().take(nodes_needed as usize).collect();
                self.start_job(now, id, alloc, false);
                i += 1;
                continue;
            }
            // head job blocked
            if self.kind == SchedulerKind::Fifo {
                return;
            }
            self.backfill_pass(now, id, &partition, &order[i + 1..]);
            return;
        }
    }

    /// EASY backfill: compute the head job's reservation, start later
    /// jobs that cannot delay it.
    fn backfill_pass(&mut self, now: SimTime, head: JobId, partition: &[u32], rest: &[JobId]) {
        let head_needs = self.jobs[&head].request.nodes as usize;
        // when do nodes come back? assume running jobs hold until their
        // declared limit (the scheduler cannot see actual runtimes)
        let mut releases: Vec<(SimTime, u32)> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter_map(|j| j.limit_end().map(|e| (e, j.allocation.len() as u32)))
            .collect();
        releases.sort();
        let idle_now = self.idle_in(partition).len();
        let mut free = idle_now;
        let mut shadow = SimTime::MAX;
        for (t, n) in &releases {
            free += *n as usize;
            if free >= head_needs {
                shadow = *t;
                break;
            }
        }
        // nodes free at the shadow time beyond what the head will take
        let extra_at_shadow = free.saturating_sub(head_needs);

        for &id in rest {
            let (nodes_needed, time_limit, exclusive) = {
                let j = &self.jobs[&id];
                if j.request.partition.as_str() != "" && partition.is_empty() {
                    continue;
                }
                (
                    j.request.nodes as usize,
                    j.request.time_limit,
                    j.request.exclusive,
                )
            };
            let idle = if exclusive {
                self.idle_in(partition)
            } else {
                self.shared_capacity_in(partition)
            };
            if idle.len() < nodes_needed {
                continue;
            }
            let fits_before_shadow = shadow == SimTime::MAX || now + time_limit <= shadow;
            let fits_beside_head = nodes_needed <= extra_at_shadow;
            if fits_before_shadow || fits_beside_head {
                let alloc: Vec<u32> = idle.into_iter().take(nodes_needed).collect();
                self.start_job(now, id, alloc, true);
            }
        }
    }

    /// Cluster utilisation over `[0, now]`, in `[0,1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let total = self.nodes.len() as f64 * now.as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.stats.busy_node_secs / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + cwx_util::time::SimDuration::from_secs(s)
    }

    #[test]
    fn submit_and_run_to_completion() {
        let mut c = Controller::new(4, SchedulerKind::Fifo);
        let id = c
            .submit(t(0), JobRequest::batch("alice", 2, 100, 60))
            .unwrap();
        c.advance(t(0));
        assert_eq!(c.job(id).unwrap().state, JobState::Running);
        assert_eq!(c.job(id).unwrap().allocation.len(), 2);
        assert_eq!(c.next_completion(), Some(t(60)));
        c.advance(t(60));
        assert_eq!(c.job(id).unwrap().state, JobState::Completed);
        assert!(c.nodes().iter().all(|n| *n == NodeAllocState::Idle));
        assert_eq!(c.stats().completed, 1);
    }

    #[test]
    fn exclusive_queueing_arbitrates_conflicts() {
        let mut c = Controller::new(4, SchedulerKind::Fifo);
        let a = c.submit(t(0), JobRequest::batch("a", 3, 100, 100)).unwrap();
        let b = c.submit(t(0), JobRequest::batch("b", 3, 100, 100)).unwrap();
        c.advance(t(0));
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().state, JobState::Pending);
        c.advance(t(100));
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().wait().unwrap().as_millis(), 100_000);
    }

    #[test]
    fn time_limit_enforced() {
        let mut c = Controller::new(1, SchedulerKind::Fifo);
        let id = c.submit(t(0), JobRequest::batch("a", 1, 50, 500)).unwrap();
        c.advance(t(0));
        c.advance(t(50));
        assert_eq!(c.job(id).unwrap().state, JobState::TimedOut);
        assert_eq!(c.stats().timed_out, 1);
    }

    #[test]
    fn fifo_head_blocks_backfill_does_not() {
        let build = |kind| {
            let mut c = Controller::new(4, kind);
            // wide long job takes everything
            c.submit(t(0), JobRequest::batch("w", 4, 1000, 1000))
                .unwrap();
            c.advance(t(0));
            // head needs all 4 nodes -> blocked until t=1000
            c.submit(t(1), JobRequest::batch("head", 4, 1000, 1000))
                .unwrap();
            // a small short job that fits in the shadow... no idle nodes
            // though; free a couple first
            c
        };
        // variant with idle nodes: wide job takes 2 of 4
        let run = |kind| {
            let mut c = Controller::new(4, kind);
            c.submit(t(0), JobRequest::batch("w", 2, 1000, 1000))
                .unwrap();
            c.advance(t(0));
            let head = c
                .submit(t(1), JobRequest::batch("head", 4, 1000, 1000))
                .unwrap();
            let small = c
                .submit(t(2), JobRequest::batch("small", 1, 100, 100))
                .unwrap();
            c.advance(t(2));
            (c.job(head).unwrap().state, c.job(small).unwrap().state)
        };
        let _ = build;
        let (head_f, small_f) = run(SchedulerKind::Fifo);
        assert_eq!(head_f, JobState::Pending);
        assert_eq!(
            small_f,
            JobState::Pending,
            "FIFO: blocked head blocks the queue"
        );
        let (head_b, small_b) = run(SchedulerKind::Backfill);
        assert_eq!(head_b, JobState::Pending);
        assert_eq!(
            small_b,
            JobState::Running,
            "backfill slips the short job in"
        );
    }

    #[test]
    fn backfill_cannot_delay_the_head_job() {
        let mut c = Controller::new(4, SchedulerKind::Backfill);
        c.submit(t(0), JobRequest::batch("w", 2, 1000, 1000))
            .unwrap();
        c.advance(t(0));
        let head = c
            .submit(t(1), JobRequest::batch("head", 4, 1000, 1000))
            .unwrap();
        // long job that WOULD delay the head (2 nodes, 5000s > shadow)
        let long = c
            .submit(t(2), JobRequest::batch("long", 2, 5000, 5000))
            .unwrap();
        c.advance(t(2));
        assert_eq!(
            c.job(long).unwrap().state,
            JobState::Pending,
            "must not delay head"
        );
        // head eventually runs at the shadow time
        c.advance(t(1000));
        assert_eq!(c.job(head).unwrap().state, JobState::Running);
    }

    #[test]
    fn node_failure_kills_and_requeues() {
        let mut c = Controller::new(3, SchedulerKind::Fifo);
        let id = c
            .submit(t(0), JobRequest::batch("a", 2, 1000, 500))
            .unwrap();
        c.advance(t(0));
        let victim = c.job(id).unwrap().allocation[0];
        c.node_fail(t(100), victim);
        assert_eq!(c.job(id).unwrap().state, JobState::NodeFail);
        assert_eq!(c.stats().node_failed, 1);
        // requeued under a new id and running on surviving nodes
        c.advance(t(100));
        let requeued: Vec<&Job> = c.jobs().filter(|j| j.state == JobState::Running).collect();
        assert_eq!(requeued.len(), 1);
        assert!(!requeued[0].allocation.contains(&victim));
        // failed node comes back
        c.node_resume(victim);
        assert_eq!(c.nodes()[victim as usize], NodeAllocState::Idle);
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut c = Controller::new(2, SchedulerKind::Fifo);
        let a = c.submit(t(0), JobRequest::batch("a", 2, 100, 100)).unwrap();
        let b = c.submit(t(0), JobRequest::batch("b", 2, 100, 100)).unwrap();
        c.advance(t(0));
        c.cancel(t(10), a).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Cancelled);
        c.advance(t(10));
        assert_eq!(
            c.job(b).unwrap().state,
            JobState::Running,
            "freed nodes reused"
        );
        c.cancel(t(20), b).unwrap();
        assert_eq!(c.cancel(t(21), b), Err(SlurmError::AlreadyFinished(b)));
    }

    #[test]
    fn oversized_and_bad_partition_rejected() {
        let mut c = Controller::new(2, SchedulerKind::Fifo);
        assert!(matches!(
            c.submit(t(0), JobRequest::batch("a", 3, 10, 10)),
            Err(SlurmError::TooLarge {
                requested: 3,
                partition_size: 2
            })
        ));
        let mut req = JobRequest::batch("a", 1, 10, 10);
        req.partition = "gpu".into();
        assert!(matches!(
            c.submit(t(0), req),
            Err(SlurmError::NoSuchPartition(_))
        ));
    }

    #[test]
    fn partitions_scope_allocation() {
        let mut c = Controller::new(4, SchedulerKind::Fifo);
        c.add_partition("io", vec![2, 3]);
        let mut req = JobRequest::batch("a", 2, 100, 100);
        req.partition = "io".into();
        let id = c.submit(t(0), req).unwrap();
        c.advance(t(0));
        let alloc = &c.job(id).unwrap().allocation;
        assert!(
            alloc.iter().all(|n| *n >= 2),
            "io partition nodes only: {alloc:?}"
        );
    }

    #[test]
    fn failover_replica_carries_on() {
        let mut primary = Controller::new(4, SchedulerKind::Backfill);
        for k in 0..6 {
            primary
                .submit(t(0), JobRequest::batch("u", 1 + k % 3, 200, 100 + k as u64))
                .unwrap();
        }
        primary.advance(t(0));
        // replicate to the backup host, then the primary dies
        let mut backup = primary.clone();
        drop(primary);
        while let Some(next) = backup.next_completion() {
            backup.advance(next);
        }
        let s = backup.stats();
        assert_eq!(s.completed, 6, "all jobs finish under the replica: {s:?}");
        assert_eq!(backup.queue_len(), 0);
    }

    #[test]
    fn external_priority_reorders_queue() {
        let mut c = Controller::new(2, SchedulerKind::Backfill);
        c.set_priority_fn(crate::sched::maui_like_priority);
        // hold the cluster briefly so both submissions queue
        let hold = c
            .submit(t(0), JobRequest::batch("hold", 2, 50, 50))
            .unwrap();
        c.advance(t(0));
        let big = c
            .submit(t(1), JobRequest::batch("big", 2, 10_000, 100))
            .unwrap();
        let small = c
            .submit(t(2), JobRequest::batch("small", 1, 60, 60))
            .unwrap();
        c.advance(t(50));
        let _ = hold;
        // despite 'big' being first by submission, maui-like priority
        // runs 'small' first
        assert_eq!(c.job(small).unwrap().state, JobState::Running);
        assert_eq!(c.job(big).unwrap().state, JobState::Pending);
    }

    #[test]
    fn drain_completes_when_the_job_leaves() {
        let mut c = Controller::new(2, SchedulerKind::Fifo);
        let a = c.submit(t(0), JobRequest::batch("a", 1, 100, 60)).unwrap();
        c.advance(t(0));
        let node = c.job(a).unwrap().allocation[0];
        c.drain_node(node);
        assert!(c.is_draining(node));
        assert!(!c.is_drained(node), "job still running");
        assert!(c.node_busy(node));
        // no new work lands on a draining node
        let b = c.submit(t(1), JobRequest::batch("b", 2, 100, 60)).unwrap();
        c.advance(t(1));
        assert_eq!(
            c.job(b).unwrap().state,
            JobState::Pending,
            "needs the draining node, must wait"
        );
        // the running job finishes; the drain is complete
        c.advance(t(60));
        assert!(c.is_drained(node));
        assert!(!c.node_busy(node));
        assert_eq!(c.job(b).unwrap().state, JobState::Pending, "still fenced");
        // undrain returns the node to service
        c.undrain_node(node);
        c.advance(t(61));
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
    }

    #[test]
    fn drain_on_an_idle_node_is_immediately_complete() {
        let mut c = Controller::new(1, SchedulerKind::Fifo);
        assert!(!c.is_drained(0), "no drain requested");
        c.drain_node(0);
        assert!(c.is_drained(0));
    }

    #[test]
    fn drain_fences_shared_slots_too() {
        let mut c = Controller::new(1, SchedulerKind::Fifo);
        c.set_cpus_per_node(2);
        let shared = JobRequest {
            exclusive: false,
            ..JobRequest::batch("s", 1, 100, 60)
        };
        let a = c.submit(t(0), shared.clone()).unwrap();
        c.advance(t(0));
        c.drain_node(0);
        assert!(!c.is_drained(0), "shared occupant still running");
        // the free shared slot is fenced
        let b = c.submit(t(1), shared).unwrap();
        c.advance(t(1));
        assert_eq!(c.job(b).unwrap().state, JobState::Pending);
        c.advance(t(60));
        assert!(c.is_drained(0));
        let _ = a;
    }

    #[test]
    fn utilization_integral() {
        let mut c = Controller::new(2, SchedulerKind::Fifo);
        c.submit(t(0), JobRequest::batch("a", 2, 100, 100)).unwrap();
        c.advance(t(0));
        c.advance(t(50));
        c.advance(t(100));
        // both nodes busy for 100 s of 100 s
        assert!((c.utilization(t(100)) - 1.0).abs() < 1e-9);
        c.advance(t(200));
        assert!((c.utilization(t(200)) - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn shared_req(nodes: u32, limit: u64, runtime: u64) -> JobRequest {
        JobRequest {
            exclusive: false,
            ..JobRequest::batch("s", nodes, limit, runtime)
        }
    }

    #[test]
    fn shared_jobs_colocate_up_to_cpu_slots() {
        let mut c = Controller::new(1, SchedulerKind::Fifo);
        c.set_cpus_per_node(2);
        let a = c.submit(t(0), shared_req(1, 100, 100)).unwrap();
        let b = c.submit(t(0), shared_req(1, 100, 100)).unwrap();
        let third = c.submit(t(0), shared_req(1, 100, 100)).unwrap();
        c.advance(t(0));
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(
            c.job(b).unwrap().state,
            JobState::Running,
            "two shared jobs on one dual-cpu node"
        );
        assert_eq!(
            c.job(third).unwrap().state,
            JobState::Pending,
            "no third slot"
        );
        assert_eq!(c.shared_jobs(0), &[a, b]);
        // a completes, the third slips in
        c.advance(t(100));
        assert_eq!(c.job(third).unwrap().state, JobState::Running);
    }

    #[test]
    fn exclusive_jobs_refuse_shared_company() {
        // backfill lets the small job pass the blocked 2-node head
        let mut c = Controller::new(2, SchedulerKind::Backfill);
        let shared = c.submit(t(0), shared_req(1, 1000, 1000)).unwrap();
        c.advance(t(0));
        let node_of_shared = c.job(shared).unwrap().allocation[0];
        // an exclusive 2-node job cannot start: one node is shared-occupied
        let excl = c.submit(t(1), JobRequest::batch("e", 2, 100, 100)).unwrap();
        c.advance(t(1));
        assert_eq!(c.job(excl).unwrap().state, JobState::Pending);
        // but an exclusive 1-node job lands on the other node
        let one = c.submit(t(2), JobRequest::batch("o", 1, 100, 100)).unwrap();
        c.advance(t(2));
        assert_eq!(c.job(one).unwrap().state, JobState::Running);
        assert_ne!(c.job(one).unwrap().allocation[0], node_of_shared);
    }

    #[test]
    fn shared_jobs_cannot_enter_exclusive_nodes() {
        let mut c = Controller::new(1, SchedulerKind::Fifo);
        let excl = c
            .submit(t(0), JobRequest::batch("e", 1, 1000, 1000))
            .unwrap();
        c.advance(t(0));
        assert_eq!(c.job(excl).unwrap().state, JobState::Running);
        let sh = c.submit(t(1), shared_req(1, 100, 100)).unwrap();
        c.advance(t(1));
        assert_eq!(c.job(sh).unwrap().state, JobState::Pending);
    }

    #[test]
    fn node_failure_kills_shared_occupants_too() {
        let mut c = Controller::new(2, SchedulerKind::Fifo);
        let a = c.submit(t(0), shared_req(1, 1000, 500)).unwrap();
        let b = c.submit(t(0), shared_req(1, 1000, 500)).unwrap();
        c.advance(t(0));
        let node = c.job(a).unwrap().allocation[0];
        assert_eq!(c.job(b).unwrap().allocation[0], node, "colocated");
        c.node_fail(t(10), node);
        assert_eq!(c.job(a).unwrap().state, JobState::NodeFail);
        assert_eq!(c.job(b).unwrap().state, JobState::NodeFail);
        assert_eq!(c.stats().node_failed, 2);
        // both requeued and restarted on the surviving node
        c.advance(t(10));
        let running = c.jobs().filter(|j| j.state == JobState::Running).count();
        assert_eq!(running, 2);
    }

    #[test]
    fn cancel_frees_a_shared_slot() {
        let mut c = Controller::new(1, SchedulerKind::Fifo);
        let a = c.submit(t(0), shared_req(1, 1000, 1000)).unwrap();
        let b = c.submit(t(0), shared_req(1, 1000, 1000)).unwrap();
        c.advance(t(0));
        c.cancel(t(5), a).unwrap();
        assert_eq!(c.shared_jobs(0), &[b]);
        let d = c.submit(t(6), shared_req(1, 100, 100)).unwrap();
        c.advance(t(6));
        assert_eq!(c.job(d).unwrap().state, JobState::Running);
    }

    #[test]
    fn shared_failover_replica_consistent() {
        let mut c = Controller::new(4, SchedulerKind::Backfill);
        for k in 0..8u64 {
            let _ = c.submit(t(0), shared_req(1 + (k % 2) as u32, 300, 100 + k));
        }
        c.advance(t(0));
        let mut replica = c.clone();
        drop(c);
        while let Some(next) = replica.next_completion() {
            replica.advance(next);
        }
        assert_eq!(replica.stats().completed, 8);
        assert!(replica.nodes().iter().all(|n| *n == NodeAllocState::Idle));
        assert!((0..4).all(|n| replica.shared_jobs(n).is_empty()));
    }
}
