//! Synthetic job-trace generation for the scheduling experiments.
//!
//! A Poisson arrival process with log-uniform-ish runtimes and a mix of
//! small and wide jobs — the shape of early-2000s HPC workloads (lots of
//! small short jobs, a tail of wide long ones).

use cwx_util::rng::{chance, exponential};
use cwx_util::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::job::JobRequest;

/// Fraction of jobs that are "wide" (up to half the cluster).
const WIDE_FRACTION: f64 = 0.15;

/// Minimum runtime, seconds.
const MIN_RUNTIME_SECS: f64 = 60.0;

/// Maximum runtime, seconds.
const MAX_RUNTIME_SECS: f64 = 14_400.0;

/// Trace generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Mean job inter-arrival time, seconds.
    pub mean_interarrival_secs: f64,
    /// Cluster size (bounds job widths).
    pub cluster_nodes: u32,
    /// Fraction of jobs that underestimate their limit (and time out).
    pub underestimate_fraction: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mean_interarrival_secs: 120.0,
            cluster_nodes: 64,
            underestimate_fraction: 0.05,
        }
    }
}

/// One trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Submission time.
    pub submit: SimTime,
    /// The request.
    pub request: JobRequest,
}

/// Generate `n` jobs.
pub fn generate(rng: &mut StdRng, cfg: &TraceConfig, n: usize) -> Vec<TraceJob> {
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        t += exponential(rng, 1.0 / cfg.mean_interarrival_secs);
        // log-uniform runtime
        let lo = MIN_RUNTIME_SECS.ln();
        let hi = MAX_RUNTIME_SECS.ln();
        let runtime = (lo + rng.random::<f64>() * (hi - lo)).exp();
        let nodes = if chance(rng, WIDE_FRACTION) {
            // wide: 25%..50% of the cluster
            let max = (cfg.cluster_nodes / 2).max(1);
            let min = (cfg.cluster_nodes / 4).max(1);
            rng.random_range(min..=max)
        } else {
            // small: 1..8 nodes
            rng.random_range(1..=8u32.min(cfg.cluster_nodes))
        };
        // users typically over-declare their limit 2-3x; a few under
        let limit = if chance(rng, cfg.underestimate_fraction) {
            runtime * 0.7
        } else {
            runtime * (2.0 + rng.random::<f64>())
        };
        out.push(TraceJob {
            submit: SimTime::ZERO + SimDuration::from_secs_f64(t),
            request: JobRequest {
                user: format!("user{:02}", i % 17),
                partition: String::new(),
                nodes,
                time_limit: SimDuration::from_secs_f64(limit),
                actual_runtime: SimDuration::from_secs_f64(runtime),
                exclusive: true,
            },
        });
    }
    out
}

/// Run a trace to completion on a controller; returns the makespan.
pub fn run_trace(controller: &mut crate::Controller, trace: &[TraceJob]) -> SimTime {
    let mut now = SimTime::ZERO;
    let mut i = 0;
    loop {
        // next interesting instant: next submission or next completion
        let next_submit = trace.get(i).map(|j| j.submit);
        let next_done = controller.next_completion();
        let next = match (next_submit, next_done) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        now = next;
        while i < trace.len() && trace[i].submit <= now {
            let _ = controller.submit(now, trace[i].request.clone());
            i += 1;
        }
        controller.advance(now);
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Controller, JobState, SchedulerKind};
    use cwx_util::rng::rng;

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let cfg = TraceConfig::default();
        let a = generate(&mut rng(5), &cfg, 50);
        let b = generate(&mut rng(5), &cfg, 50);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(a
            .iter()
            .all(|j| j.request.nodes >= 1 && j.request.nodes <= 32));
    }

    #[test]
    fn run_trace_completes_every_job() {
        let cfg = TraceConfig {
            cluster_nodes: 16,
            mean_interarrival_secs: 60.0,
            ..Default::default()
        };
        let trace = generate(&mut rng(9), &cfg, 100);
        let mut c = Controller::new(16, SchedulerKind::Backfill);
        let makespan = run_trace(&mut c, &trace);
        assert!(makespan > SimTime::ZERO);
        assert!(
            c.jobs().all(|j| j.state.is_terminal()),
            "every job reaches a terminal state"
        );
        let s = c.stats();
        assert_eq!(s.submitted, 100);
        assert_eq!(s.completed + s.timed_out, 100);
    }

    #[test]
    fn backfill_beats_fifo_on_wait_time() {
        let cfg = TraceConfig {
            cluster_nodes: 32,
            mean_interarrival_secs: 30.0,
            ..Default::default()
        };
        let trace = generate(&mut rng(11), &cfg, 200);
        let run = |kind| {
            let mut c = Controller::new(32, kind);
            run_trace(&mut c, &trace);
            let s = c.stats();
            (s.total_wait_secs / s.submitted as f64, s.backfilled)
        };
        let (fifo_wait, fifo_bf) = run(SchedulerKind::Fifo);
        let (bf_wait, bf_bf) = run(SchedulerKind::Backfill);
        assert_eq!(fifo_bf, 0);
        assert!(bf_bf > 0, "backfill must actually backfill");
        assert!(
            bf_wait < fifo_wait,
            "backfill should reduce mean wait: {bf_wait:.0}s vs {fifo_wait:.0}s"
        );
    }

    #[test]
    fn some_jobs_time_out_by_design() {
        let cfg = TraceConfig {
            underestimate_fraction: 0.3,
            ..Default::default()
        };
        let trace = generate(&mut rng(3), &cfg, 100);
        let mut c = Controller::new(64, SchedulerKind::Backfill);
        run_trace(&mut c, &trace);
        assert!(c.stats().timed_out > 0);
        assert!(c.jobs().any(|j| j.state == JobState::TimedOut));
    }
}
