//! Order statistics and open-loop bookkeeping.
//!
//! Timings are reported as a median plus, where a metric names one, a
//! tail percentile — and a tail percentile is only reported when at
//! least [`TAIL_MIN_BEYOND`] samples lie beyond it, so a "p95" is never
//! one outlier's opinion.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Sort a copy ascending (NaN-free input; timings and counts only).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of sorted data, `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of sorted data (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// May percentile `p` be reported for `n` samples?
pub fn tail_allowed(n: usize, p: f64) -> bool {
    // the epsilon absorbs 10 000 × (1 − 0.999) = 9.999999999999998
    n as f64 * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9
}

/// A named tail percentile, or `None` when the rule forbids it.
pub fn named_tail(sorted: &[f64], p: f64) -> Option<f64> {
    tail_allowed(sorted.len(), p).then(|| percentile(sorted, p))
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)`
/// computes them (exclusive method) — the acceptance check compares
/// spreads computed that way, so `compare` must agree with it.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values);
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// An open-loop schedule: operation `k` is due at `start + k * period`
/// whether or not earlier operations have completed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When operation 0 is due.
    pub start: Instant,
    /// Spacing between operations.
    pub period: Duration,
}

impl Schedule {
    /// Due time of operation `k`.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_nanos(self.period.as_nanos() as u64 * k)
    }
}

/// How late an operation started: zero when on time or early.
pub fn lateness(due: Instant, started: Instant) -> Duration {
    started.saturating_duration_since(due)
}

/// Open-loop latency: measured from when the operation was *due*, so
/// the wait a stall imposes on later operations counts against them.
pub fn open_loop_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p95 needs 200 samples, p99 needs 1000, p99.9 needs 10000
        assert!(!tail_allowed(199, 95.0));
        assert!(tail_allowed(200, 95.0));
        assert!(!tail_allowed(999, 99.0));
        assert!(tail_allowed(1000, 99.0));
        assert!(!tail_allowed(9_999, 99.9));
        assert!(tail_allowed(10_000, 99.9));
        let few = sorted(&(0..50).map(f64::from).collect::<Vec<_>>());
        assert_eq!(named_tail(&few, 95.0), None);
        let many = sorted(&(0..200).map(f64::from).collect::<Vec<_>>());
        assert_eq!(named_tail(&many, 95.0), Some(189.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_median_splits_pairs() {
        let v = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time_not_send_time() {
        let start = Instant::now();
        let sched = Schedule {
            start,
            period: Duration::from_millis(10),
        };
        assert_eq!(sched.due(3), start + Duration::from_millis(30));
        // operation 3 was due at +30 ms, a stall let it start at +50 ms
        // and it completed at +52 ms: 20 ms late, 22 ms latency (a
        // closed-loop clock would have said 2 ms)
        let started = start + Duration::from_millis(50);
        let done = start + Duration::from_millis(52);
        assert_eq!(lateness(sched.due(3), started), Duration::from_millis(20));
        assert_eq!(
            open_loop_latency(sched.due(3), done),
            Duration::from_millis(22)
        );
        // early is not negative lateness
        assert_eq!(lateness(sched.due(9), started), Duration::ZERO);
    }
}
