//! Simulated time.
//!
//! All cluster-scale experiments in this reproduction run on a discrete
//! event simulator, so time is a logical quantity: nanoseconds since the
//! start of the simulation. [`SimTime`] is an instant, [`SimDuration`] a
//! span. Both are thin wrappers over `u64` nanoseconds so they are `Copy`,
//! totally ordered and cheap to pass around.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, measured in nanoseconds from simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is in the future, which keeps
    /// measurement code robust against reordered observations.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// Wall time elapsed since `epoch`, projected onto [`SimTime`] in exact
/// nanoseconds: the one clock reading of every live (non-simulated)
/// path.
pub fn wall_since(epoch: std::time::Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a float factor (clamped at zero), used by jitter models.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.1}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.1}ms", ns as f64 / 1e6)
        } else if ns < 60 * 1_000_000_000 {
            write!(f, "{:.2}s", ns as f64 / 1e9)
        } else {
            let secs = ns as f64 / 1e9;
            write!(f, "{}m{:04.1}s", (secs / 60.0) as u64, secs % 60.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_since_reads_elapsed_wall_time() {
        let epoch = std::time::Instant::now() - std::time::Duration::from_millis(1500);
        let t = wall_since(epoch);
        assert!(t >= SimTime::from_nanos(1_500_000_000) && t < SimTime::from_nanos(60_000_000_000));
    }

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert!(SimDuration::from_secs_f64(-1.0).is_zero());
        assert!(SimDuration::from_secs_f64(f64::NAN).is_zero());
        assert!(SimDuration::from_secs_f64(f64::INFINITY).is_zero());
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!((t1 - t0).as_nanos(), 50);
        // saturating "since" when observer order is inverted
        assert_eq!((t0 - t1).as_nanos(), 0);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let a = SimDuration::from_nanos(u64::MAX);
        assert_eq!((a + a).as_nanos(), u64::MAX);
        assert_eq!(
            (SimDuration::from_nanos(1) - SimDuration::from_nanos(2)).as_nanos(),
            0
        );
        assert_eq!((a * 3).as_nanos(), u64::MAX);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.0us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.0ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.00s");
        assert_eq!(SimDuration::from_secs(720).to_string(), "12m00.0s");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10).mul_f64(0.25);
        assert_eq!(d.as_millis(), 2_500);
    }
}
