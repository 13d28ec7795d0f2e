//! Virtual time for the discrete-event simulator.
//!
//! All infrastructure timing in PixelsDB experiments (VM boot lag, cloud
//! function startup, queueing grace periods) runs on this virtual clock, so
//! minutes-long autoscaling traces replay deterministically in milliseconds
//! of wall time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "virtual time cannot be negative");
        SimTime((s * 1e6).round() as u64)
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "durations cannot be negative");
        SimDuration((s * 1e6).round() as u64)
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale a duration by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0);
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
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
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 60.0 {
            write!(f, "{:.1}min", s / 60.0)
        } else if s >= 1.0 {
            write!(f, "{s:.2}s")
        } else {
            write!(f, "{:.1}ms", s * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1500);
        assert!((SimDuration::from_secs(90).as_secs_f64() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(12), SimDuration::from_secs(3));
        // saturating: earlier - later == 0
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.5),
            SimDuration::from_secs(5)
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_secs(120).to_string(), "2.0min");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.00s");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.0ms");
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }
}
