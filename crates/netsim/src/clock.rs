//! Simulated time.
//!
//! The reproduction never reads a wall clock: all timestamps are
//! [`SimTime`]s produced by advancing a [`SimClock`]. This keeps every
//! experiment deterministic and lets the DITL generator "capture" 48
//! hours of traffic in milliseconds of CPU.

use serde::{Deserialize, Serialize};

/// A simulated instant, in milliseconds since the start of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(pub f64);

impl SimTime {
    /// The experiment epoch.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Builds a time from whole seconds.
    pub fn from_secs(s: f64) -> Self {
        SimTime(s * 1000.0)
    }

    /// Builds a time from hours.
    pub fn from_hours(h: f64) -> Self {
        SimTime(h * 3_600_000.0)
    }

    /// Milliseconds since epoch.
    pub fn as_ms(&self) -> f64 {
        self.0
    }

    /// Seconds since epoch.
    pub fn as_secs(&self) -> f64 {
        self.0 / 1000.0
    }

    /// This time advanced by `ms` milliseconds.
    pub fn plus_ms(&self, ms: f64) -> SimTime {
        SimTime(self.0 + ms)
    }

    /// Elapsed milliseconds from `earlier` to `self` (may be negative).
    pub fn since_ms(&self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }
}

/// A monotonically advancing simulated clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jumps to `t` if it is in the future; otherwise stays put.
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2.0).as_ms(), 2000.0);
        assert_eq!(SimTime::from_hours(1.0).as_secs(), 3600.0);
    }

    #[test]
    fn since_is_signed() {
        let a = SimTime(10.0);
        let b = SimTime(4.0);
        assert_eq!(a.since_ms(b), 6.0);
        assert_eq!(b.since_ms(a), -6.0);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let mut c = SimClock::new();
        c.advance_to(SimTime(100.0));
        c.advance_to(SimTime(50.0));
        assert_eq!(c.now().as_ms(), 100.0);
        c.advance_to(SimTime(150.0));
        assert_eq!(c.now().as_ms(), 150.0);
    }
}
