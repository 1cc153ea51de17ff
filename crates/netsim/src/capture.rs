//! Timestamped record containers — the simulation's "packet captures".
//!
//! DITL PCAPs, the ISI resolver traces, and CDN server-side logs are all,
//! to the analysis pipeline, *ordered streams of timestamped records*.
//! [`Capture`] is that abstraction: append-only, time-ordered, with the
//! window bookkeeping the paper's per-day rate computations need
//! ("calculating daily query rates at each site (total queries divided by
//! total capture time)", §4.3).

use crate::clock::SimTime;
use serde::{Deserialize, Serialize};

/// A time-ordered capture of records of type `T`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Capture<T> {
    records: Vec<(SimTime, T)>,
    /// Capture window start.
    start: SimTime,
    /// Capture window end (≥ last record).
    end: SimTime,
}

impl<T> Default for Capture<T> {
    fn default() -> Self {
        Self { records: Vec::new(), start: SimTime::ZERO, end: SimTime::ZERO }
    }
}

impl<T> Capture<T> {
    /// An empty capture with an explicit observation window.
    pub fn with_window(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "capture window ends before it starts");
        Self { records: Vec::new(), start, end }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous record — captures are written
    /// by a monotone clock.
    pub fn push(&mut self, t: SimTime, record: T) {
        if let Some((last, _)) = self.records.last() {
            assert!(t >= *last, "capture records must be time-ordered");
        }
        if t > self.end {
            self.end = t;
        }
        self.records.push((t, record));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Iterates `(time, record)` in order.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.records.iter()
    }

    /// Iterates just the records.
    pub fn records(&self) -> impl Iterator<Item = &T> {
        self.records.iter().map(|(_, r)| r)
    }

    /// The observation window duration in hours (minimum 1 ms to keep
    /// rate divisions safe on degenerate captures).
    pub fn window_hours(&self) -> f64 {
        (self.end.since_ms(self.start)).max(1.0) / 3_600_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate_in_order() {
        let mut c = Capture::default();
        c.push(SimTime(1.0), "a");
        c.push(SimTime(2.0), "b");
        assert_eq!(c.len(), 2);
        let rs: Vec<_> = c.records().copied().collect();
        assert_eq!(rs, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut c = Capture::default();
        c.push(SimTime(2.0), ());
        c.push(SimTime(1.0), ());
    }

    #[test]
    fn window_extends_with_late_records() {
        let mut c = Capture::with_window(SimTime::ZERO, SimTime::from_hours(1.0));
        c.push(SimTime::from_hours(2.0), ());
        assert!((c.window_hours() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn inverted_window_panics() {
        Capture::<()>::with_window(SimTime(5.0), SimTime(1.0));
    }

    #[test]
    fn empty_capture_rates_are_finite() {
        let c = Capture::<u8>::default();
        assert_eq!(c.len(), 0);
        assert!(c.window_hours() > 0.0, "the window floor keeps rate divisions finite");
    }
}
