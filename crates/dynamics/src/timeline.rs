//! Per-epoch time series emitted by the engine.
//!
//! Every processed event closes one epoch and appends an
//! [`EpochRecord`]: who shifted, what latency looks like now, how long
//! routing took to converge, and — the engine's own report card — how
//! many per-user assignments it recomputed versus reused. The
//! [`Timeline`] renders to deterministic CSV-ready rows so the
//! experiment registry can ship it as a table artifact byte-identical
//! at any `--threads` value.

use serde::{Deserialize, Serialize};

/// The state of the system after one event was applied.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Simulated time of the event, ms since scenario start.
    pub t_ms: f64,
    /// Event label (`"init"` for the pre-scenario steady state).
    pub event: String,
    /// User weight whose site assignment changed at this event
    /// (including users losing or regaining service).
    pub shifted: f64,
    /// `shifted` as a fraction of all user weight.
    pub shifted_frac: f64,
    /// Fraction of user weight with no reachable site.
    pub unserved_frac: f64,
    /// Weighted median RTT of served users, ms (`None` when nobody is
    /// served).
    pub median_ms: Option<f64>,
    /// `median_ms` minus the scenario's initial steady-state median —
    /// the latency inflation the event window inflicts.
    pub inflation_ms: Option<f64>,
    /// Weighted mean geographic path length of served users, km.
    pub mean_path_km: Option<f64>,
    /// Stylized BGP convergence time for this event, ms (grows with the
    /// fraction of users whose route changed; 0 when nothing moved).
    pub convergence_ms: f64,
    /// Queries landing at stale/degraded sites during the convergence
    /// window: the shifted users' query volume over that window.
    pub degraded_queries: f64,
    /// Per-user assignments the engine recomputed for this event.
    pub recomputed: u64,
    /// Per-user assignments the engine proved unaffected and reused.
    pub reused: u64,
    /// Worst relative capacity headroom `(cap − load) / cap` across the
    /// announced sites after this epoch. `None` when the engine runs
    /// without capacities (the default).
    pub headroom_frac: Option<f64>,
    /// Free-text epoch annotations: cancelled same-timestamp pairs,
    /// no-op drain events, and drain-abort reasons. Empty for plain
    /// epochs (rendered as `-` in CSV). Never contains commas — the
    /// CSV renderer does not escape.
    pub note: String,
}

/// The full per-event time series of one scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline {
    /// Scenario name.
    pub scenario: String,
    /// One record per processed event, in simulated-time order, led by
    /// the `"init"` steady state.
    pub records: Vec<EpochRecord>,
}

impl Timeline {
    /// An empty timeline.
    pub(crate) fn new(scenario: impl Into<String>) -> Self {
        Self { scenario: scenario.into(), records: Vec::new() }
    }

    /// Total queries that landed degraded across all events.
    pub fn total_degraded_queries(&self) -> f64 {
        self.records.iter().map(|r| r.degraded_queries).sum()
    }

    /// Worst per-event shifted fraction.
    pub fn max_shifted_frac(&self) -> f64 {
        self.records.iter().map(|r| r.shifted_frac).fold(0.0, f64::max)
    }

    /// Worst latency inflation over the run, ms.
    pub fn max_inflation_ms(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| r.inflation_ms)
            .fold(0.0, f64::max)
    }

    /// Total assignments recomputed / reused over the run (the `init`
    /// epoch recomputes everyone by definition and is excluded).
    pub fn recompute_totals(&self) -> (u64, u64) {
        self.records
            .iter()
            .filter(|r| r.event != "init")
            .fold((0, 0), |(rc, ru), r| (rc + r.recomputed, ru + r.reused))
    }

    /// CSV-ready header for [`Timeline::rows`].
    pub fn header() -> Vec<String> {
        [
            "t_s",
            "event",
            "shifted",
            "shifted_frac",
            "unserved_frac",
            "median_ms",
            "inflation_ms",
            "mean_path_km",
            "convergence_s",
            "degraded_queries",
            "recomputed",
            "reused",
            "headroom_frac",
            "note",
        ]
        .map(String::from)
        .to_vec()
    }

    /// Deterministically formatted rows, one per record. All floats use
    /// fixed precision, so the rendering is byte-stable.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let opt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
        self.records
            .iter()
            .map(|r| {
                vec![
                    format!("{:.3}", r.t_ms / 1000.0),
                    r.event.clone(),
                    format!("{:.3}", r.shifted),
                    format!("{:.6}", r.shifted_frac),
                    format!("{:.6}", r.unserved_frac),
                    opt(r.median_ms),
                    opt(r.inflation_ms),
                    opt(r.mean_path_km),
                    format!("{:.3}", r.convergence_ms / 1000.0),
                    format!("{:.3}", r.degraded_queries),
                    r.recomputed.to_string(),
                    r.reused.to_string(),
                    r.headroom_frac
                        .map(|h| format!("{h:.4}"))
                        .unwrap_or_else(|| "-".into()),
                    if r.note.is_empty() { "-".into() } else { r.note.clone() },
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_deterministically_formatted() {
        let mut t = Timeline::new("demo");
        t.records.push(EpochRecord {
            t_ms: 1234.5,
            event: "init".into(),
            shifted: 0.0,
            shifted_frac: 0.0,
            unserved_frac: 0.0,
            median_ms: Some(12.3456),
            inflation_ms: None,
            mean_path_km: Some(100.0),
            convergence_ms: 0.0,
            degraded_queries: 0.0,
            recomputed: 10,
            reused: 0,
            headroom_frac: Some(0.25),
            note: String::new(),
        });
        let rows = t.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], "1.234");
        assert_eq!(rows[0][5], "12.346");
        assert_eq!(rows[0][6], "-");
        assert_eq!(rows[0][12], "0.2500");
        assert_eq!(rows[0][13], "-", "an empty note renders as a dash");
        assert_eq!(rows[0].len(), Timeline::header().len());
    }

    #[test]
    fn totals_exclude_init() {
        let mut t = Timeline::new("demo");
        for (event, rc, ru) in [("init", 100u64, 0u64), ("down site-0", 10, 90), ("up site-0", 20, 80)] {
            t.records.push(EpochRecord {
                t_ms: 0.0,
                event: event.into(),
                shifted: 0.0,
                shifted_frac: 0.0,
                unserved_frac: 0.0,
                median_ms: None,
                inflation_ms: None,
                mean_path_km: None,
                convergence_ms: 0.0,
                degraded_queries: 0.0,
                recomputed: rc,
                reused: ru,
                headroom_frac: None,
                note: String::new(),
            });
        }
        assert_eq!(t.recompute_totals(), (30, 170));
    }
}
