//! Structured observability for the anycast-context workspace.
//!
//! The reproduction is a multi-stage measurement pipeline (world
//! generation → BGP routing → catchments → campaigns → analysis →
//! CSV), and every headline number is the end of that pipeline. This
//! crate is the one facade through which the pipeline reports on
//! itself:
//!
//! * **hierarchical spans** ([`span!`]) — RAII guards that record
//!   wall-clock, processed item counts, and parent/child nesting via a
//!   thread-local stack;
//! * **monotonic counters** ([`counter_add`]) and fixed-bucket
//!   **histograms** ([`record`]) — cache hits, routes computed, queries
//!   emitted per class, latency distributions;
//! * **per-worker [`MetricSheet`]s** — lock-free accumulation inside
//!   `par::ordered_map` shards, merged deterministically in shard index
//!   order;
//! * two **sinks** — a human span tree with timings
//!   ([`render_tree`], printed live at `--verbose`) and the
//!   deterministic machine document [`render_metrics_json`], written by
//!   `repro` to `results/metrics.json` alongside `timings.json`.
//!
//! Like `anycast-par`, the crate has **no dependencies** (the build is
//! offline) and sits below every instrumented layer.
//!
//! # Determinism contract
//!
//! `metrics.json` must be byte-identical for a fixed seed at any
//! `--threads` value. Three rules make that hold:
//!
//! 1. Counters and histograms keep only **order-independent**
//!    aggregates (sums, bucket counts, min/max — never a float sum), so
//!    concurrent recording cannot reorder anything observable.
//! 2. Wall-clock time is **excluded** from the machine sink; it appears
//!    only in the verbose tree and `timings.json`, the two outputs that
//!    legitimately vary run to run.
//! 3. Spans nest through a **thread-local** stack, so the convention is
//!    *spans on orchestrating threads, counters and sheets inside
//!    parallel workers* — and no span may be held open across a
//!    `par::ordered_map` fan-out whose closures themselves open spans,
//!    since the workers' stacks start empty while a `--threads 1` run
//!    executes inline. Spans aggregate by full path, so the tree is a
//!    profile (stable across schedules), not an event trace.
//!
//! # Example
//!
//! ```
//! use anycast_obs as obs;
//!
//! // An orchestrating thread wraps a pipeline stage in a span…
//! let campaign = obs::span!("docs.campaign", year = 2018);
//! // …workers record into sheets (no locks, no shared state)…
//! let sheets: Vec<obs::MetricSheet> = (0..4)
//!     .map(|shard| {
//!         let mut sheet = obs::MetricSheet::new();
//!         sheet.counter_add("docs.queries_emitted", 10 + shard);
//!         sheet
//!     })
//!     .collect();
//! // …which merge in shard index order and flush once.
//! let mut merged = obs::MetricSheet::new();
//! for sheet in sheets {
//!     merged.merge(sheet);
//! }
//! merged.flush();
//! campaign.add_items(4);
//! drop(campaign);
//!
//! assert_eq!(obs::counter_value("docs.queries_emitted"), 46);
//! let json = obs::render_metrics_json();
//! assert!(json.contains("\"docs.campaign{year=2018}\""));
//! ```

#![deny(missing_docs)]

mod metrics;
mod sheet;
mod sink;
mod span;

pub use sheet::MetricSheet;
pub use sink::{render_metrics_json, render_tree};
pub use span::SpanGuard;

use std::sync::atomic::Ordering;

/// Adds `n` to the process-wide counter `name`, creating it at zero on
/// first touch. Counters are plain sums, so concurrent increments from
/// parallel workers produce schedule-independent totals.
pub fn counter_add(name: &'static str, n: u64) {
    *metrics::lock_counters().entry(name).or_default() += n;
}

/// Current value of counter `name` (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    metrics::lock_counters().get(name).copied().unwrap_or(0)
}

/// Records one observation into the process-wide histogram `name`.
/// For hot loops, buffer into a [`MetricSheet`] instead and flush once.
pub fn record(name: &'static str, v: f64) {
    metrics::lock_hists().entry(name).or_default().record(v);
}

/// Enables or disables verbose mode: when on, every closing span prints
/// one indented progress line to stderr (the `--verbose` flag of
/// `repro`).
pub fn set_verbose(on: bool) {
    metrics::registry().verbose.store(on, Ordering::Relaxed);
}

/// Whether verbose mode is on.
pub fn verbose() -> bool {
    metrics::registry().verbose.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counters_sum_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| crate::counter_add("libtest.racing", 1000)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(crate::counter_value("libtest.racing"), 4000);
    }

    #[test]
    fn verbose_round_trips() {
        // Default off; toggling is observable. (Leave it off — other
        // tests in this binary print spans.)
        crate::set_verbose(false);
        assert!(!crate::verbose());
    }
}
