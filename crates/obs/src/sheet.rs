//! Per-worker metric sheets: buffered, mergeable metric accumulation
//! for parallel shards.

use crate::metrics::{lock_counters, lock_hists, Histogram};
use std::collections::BTreeMap;

/// A local, unsynchronized batch of counter increments and histogram
/// observations.
///
/// Inside a `par::ordered_map` shard, recording into a sheet costs no
/// lock; the shard returns its sheet alongside its result, and the
/// caller merges the sheets **in shard index order** before flushing
/// once into the process registry. Because every sheet operation is a
/// commutative sum (or min/max), the merged totals are identical for
/// any shard-to-thread schedule — the same determinism contract as
/// `par::ordered_map` itself.
///
/// ```
/// use anycast_obs::MetricSheet;
///
/// // Two shards record disjoint interleavings of the same workload…
/// let mut shard0 = MetricSheet::new();
/// shard0.counter_add("doc.queries", 2);
/// shard0.record_all("doc.latency_ms", [4.0]);
/// let mut shard1 = MetricSheet::new();
/// shard1.counter_add("doc.queries", 3);
/// shard1.record_all("doc.latency_ms", [40.0]);
///
/// // …and the merged sheet is the same whichever order they merge in.
/// let mut fwd = MetricSheet::new();
/// fwd.merge(shard0.clone());
/// fwd.merge(shard1.clone());
/// let mut rev = MetricSheet::new();
/// rev.merge(shard1);
/// rev.merge(shard0);
/// assert_eq!(fwd.counter("doc.queries"), 5);
/// assert_eq!(fwd.counter("doc.queries"), rev.counter("doc.queries"));
/// fwd.flush(); // one registry write for the whole campaign
/// assert_eq!(anycast_obs::counter_value("doc.queries"), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricSheet {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl MetricSheet {
    /// An empty sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the sheet's counter `name`.
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Records `n` identical observations of `v` into the sheet's
    /// histogram `name` — one bucket update however large the batch
    /// (see `Histogram::record_n`). A zero count is a no-op.
    pub fn record_n(&mut self, name: &'static str, v: f64, n: u64) {
        if n > 0 {
            self.hists.entry(name).or_default().record_n(v, n);
        }
    }

    /// Records every value of `values` into the sheet's histogram
    /// `name` with one name lookup. An empty `values` leaves the sheet
    /// untouched: a histogram name appears only once it has a value.
    pub fn record_all(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        let mut batch = Histogram::default();
        for v in values {
            batch.record(v);
        }
        if batch.count() > 0 {
            self.hists.entry(name).or_default().merge(&batch);
        }
    }

    /// This sheet's current value of counter `name` (0 if untouched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`. Commutative and associative, so any
    /// merge order yields the same sheet; campaigns still merge in
    /// shard index order by convention, mirroring how their row vectors
    /// concatenate.
    pub fn merge(&mut self, other: MetricSheet) {
        for (name, n) in other.counters {
            *self.counters.entry(name).or_default() += n;
        }
        for (name, h) in other.hists {
            self.hists.entry(name).or_default().merge(&h);
        }
    }

    /// Publishes the sheet into the process registry and consumes it.
    pub fn flush(self) {
        if !self.counters.is_empty() {
            let mut counters = lock_counters();
            for (name, n) in self.counters {
                *counters.entry(name).or_default() += n;
            }
        }
        if !self.hists.is_empty() {
            let mut hists = lock_hists();
            for (name, h) in self.hists {
                hists.entry(name).or_default().merge(&h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheets_buffer_without_touching_the_registry() {
        let mut sheet = MetricSheet::new();
        sheet.counter_add("sheettest.buffered", 7);
        assert_eq!(crate::counter_value("sheettest.buffered"), 0);
        sheet.flush();
        assert_eq!(crate::counter_value("sheettest.buffered"), 7);
    }

    #[test]
    fn merge_combines_counters_and_histograms() {
        let mut a = MetricSheet::new();
        a.counter_add("sheettest.m", 1);
        a.record_all("sheettest.h", [1.0]);
        let mut b = MetricSheet::new();
        b.counter_add("sheettest.m", 2);
        b.record_all("sheettest.h", [100.0]);
        a.merge(b);
        assert_eq!(a.counter("sheettest.m"), 3);
        assert_eq!(a.hists["sheettest.h"].count(), 2);
        assert_eq!(a.hists["sheettest.h"].max(), Some(100.0));
    }

    #[test]
    fn record_all_equals_one_record_per_value() {
        let values = [0.05, 3.0, 3.0, 700.0, 2e4];
        let mut batched = MetricSheet::new();
        batched.record_all("sheettest.all", values);
        batched.record_all("sheettest.none", []);
        let mut l = Histogram::default();
        for v in values {
            l.record(v);
        }
        let b = &batched.hists["sheettest.all"];
        assert_eq!((b.count(), b.min(), b.max()), (l.count(), l.min(), l.max()));
        assert_eq!(b.nonzero_buckets(), l.nonzero_buckets());
        assert!(!batched.hists.contains_key("sheettest.none"), "no values, no name");
    }
}
