//! Counters, histograms, and the process-wide metric registry.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Histogram bucket upper bounds (a 1–2.5–5 log ladder). Values above
/// the last bound land in an implicit `+inf` overflow bucket.
pub(crate) const BUCKET_BOUNDS: [f64; 16] = [
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0, 10000.0,
];

/// A fixed-bucket histogram of `f64` observations.
///
/// Every stored statistic — bucket counts, total count, min, max — is
/// *order-independent*: merging two histograms (or recording the same
/// observations in any interleaving) yields identical state. That is
/// what lets worker threads record concurrently while `metrics.json`
/// stays byte-identical at any `--threads` value. A sum is deliberately
/// **not** kept: floating-point addition is not associative, so a sum
/// would depend on scheduling.
#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    /// Count per bucket; index `BUCKET_BOUNDS.len()` is the overflow.
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKET_BOUNDS.len() + 1],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub(crate) fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations of `v` in one bucket update —
    /// the batched form streaming consumers use when one value stands
    /// for a whole batch (e.g. every query of a cohort paying the same
    /// RTT). Equivalent to calling [`Histogram::record`] `n` times; a
    /// zero count leaves the histogram untouched (including extrema).
    pub(crate) fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        // The first bound at or above `v`; NaN is below no bound and
        // lands in the overflow bucket.
        let idx = BUCKET_BOUNDS.partition_point(|b| v.is_nan() || v > *b);
        self.counts[idx] += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Commutative and associative.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations recorded.
    pub(crate) fn count(&self) -> u64 {
        self.total
    }

    /// Smallest observation, or `None` if empty.
    pub(crate) fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub(crate) fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// `(upper_bound, count)` for each non-empty bucket; the overflow
    /// bucket reports `f64::INFINITY` as its bound.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (BUCKET_BOUNDS.get(i).copied().unwrap_or(f64::INFINITY), *c))
            .collect()
    }
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanStats {
    /// Times a span with this path closed.
    pub(crate) count: u64,
    /// Work items attributed via [`crate::SpanGuard::add_items`].
    pub(crate) items: u64,
    /// Total wall-clock nanoseconds spent inside (human sink only —
    /// never serialized to `metrics.json`, which must be deterministic).
    pub(crate) nanos: u128,
}

/// The process-wide registry behind the facade functions.
pub(crate) struct Registry {
    pub(crate) counters: Mutex<BTreeMap<&'static str, u64>>,
    pub(crate) hists: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Span path (`"parent/child{field=v}"`) → aggregated stats.
    pub(crate) spans: Mutex<BTreeMap<String, SpanStats>>,
    pub(crate) verbose: AtomicBool,
}

pub(crate) fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(BTreeMap::new()),
        verbose: AtomicBool::new(false),
    })
}

pub(crate) fn lock_counters() -> MutexGuard<'static, BTreeMap<&'static str, u64>> {
    registry().counters.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn lock_hists() -> MutexGuard<'static, BTreeMap<&'static str, Histogram>> {
    registry().hists.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn lock_spans() -> MutexGuard<'static, BTreeMap<String, SpanStats>> {
    registry().spans.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_merge_is_order_independent() {
        let values = [0.05, 0.3, 3.0, 30.0, 3e6];
        let mut one = Histogram::default();
        for v in values {
            one.record(v);
        }
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(values[0]);
        a.record(values[3]);
        b.record(values[1]);
        b.record(values[2]);
        b.record(values[4]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for h in [&ab, &ba] {
            assert_eq!(h.count(), one.count());
            assert_eq!(h.min(), one.min());
            assert_eq!(h.max(), one.max());
            assert_eq!(h.nonzero_buckets(), one.nonzero_buckets());
        }
    }

    #[test]
    fn record_n_equals_n_records_and_zero_is_a_noop() {
        let mut batched = Histogram::default();
        batched.record_n(3.0, 4);
        batched.record_n(700.0, 0);
        let mut looped = Histogram::default();
        for _ in 0..4 {
            looped.record(3.0);
        }
        assert_eq!(batched.count(), looped.count());
        assert_eq!(batched.min(), looped.min());
        assert_eq!(batched.max(), looped.max(), "a zero count must not move extrema");
        assert_eq!(batched.nonzero_buckets(), looped.nonzero_buckets());
    }

    #[test]
    fn bucket_search_matches_a_scan() {
        let scan =
            |v: f64| BUCKET_BOUNDS.iter().position(|b| v <= *b).unwrap_or(BUCKET_BOUNDS.len());
        let probes = BUCKET_BOUNDS
            .iter()
            .flat_map(|b| [b.next_down(), *b, b.next_up()])
            .chain([f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1e9, f64::INFINITY, f64::NAN]);
        for v in probes {
            let mut h = Histogram::default();
            h.record(v);
            assert_eq!(h.counts[scan(v)], 1, "value {v}");
        }
    }

    #[test]
    fn overflow_bucket_reports_infinite_bound() {
        let mut h = Histogram::default();
        h.record(1e9);
        assert_eq!(h.nonzero_buckets(), vec![(f64::INFINITY, 1)]);
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert!(h.min().is_none());
        assert!(h.max().is_none());
    }
}
