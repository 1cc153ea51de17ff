//! Weighted distribution statistics.
//!
//! Every figure in the paper is a CDF "of users", "of /24s", or "of RIPE
//! probes" — i.e. a weighted empirical distribution. [`WeightedCdf`] is
//! that object; [`BoxStats`] is the five-number summary behind Fig. 6b's
//! box-and-whisker plot.

use serde::{Deserialize, Serialize};

/// A weighted empirical CDF.
///
/// Stored as its values in ascending order plus the running weight sum
/// through each one, accumulated left to right at construction, so
/// [`quantile`](Self::quantile) and
/// [`fraction_at_most`](Self::fraction_at_most) are binary searches.
/// Equal values stay separate points in input order (the sort is
/// stable), which keeps every sum in the same order as a point-by-point
/// scan and so every answer to the bit (DESIGN.md decision 17).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedCdf {
    points: Points,
    total_weight: f64,
    /// Σ value·weight over the sorted points, summed at construction.
    weighted_sum: f64,
}

/// The sorted points of a [`WeightedCdf`].
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Points {
    /// Every weight is 1: no weights are stored, and the running sum
    /// through index `i` is exactly `i + 1`.
    Unit(Vec<f64>),
    /// (value, running weight sum through this point).
    Weighted(Vec<(f64, f64)>),
}

impl Points {
    fn len(&self) -> usize {
        match self {
            Points::Unit(values) => values.len(),
            Points::Weighted(points) => points.len(),
        }
    }

    fn value(&self, i: usize) -> f64 {
        match self {
            Points::Unit(values) => values[i],
            Points::Weighted(points) => points[i].0,
        }
    }

    /// Weight of points `0..=i`.
    fn running_sum(&self, i: usize) -> f64 {
        match self {
            Points::Unit(_) => (i + 1) as f64,
            Points::Weighted(points) => points[i].1,
        }
    }

    /// The first index in `0..len` where `pred` is false; `pred` must
    /// hold on a prefix of the indices and fail on the rest.
    fn partition_point(&self, pred: impl Fn(usize) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl WeightedCdf {
    /// Builds a CDF from (value, weight) points. Non-positive weights and
    /// non-finite values are dropped. Sorts and sums in `points`' own
    /// buffer; when every kept weight is 1 the weights are dropped.
    pub fn from_points(mut points: Vec<(f64, f64)>) -> Self {
        points.retain(|(v, w)| v.is_finite() && *w > 0.0 && w.is_finite());
        if points.iter().all(|&(_, w)| w == 1.0) {
            return Self::from_values(points.into_iter().map(|(v, _)| v));
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let weighted_sum = points.iter().map(|(v, w)| v * w).sum();
        let mut acc = 0.0;
        for (_, w) in &mut points {
            acc += *w;
            *w = acc;
        }
        Self::new(Points::Weighted(points), weighted_sum)
    }

    /// Unweighted constructor: every finite value is one point of weight
    /// 1. Reuses the buffer when given a `Vec<f64>`.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut values: Vec<f64> = values.into_iter().collect();
        values.retain(|v| v.is_finite());
        // Equal finite values are equal bits, except −0.0 and +0.0: the
        // total order puts every −0.0 first, so when there is one the
        // zero block is rewritten in input order, as a stable sort would
        // leave it.
        let zeros: Vec<f64> = if values.iter().any(|v| *v == 0.0 && v.is_sign_negative()) {
            values.iter().copied().filter(|&v| v == 0.0).collect()
        } else {
            Vec::new()
        };
        values.sort_unstable_by(f64::total_cmp);
        let first_zero = values.partition_point(|&v| v < 0.0);
        values[first_zero..first_zero + zeros.len()].copy_from_slice(&zeros);
        // v · 1 is v, bit for bit.
        let weighted_sum = values.iter().sum();
        Self::new(Points::Unit(values), weighted_sum)
    }

    fn new(points: Points, weighted_sum: f64) -> Self {
        let total_weight = match points.len() {
            // What summing no weights gives.
            0 => std::iter::empty::<f64>().sum(),
            n => points.running_sum(n - 1),
        };
        Self { points, total_weight, weighted_sum }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the CDF holds no mass.
    pub fn is_empty(&self) -> bool {
        self.total_weight <= 0.0
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Fraction of weight with value ≤ `x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let below = self.points.partition_point(|i| self.points.value(i) <= x);
        let acc = if below == 0 { 0.0 } else { self.points.running_sum(below - 1) };
        acc / self.total_weight
    }

    /// The `q`-quantile (`q` in `[0, 1]`): smallest value with at least
    /// `q` of the weight at or below it.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        assert!(!self.is_empty(), "quantile of empty CDF");
        let target = q * self.total_weight;
        // A NaN target (0 · ∞ once the weights overflow) is reached by no
        // running sum, so the scan this replaces returned the last value.
        let first = self
            .points
            .partition_point(|i| target.is_nan() || self.points.running_sum(i) < target);
        self.points.value(first.min(self.len() - 1))
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Weighted mean.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.weighted_sum / self.total_weight
    }

    /// The y-axis intercept as the paper reads it: the fraction of weight
    /// at (effectively) zero. `epsilon` sets "effectively" — e.g. 1 ms
    /// for inflation CDFs.
    pub fn intercept(&self, epsilon: f64) -> f64 {
        self.fraction_at_most(epsilon)
    }

    /// Samples the CDF curve at `n` evenly spaced quantiles, for
    /// rendering: returns (value, cumulative fraction).
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..=n)
            .map(|i| {
                let q = i as f64 / n as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

/// Five-number summary (the horizontal lines of Fig. 6b's boxes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Summary of a weighted distribution. Returns `None` when empty.
    pub(crate) fn of(cdf: &WeightedCdf) -> Option<BoxStats> {
        if cdf.is_empty() {
            return None;
        }
        Some(BoxStats {
            min: cdf.quantile(0.0),
            q1: cdf.quantile(0.25),
            median: cdf.quantile(0.5),
            q3: cdf.quantile(0.75),
            max: cdf.quantile(1.0),
        })
    }
}

/// Median of a plain f64 slice (sorts a copy). Returns `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(v[v.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear-scan CDF the prefix-sum one replaced, kept as the
    /// bit-for-bit reference of `matches_the_linear_scan_reference`.
    struct ScanCdf {
        points: Vec<(f64, f64)>,
        total_weight: f64,
    }

    impl ScanCdf {
        fn from_points(mut points: Vec<(f64, f64)>) -> Self {
            points.retain(|(v, w)| v.is_finite() && *w > 0.0 && w.is_finite());
            points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
            let total_weight = points.iter().map(|(_, w)| w).sum();
            Self { points, total_weight }
        }

        fn is_empty(&self) -> bool {
            self.total_weight <= 0.0
        }

        fn fraction_at_most(&self, x: f64) -> f64 {
            if self.is_empty() {
                return 0.0;
            }
            let mut acc = 0.0;
            for (v, w) in &self.points {
                if *v <= x {
                    acc += w;
                } else {
                    break;
                }
            }
            acc / self.total_weight
        }

        fn quantile(&self, q: f64) -> f64 {
            let target = q * self.total_weight;
            let mut acc = 0.0;
            for (v, w) in &self.points {
                acc += w;
                if acc >= target {
                    return *v;
                }
            }
            self.points.last().expect("non-empty").0
        }

        fn mean(&self) -> f64 {
            if self.is_empty() {
                return 0.0;
            }
            self.points.iter().map(|(v, w)| v * w).sum::<f64>() / self.total_weight
        }

        fn curve(&self, n: usize) -> Vec<(f64, f64)> {
            if self.is_empty() || n == 0 {
                return Vec::new();
            }
            (0..=n)
                .map(|i| {
                    let q = i as f64 / n as f64;
                    (self.quantile(q), q)
                })
                .collect()
        }
    }

    /// Values with duplicates, both zeros and the non-finite values
    /// construction drops; any other code is a fresh value.
    fn value(code: u32, fresh: f64) -> f64 {
        const TABLE: [f64; 10] =
            [-0.0, 0.0, 0.1, 1.0, 2.5, 2.5, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        TABLE.get(code as usize).copied().unwrap_or(fresh)
    }

    /// Mostly unit weights, with the weights construction drops and one
    /// large enough that the total overflows to ∞.
    fn weight(code: u32, fresh: f64) -> f64 {
        match code {
            0..=5 => 1.0,
            6 => 0.0,
            7 => -1.0,
            8 => f64::INFINITY,
            9 => f64::NAN,
            10 => 1e308,
            _ => fresh,
        }
    }

    fn bits(pairs: &[(f64, f64)]) -> Vec<(u64, u64)> {
        pairs.iter().map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every answer of the prefix-sum CDF equals the linear scan's to
        /// the bit, for weighted and all-unit `from_points` and for
        /// `from_values`.
        #[test]
        fn matches_the_linear_scan_reference(
            raw in proptest::collection::vec(
                (0u32..14, -50.0f64..1e3, 0u32..13, 0.01f64..1e3),
                0..160,
            ),
            mode in 0u32..3,
            qs in proptest::collection::vec(0.0f64..1.0, 8),
        ) {
            // Mode 0 draws weights; modes 1 and 2 give every point
            // weight 1, through `from_points` and `from_values`.
            let points: Vec<(f64, f64)> = raw
                .iter()
                .map(|&(vc, v, wc, w)| (value(vc, v), if mode == 0 { weight(wc, w) } else { 1.0 }))
                .collect();
            let reference = ScanCdf::from_points(points.clone());
            let cdf = if mode == 2 {
                WeightedCdf::from_values(points.iter().map(|p| p.0))
            } else {
                WeightedCdf::from_points(points)
            };

            prop_assert_eq!(cdf.len(), reference.points.len());
            prop_assert_eq!(cdf.total_weight().to_bits(), reference.total_weight.to_bits());
            prop_assert_eq!(cdf.is_empty(), reference.is_empty());
            prop_assert_eq!(cdf.mean().to_bits(), reference.mean().to_bits());
            prop_assert_eq!(bits(&cdf.curve(200)), bits(&reference.curve(200)));
            if !cdf.is_empty() {
                for q in [0.0, 1.0].into_iter().chain(qs) {
                    prop_assert_eq!(
                        cdf.quantile(q).to_bits(),
                        reference.quantile(q).to_bits(),
                        "quantile({})", q
                    );
                }
            }
            let stored: Vec<f64> = reference.points.iter().map(|p| p.0).collect();
            let between = stored.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2.0);
            let outside = [f64::NEG_INFINITY, -1e9, 1e9, f64::INFINITY, f64::NAN];
            for x in stored.iter().copied().chain(between).chain(outside) {
                prop_assert_eq!(
                    cdf.fraction_at_most(x).to_bits(),
                    reference.fraction_at_most(x).to_bits(),
                    "fraction_at_most({})", x
                );
            }
        }
    }

    /// `from_values` sorts with a total order and then restores the
    /// input order of the zeros: a quantile in the zero block returns
    /// the sign a stable sort would have put there.
    #[test]
    fn mixed_zeros_keep_their_input_order() {
        let values = [0.0, -0.0, 2.0, -0.0, 0.0, -1.0, 0.0, -0.0];
        let points = values.iter().map(|&v| (v, 1.0)).collect();
        let reference = ScanCdf::from_points(points);
        let cdf = WeightedCdf::from_values(values);
        let want: Vec<u64> =
            [-1.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 2.0].iter().map(|v: &f64| v.to_bits()).collect();
        let got: Vec<u64> = (0..values.len()).map(|i| cdf.points.value(i).to_bits()).collect();
        assert_eq!(got, want);
        assert_eq!(bits(&cdf.curve(64)), bits(&reference.curve(64)));
        assert_eq!(cdf.mean().to_bits(), reference.mean().to_bits());
    }

    #[test]
    fn quantiles_of_uniform_points() {
        let cdf = WeightedCdf::from_values((1..=100).map(|i| i as f64));
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert_eq!(cdf.median(), 50.0);
        assert!((cdf.fraction_at_most(25.0) - 0.25).abs() < 0.01);
    }

    #[test]
    fn weights_shift_the_median() {
        let cdf = WeightedCdf::from_points(vec![(1.0, 9.0), (100.0, 1.0)]);
        assert_eq!(cdf.median(), 1.0);
        let cdf2 = WeightedCdf::from_points(vec![(1.0, 1.0), (100.0, 9.0)]);
        assert_eq!(cdf2.median(), 100.0);
    }

    #[test]
    fn intercept_counts_zero_mass() {
        let cdf = WeightedCdf::from_points(vec![(0.0, 3.0), (0.5, 1.0), (50.0, 6.0)]);
        assert!((cdf.intercept(1.0) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn invalid_points_are_dropped() {
        let cdf = WeightedCdf::from_points(vec![
            (f64::NAN, 1.0),
            (1.0, -2.0),
            (1.0, f64::INFINITY),
            (2.0, 1.0),
        ]);
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.median(), 2.0);
    }

    #[test]
    fn mean_is_weighted() {
        let cdf = WeightedCdf::from_points(vec![(0.0, 1.0), (10.0, 3.0)]);
        assert!((cdf.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone() {
        let cdf = WeightedCdf::from_values([5.0, 1.0, 3.0, 2.0, 4.0]);
        let curve = cdf.curve(10);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn box_stats_order() {
        let cdf = WeightedCdf::from_values((0..101).map(|i| i as f64));
        let b = BoxStats::of(&cdf).expect("non-empty");
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
        assert_eq!(b.min, 0.0);
        assert_eq!(b.max, 100.0);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = WeightedCdf::from_points(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_most(10.0), 0.0);
        assert!(BoxStats::of(&cdf).is_none());
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        WeightedCdf::from_points(vec![]).quantile(0.5);
    }
}
