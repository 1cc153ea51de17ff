//! Weighted distribution statistics.
//!
//! Every figure in the paper is a CDF "of users", "of /24s", or "of RIPE
//! probes" — i.e. a weighted empirical distribution. [`WeightedCdf`] is
//! that object; [`BoxStats`] is the five-number summary behind Fig. 6b's
//! box-and-whisker plot.

use serde::{Deserialize, Serialize};

/// A weighted empirical CDF.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedCdf {
    /// (value, weight) pairs sorted by value; weights positive.
    points: Vec<(f64, f64)>,
    total_weight: f64,
}

impl WeightedCdf {
    /// Builds a CDF from (value, weight) points. Non-positive weights and
    /// non-finite values are dropped.
    pub fn from_points(mut points: Vec<(f64, f64)>) -> Self {
        points.retain(|(v, w)| v.is_finite() && *w > 0.0 && w.is_finite());
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let total_weight = points.iter().map(|(_, w)| w).sum();
        Self { points, total_weight }
    }

    /// Unweighted convenience constructor.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        Self::from_points(values.into_iter().map(|v| (v, 1.0)).collect())
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
        let mut acc = 0.0;
        for (v, w) in &self.points {
            acc += w;
            if acc >= target {
                return *v;
            }
        }
        self.points.last().expect("non-empty").0
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
        self.points.iter().map(|(v, w)| v * w).sum::<f64>() / self.total_weight
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
