//! Efficiency vs latency across deployment sizes (§7.2, Fig. 7a).
//!
//! "We define efficiency as the percentage of users with zero geographic
//! inflation … since it is a rough measure of how optimal routing is."
//! Fig. 7a's punchline: larger deployments are *less* efficient but have
//! *lower* median latency — efficiency is a poor performance metric.

use crate::stats::WeightedCdf;

/// Tolerance for "zero" geographic inflation, ms (distance jitter from
/// geolocation error makes exact zero too strict).
pub(crate) const ZERO_INFLATION_EPSILON_MS: f64 = 1.0;

/// Efficiency from a geographic-inflation CDF: the y-intercept.
pub fn efficiency(geo_inflation: &WeightedCdf) -> f64 {
    if geo_inflation.is_empty() {
        return 0.0;
    }
    geo_inflation.intercept(ZERO_INFLATION_EPSILON_MS)
}

/// Rank correlation (Kendall's τ, unnormalized sign count) between two
/// series — used by tests and EXPERIMENTS.md to state "latency decreases
/// with sites" / "efficiency decreases with sites" quantitatively.
pub fn kendall_tau(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = pairs[j].0 - pairs[i].0;
            let dy = pairs[j].1 - pairs[i].1;
            let s = (dx * dy).signum();
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (n * (n - 1) / 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_the_intercept() {
        let cdf = WeightedCdf::from_points(vec![(0.0, 4.0), (0.5, 1.0), (30.0, 5.0)]);
        assert!((efficiency(&cdf) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_cdf_has_zero_efficiency() {
        assert_eq!(efficiency(&WeightedCdf::from_points(vec![])), 0.0);
    }

    #[test]
    fn kendall_tau_detects_monotonicity() {
        let inc: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64 * 2.0)).collect();
        assert!((kendall_tau(&inc) - 1.0).abs() < 1e-9);
        let dec: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((kendall_tau(&dec) + 1.0).abs() < 1e-9);
        assert_eq!(kendall_tau(&[]), 0.0);
    }
}
