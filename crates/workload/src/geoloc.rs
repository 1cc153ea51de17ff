//! MaxMind-style geolocation with realistic error.
//!
//! §3.1 geolocates every DITL recursive with MaxMind, citing prior
//! validation that commercial geolocation is accurate enough for
//! inflation analysis on resolver infrastructure. [`Geolocator`] maps a
//! /24 to a location with a deterministic, prefix-stable error: usually
//! tens of km, occasionally a few hundred — enough that Eq. 1's inputs
//! carry the same imperfection the paper's do.

use geo::GeoPoint;
use par::DetHashMap;
use serde::{Deserialize, Serialize};
use topology::Prefix24;

/// Geolocation error profile.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GeolocError {
    /// Typical (median) error, km.
    pub typical_km: f64,
    /// Probability of a gross error.
    pub gross_prob: f64,
    /// Gross error magnitude, km.
    pub gross_km: f64,
}

impl Default for GeolocError {
    fn default() -> Self {
        Self { typical_km: 25.0, gross_prob: 0.02, gross_km: 800.0 }
    }
}

/// The geolocation database.
#[derive(Debug, Clone)]
pub struct Geolocator {
    truth: DetHashMap<Prefix24, GeoPoint>,
    error: GeolocError,
}

impl Geolocator {
    /// Builds the database from ground-truth prefix locations.
    pub fn new(truth: impl IntoIterator<Item = (Prefix24, GeoPoint)>, error: GeolocError) -> Self {
        Self { truth: truth.into_iter().collect(), error }
    }

    /// Geolocates a prefix. Deterministic per prefix: the same /24 always
    /// returns the same (slightly wrong) location, like a real database
    /// snapshot. Returns `None` for prefixes not in the database.
    pub fn locate(&self, prefix: Prefix24) -> Option<GeoPoint> {
        let truth = self.truth.get(&prefix)?;
        // Stable hash → error vector.
        let z = par::splitmix64_mix((prefix.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15));
        let u1 = par::unit_f64(z);
        let u2 = ((z & 0xffff_ffff) as f64) / u32::MAX as f64;
        let gross = u1 < self.error.gross_prob;
        let dist_km = if gross {
            self.error.gross_km * (0.5 + u2)
        } else {
            self.error.typical_km * (-(1.0 - u1.fract()).max(1e-9).ln())
        };
        let bearing = 2.0 * std::f64::consts::PI * u2;
        // Small-displacement approximation is fine at these scales.
        let dlat = dist_km / 111.0 * bearing.cos();
        let dlon = dist_km / (111.0 * truth.lat().to_radians().cos().max(0.1)) * bearing.sin();
        Some(GeoPoint::new(truth.lat() + dlat, truth.lon() + dlon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Geolocator {
        let truth =
            (0..500u32).map(|i| (Prefix24(i), GeoPoint::new(40.0, -74.0 + i as f64 * 0.01)));
        Geolocator::new(truth, GeolocError::default())
    }

    #[test]
    fn locate_is_deterministic() {
        let g = db();
        let a = g.locate(Prefix24(7)).expect("known");
        let b = g.locate(Prefix24(7)).expect("known");
        assert!(a.distance_km(&b) < 1e-9);
    }

    #[test]
    fn unknown_prefix_is_none() {
        assert!(db().locate(Prefix24(9999)).is_none());
    }

    #[test]
    fn typical_error_is_small_with_rare_gross_errors() {
        let g = db();
        let errs: Vec<f64> = (0..500u32)
            .map(|i| {
                g.locate(Prefix24(i))
                    .expect("known")
                    .distance_km(&g.truth[&Prefix24(i)])
            })
            .collect();
        let small = errs.iter().filter(|e| **e < 150.0).count();
        assert!(small as f64 / errs.len() as f64 > 0.9, "{small}/500 small errors");
        let gross = errs.iter().filter(|e| **e > 300.0).count();
        assert!(gross < 40, "{gross} gross errors");
    }
}
