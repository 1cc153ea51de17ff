//! Latitude/longitude points and great-circle geometry.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometers (IUGG R1).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A point on the Earth's surface.
///
/// Latitude is degrees north in `[-90, 90]`, longitude is degrees east in
/// `[-180, 180]`. Constructors normalize longitude and clamp latitude so
/// arithmetic (jitter, offsets) can never produce an invalid point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude to `[-90, 90]` and wrapping
    /// longitude into `[-180, 180]`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is NaN — a NaN coordinate is always a
    /// logic error upstream, and letting it propagate would poison every
    /// distance computation downstream.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(!lat.is_nan() && !lon.is_nan(), "NaN coordinate");
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        if lon == -180.0 {
            lon = 180.0;
        }
        Self { lat, lon }
    }

    /// Latitude in degrees north.
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees east.
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Great-circle distance to `other` in kilometers (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        // Clamp guards against tiny negative/super-unit values from FP error.
        2.0 * EARTH_RADIUS_KM * a.sqrt().clamp(0.0, 1.0).asin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nyc() -> GeoPoint {
        GeoPoint::new(40.7128, -74.0060)
    }
    fn london() -> GeoPoint {
        GeoPoint::new(51.5074, -0.1278)
    }

    #[test]
    fn distance_to_self_is_zero() {
        assert!(nyc().distance_km(&nyc()) < 1e-9);
    }

    #[test]
    fn nyc_london_distance_matches_reference() {
        // Reference great-circle distance is ~5570 km.
        let d = nyc().distance_km(&london());
        assert!((d - 5570.0).abs() < 20.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        assert!((nyc().distance_km(&london()) - london().distance_km(&nyc())).abs() < 1e-9);
    }

    #[test]
    fn longitude_wraps() {
        let p = GeoPoint::new(0.0, 190.0);
        assert!((p.lon() - (-170.0)).abs() < 1e-9);
        let q = GeoPoint::new(0.0, -190.0);
        assert!((q.lon() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn latitude_clamps() {
        assert_eq!(GeoPoint::new(95.0, 0.0).lat(), 90.0);
        assert_eq!(GeoPoint::new(-95.0, 0.0).lat(), -90.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_latitude_panics() {
        GeoPoint::new(f64::NAN, 0.0);
    }
}
