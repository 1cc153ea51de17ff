//! Property tests for spherical geometry: the metric axioms and the
//! coordinate normalization every distance-based analysis depends on.

use anycast_geo::coord::EARTH_RADIUS_KM;
use anycast_geo::GeoPoint;
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-90.0f64..90.0, -180.0f64..180.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

proptest! {
    #[test]
    fn distance_is_symmetric(a in arb_point(), b in arb_point()) {
        let d1 = a.distance_km(&b);
        let d2 = b.distance_km(&a);
        prop_assert!((d1 - d2).abs() < 1e-6);
    }

    #[test]
    fn distance_is_nonnegative_and_bounded(a in arb_point(), b in arb_point()) {
        let d = a.distance_km(&b);
        prop_assert!(d >= 0.0);
        // No two points are farther apart than half the circumference.
        prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1.0);
    }

    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        // Great-circle distance is a metric on the sphere.
        prop_assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
    }

    #[test]
    fn identity_of_indiscernibles(a in arb_point()) {
        prop_assert!(a.distance_km(&a) < 1e-9);
    }

    #[test]
    fn constructor_normalizes_any_longitude(lat in -90.0f64..90.0, lon in -1e4f64..1e4) {
        let p = GeoPoint::new(lat, lon);
        prop_assert!((-180.0..=180.0).contains(&p.lon()));
        // Normalization preserves the physical point.
        let q = GeoPoint::new(lat, lon + 360.0);
        prop_assert!(p.distance_km(&q) < 1e-6);
    }
}
