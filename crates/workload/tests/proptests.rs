//! Property tests for dataset synthesis: conservation, determinism, and
//! bias bounds.

use proptest::prelude::*;
use topology::{InternetGenerator, Prefix24, TopologyConfig};
use anycast_workload::geoloc::{GeolocError, Geolocator};
use anycast_workload::users::{UserConfig, UserPopulation};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn user_mass_is_conserved_through_synthesis(seed in 0u64..200, total in 1e4f64..1e8) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let pop = UserPopulation::synthesize(
            &mut net,
            &UserConfig { total_users: total },
        );
        // Locations sum to the configured total…
        let loc_total = pop.total_users();
        prop_assert!((loc_total - total).abs() / total < 1e-6);
        // …and recursives carry exactly the same mass.
        let rec_total: f64 = pop.recursives.iter().map(|r| r.users).sum();
        prop_assert!((rec_total - total).abs() / total < 1e-6);
    }

    #[test]
    fn cdn_view_is_an_undercount_apnic_view_is_unbiased_in_aggregate(seed in 0u64..200) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let pop = UserPopulation::synthesize(
            &mut net,
            &UserConfig { total_users: 1e6 },
        );
        let cdn_total: f64 = pop.cdn_user_counts(seed).by_ip.values().sum();
        prop_assert!(cdn_total < 1e6, "CDN counts must undercount ({cdn_total})");
        prop_assert!(cdn_total > 0.0);
        let apnic_total: f64 = pop.apnic_user_counts(seed).by_asn.values().sum();
        // Lognormal noise is unbiased-ish in aggregate: within 3×.
        prop_assert!((1e6 / 3.0..1e6 * 3.0).contains(&apnic_total), "{apnic_total}");
    }
}

proptest! {
    #[test]
    fn geolocation_is_stable_and_bounded(prefix in 0u32..100_000) {
        let truth = geo::GeoPoint::new(10.0, 20.0);
        let g = Geolocator::new(vec![(Prefix24(prefix), truth)], GeolocError::default());
        let a = g.locate(Prefix24(prefix)).expect("known");
        let b = g.locate(Prefix24(prefix)).expect("known");
        prop_assert!(a.distance_km(&b) < 1e-9, "non-deterministic geolocation");
        // Error is bounded by the gross-error ceiling.
        prop_assert!(a.distance_km(&truth) < 1300.0, "error {}", a.distance_km(&truth));
    }
}
