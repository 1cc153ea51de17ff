//! `nearest` evaluates each distance once but must pick exactly what
//! `Iterator::min_by` over two distances per comparison picked: the
//! first minimum, with NaN comparing equal to everything.

use anycast_topology::nearest;
use geo::GeoPoint;
use proptest::prelude::*;
use std::cmp::Ordering;

/// The closure `serving_pop`, `nearest_interconnect` and the site pick
/// used before `nearest`.
fn min_by_index(dists: &[f64]) -> Option<usize> {
    (0..dists.len()).min_by(|&a, &b| dists[a].partial_cmp(&dists[b]).unwrap_or(Ordering::Equal))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Points on a coarse grid repeat (duplicates) and mirror each
    /// other about the reference point (exact distance ties).
    /// `GeoPoint::new` rejects NaN coordinates, so a NaN enters as the
    /// distance a NaN coordinate would give: the `nan` mask.
    #[test]
    fn nearest_picks_what_min_by_picked(
        cells in proptest::collection::vec((-3i32..=3, -3i32..=3, 0u8..8), 0..24),
        from in (-3i32..=3, -3i32..=3),
    ) {
        let from = GeoPoint::new(f64::from(from.0) * 10.0, 0.0);
        let points: Vec<(GeoPoint, bool)> = cells
            .iter()
            .map(|&(lat, lon, nan)| {
                (GeoPoint::new(f64::from(lat) * 10.0, f64::from(lon) * 10.0), nan == 0)
            })
            .collect();
        let dist = |(p, nan): &(GeoPoint, bool)| if *nan { f64::NAN } else { p.distance_km(&from) };
        let dists: Vec<f64> = points.iter().map(dist).collect();

        let picked = nearest(0..points.len(), |&i| dist(&points[i]));
        prop_assert_eq!(picked.map(|(i, _)| i), min_by_index(&dists));
        if let Some((i, d)) = picked {
            prop_assert_eq!(d.to_bits(), dists[i].to_bits());
        }
    }
}

/// The early-exit cost reuses an interconnect's distance from the
/// serving PoP, computed the other way round, so `distance_km` must be
/// symmetric bit for bit.
#[test]
fn haversine_is_symmetric_bit_for_bit() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut coord = |span: f64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * span - span
    };
    for _ in 0..100_000 {
        let a = GeoPoint::new(coord(90.0), coord(180.0));
        let b = GeoPoint::new(coord(90.0), coord(180.0));
        assert_eq!(
            a.distance_km(&b).to_bits(),
            b.distance_km(&a).to_bits(),
            "{a:?} {b:?}"
        );
    }
}
