//! Deterministic synthetic world map.
//!
//! The paper's user population lives in 508 Microsoft-internal regions
//! concentrated around real metros (Fig. 1 shows front-ends deployed near
//! user concentrations). [`WorldMap::generate_scaled`] reproduces that structure:
//! anchor metros at real-world coordinates seed per-continent clusters of
//! jittered satellite regions with heavy-tailed population weights.
//!
//! The generator is fully deterministic given a seed, so every experiment
//! in the reproduction can rebuild the identical world.

use crate::coord::GeoPoint;
use crate::region::{Continent, Region, RegionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An anchor metro: a real-world population center used to seed a cluster
/// of synthetic regions.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    name: &'static str,
    lat: f64,
    lon: f64,
    /// Relative pull: how many of the continent's regions cluster here and
    /// how much population weight the cluster carries.
    pull: f64,
    continent: Continent,
}

/// Real-world anchor metros. Coordinates are approximate city centers; the
/// set is chosen for geographic spread rather than completeness — satellite
/// generation fills in the rest of each continent.
const ANCHORS: &[Anchor] = &[
    // North America
    Anchor { name: "NewYork", lat: 40.71, lon: -74.01, pull: 3.0, continent: Continent::NorthAmerica },
    Anchor { name: "LosAngeles", lat: 34.05, lon: -118.24, pull: 2.5, continent: Continent::NorthAmerica },
    Anchor { name: "Chicago", lat: 41.88, lon: -87.63, pull: 2.0, continent: Continent::NorthAmerica },
    Anchor { name: "Dallas", lat: 32.78, lon: -96.80, pull: 1.5, continent: Continent::NorthAmerica },
    Anchor { name: "Seattle", lat: 47.61, lon: -122.33, pull: 1.5, continent: Continent::NorthAmerica },
    Anchor { name: "Toronto", lat: 43.65, lon: -79.38, pull: 1.5, continent: Continent::NorthAmerica },
    Anchor { name: "MexicoCity", lat: 19.43, lon: -99.13, pull: 2.0, continent: Continent::NorthAmerica },
    Anchor { name: "Miami", lat: 25.76, lon: -80.19, pull: 1.2, continent: Continent::NorthAmerica },
    Anchor { name: "Denver", lat: 39.74, lon: -104.99, pull: 1.0, continent: Continent::NorthAmerica },
    Anchor { name: "Vancouver", lat: 49.28, lon: -123.12, pull: 0.8, continent: Continent::NorthAmerica },
    // South America
    Anchor { name: "SaoPaulo", lat: -23.55, lon: -46.63, pull: 3.0, continent: Continent::SouthAmerica },
    Anchor { name: "BuenosAires", lat: -34.60, lon: -58.38, pull: 2.0, continent: Continent::SouthAmerica },
    Anchor { name: "Bogota", lat: 4.71, lon: -74.07, pull: 1.5, continent: Continent::SouthAmerica },
    Anchor { name: "Lima", lat: -12.05, lon: -77.04, pull: 1.2, continent: Continent::SouthAmerica },
    Anchor { name: "Santiago", lat: -33.45, lon: -70.67, pull: 1.0, continent: Continent::SouthAmerica },
    // Europe
    Anchor { name: "London", lat: 51.51, lon: -0.13, pull: 3.0, continent: Continent::Europe },
    Anchor { name: "Paris", lat: 48.86, lon: 2.35, pull: 2.2, continent: Continent::Europe },
    Anchor { name: "Frankfurt", lat: 50.11, lon: 8.68, pull: 2.2, continent: Continent::Europe },
    Anchor { name: "Amsterdam", lat: 52.37, lon: 4.90, pull: 1.8, continent: Continent::Europe },
    Anchor { name: "Madrid", lat: 40.42, lon: -3.70, pull: 1.4, continent: Continent::Europe },
    Anchor { name: "Milan", lat: 45.46, lon: 9.19, pull: 1.4, continent: Continent::Europe },
    Anchor { name: "Warsaw", lat: 52.23, lon: 21.01, pull: 1.2, continent: Continent::Europe },
    Anchor { name: "Stockholm", lat: 59.33, lon: 18.07, pull: 1.0, continent: Continent::Europe },
    Anchor { name: "Moscow", lat: 55.76, lon: 37.62, pull: 1.8, continent: Continent::Europe },
    Anchor { name: "Istanbul", lat: 41.01, lon: 28.98, pull: 1.6, continent: Continent::Europe },
    // Africa
    Anchor { name: "Lagos", lat: 6.52, lon: 3.38, pull: 2.5, continent: Continent::Africa },
    Anchor { name: "Cairo", lat: 30.04, lon: 31.24, pull: 2.2, continent: Continent::Africa },
    Anchor { name: "Johannesburg", lat: -26.20, lon: 28.05, pull: 2.0, continent: Continent::Africa },
    Anchor { name: "Nairobi", lat: -1.29, lon: 36.82, pull: 1.4, continent: Continent::Africa },
    Anchor { name: "Casablanca", lat: 33.57, lon: -7.59, pull: 1.0, continent: Continent::Africa },
    Anchor { name: "Accra", lat: 5.60, lon: -0.19, pull: 0.9, continent: Continent::Africa },
    // Asia
    Anchor { name: "Tokyo", lat: 35.68, lon: 139.69, pull: 3.0, continent: Continent::Asia },
    Anchor { name: "Singapore", lat: 1.35, lon: 103.82, pull: 2.0, continent: Continent::Asia },
    Anchor { name: "HongKong", lat: 22.32, lon: 114.17, pull: 2.0, continent: Continent::Asia },
    Anchor { name: "Mumbai", lat: 19.08, lon: 72.88, pull: 2.8, continent: Continent::Asia },
    Anchor { name: "Delhi", lat: 28.70, lon: 77.10, pull: 2.6, continent: Continent::Asia },
    Anchor { name: "Seoul", lat: 37.57, lon: 126.98, pull: 1.8, continent: Continent::Asia },
    Anchor { name: "Shanghai", lat: 31.23, lon: 121.47, pull: 2.4, continent: Continent::Asia },
    Anchor { name: "Jakarta", lat: -6.21, lon: 106.85, pull: 2.0, continent: Continent::Asia },
    Anchor { name: "Dubai", lat: 25.20, lon: 55.27, pull: 1.2, continent: Continent::Asia },
    Anchor { name: "TelAviv", lat: 32.09, lon: 34.78, pull: 0.9, continent: Continent::Asia },
    // Oceania
    Anchor { name: "Sydney", lat: -33.87, lon: 151.21, pull: 2.5, continent: Continent::Oceania },
    Anchor { name: "Melbourne", lat: -37.81, lon: 144.96, pull: 2.0, continent: Continent::Oceania },
    Anchor { name: "Auckland", lat: -36.85, lon: 174.76, pull: 1.0, continent: Continent::Oceania },
    Anchor { name: "Perth", lat: -31.95, lon: 115.86, pull: 0.8, continent: Continent::Oceania },
    // Antarctica (research stations; the paper's census has 2 regions here)
    Anchor { name: "McMurdo", lat: -77.85, lon: 166.67, pull: 1.0, continent: Continent::Antarctica },
    Anchor { name: "Rothera", lat: -67.57, lon: -68.13, pull: 1.0, continent: Continent::Antarctica },
];

/// A deterministic synthetic world: a set of regions with population
/// weights, clustered around real-world anchor metros.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldMap {
    regions: Vec<Region>,
}

impl WorldMap {
    /// Generates a world with region counts scaled by `scale` (at least one
    /// region per continent). Tests use `scale < 1` for speed;
    /// the full reproduction uses `scale = 1.0` (508 regions).
    pub fn generate_scaled(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut regions = Vec::new();
        for continent in Continent::ALL {
            let target = ((continent.paper_region_count() as f64 * scale).round() as u32).max(1);
            let anchors: Vec<&Anchor> =
                ANCHORS.iter().filter(|a| a.continent == continent).collect();
            let total_pull: f64 = anchors.iter().map(|a| a.pull).sum();
            let mut emitted = 0u32;
            for (ai, anchor) in anchors.iter().enumerate() {
                // Allocate regions to anchors proportionally to pull; the
                // last anchor absorbs rounding remainder.
                let share = if ai + 1 == anchors.len() {
                    target - emitted
                } else {
                    ((target as f64 * anchor.pull / total_pull).round() as u32)
                        .min(target - emitted)
                };
                for k in 0..share {
                    let id = RegionId(regions.len() as u32);
                    let center = if k == 0 {
                        // The anchor metro itself is always a region.
                        GeoPoint::new(anchor.lat, anchor.lon)
                    } else {
                        // Satellites: jitter within a few hundred km,
                        // occasionally far (secondary cities).
                        let far = rng.gen_bool(0.25);
                        let spread = if far { 12.0 } else { 3.5 };
                        GeoPoint::new(
                            anchor.lat + rng.gen_range(-spread..spread),
                            anchor.lon + rng.gen_range(-spread..spread) * 1.3,
                        )
                    };
                    // Heavy-tailed population weight: anchor metros are
                    // large, satellites follow a Pareto-like tail.
                    let base = if k == 0 { 30.0 * anchor.pull } else { 1.0 };
                    let pareto = (1.0 - rng.gen::<f64>()).powf(-0.6);
                    let population_weight = base * pareto.min(50.0);
                    regions.push(Region {
                        id,
                        name: format!("{}/{}/metro{}", continent.name(), anchor.name, k),
                        center,
                        continent,
                        population_weight,
                    });
                    emitted += 1;
                }
            }
            // If pull-proportional rounding under-allocated, fill from the
            // heaviest anchor.
            while emitted < target {
                let anchor = anchors[0];
                let id = RegionId(regions.len() as u32);
                regions.push(Region {
                    id,
                    name: format!("{}/{}/extra{}", continent.name(), anchor.name, emitted),
                    center: GeoPoint::new(
                        anchor.lat + rng.gen_range(-3.5..3.5),
                        anchor.lon + rng.gen_range(-4.5..4.5),
                    ),
                    continent,
                    population_weight: (1.0 - rng.gen::<f64>()).powf(-0.6).min(50.0),
                });
                emitted += 1;
            }
        }
        Self { regions }
    }

    /// All regions, ordered by [`RegionId`].
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Looks up a region by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this map.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Total population weight across all regions.
    pub fn total_population_weight(&self) -> f64 {
        self.regions.iter().map(|r| r.population_weight).sum()
    }

    /// The `n` regions with the largest population weight, descending.
    /// Ties break on id so the result is deterministic.
    pub fn top_regions_by_population(&self, n: usize) -> Vec<&Region> {
        let mut rs: Vec<&Region> = self.regions.iter().collect();
        rs.sort_by(|a, b| {
            b.population_weight
                .partial_cmp(&a.population_weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        rs.truncate(n);
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_world_has_508_regions() {
        let w = WorldMap::generate_scaled(1, 1.0);
        assert_eq!(w.regions().len(), 508);
    }

    #[test]
    fn continent_census_matches_paper() {
        let w = WorldMap::generate_scaled(2, 1.0);
        for c in Continent::ALL {
            let n = w.regions().iter().filter(|r| r.continent == c).count() as u32;
            assert_eq!(n, c.paper_region_count(), "{}", c.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorldMap::generate_scaled(42, 1.0);
        let b = WorldMap::generate_scaled(42, 1.0);
        for (ra, rb) in a.regions().iter().zip(b.regions()) {
            assert_eq!(ra.name, rb.name);
            assert!(ra.center.distance_km(&rb.center) < 1e-9);
            assert_eq!(ra.population_weight, rb.population_weight);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorldMap::generate_scaled(1, 1.0);
        let b = WorldMap::generate_scaled(2, 1.0);
        let same = a
            .regions()
            .iter()
            .zip(b.regions())
            .all(|(x, y)| x.center.distance_km(&y.center) < 1e-9);
        assert!(!same);
    }

    #[test]
    fn scaled_world_is_smaller_but_covers_all_continents() {
        let w = WorldMap::generate_scaled(3, 0.1);
        assert!(w.regions().len() < 100);
        for c in Continent::ALL {
            assert!(
                w.regions().iter().any(|r| r.continent == c),
                "missing {}",
                c.name()
            );
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let w = WorldMap::generate_scaled(4, 1.0);
        for (i, r) in w.regions().iter().enumerate() {
            assert_eq!(r.id.0 as usize, i);
        }
    }

    #[test]
    fn population_weights_positive_and_heavy_tailed() {
        let w = WorldMap::generate_scaled(5, 1.0);
        assert!(w.regions().iter().all(|r| r.population_weight > 0.0));
        let total = w.total_population_weight();
        let top = w.top_regions_by_population(50);
        let top_sum: f64 = top.iter().map(|r| r.population_weight).sum();
        // Top ~10% of regions carry a majority of the weight.
        assert!(top_sum / total > 0.5, "top50 share = {}", top_sum / total);
    }

    #[test]
    #[should_panic]
    fn zero_scale_panics() {
        WorldMap::generate_scaled(0, 0.0);
    }
}
