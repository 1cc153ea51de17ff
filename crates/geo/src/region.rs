//! Regions: the geographic half of the paper's ⟨region, AS⟩ user location.
//!
//! Microsoft internally breaks the world into 508 regions that generate
//! similar amounts of traffic — "a region often corresponds to a large
//! metropolitan area" (§2.2). [`Region`] models one such metro;
//! [`crate::world::WorldMap`] generates the full set.

use crate::coord::GeoPoint;
use serde::{Deserialize, Serialize};

/// Identifier of a [`Region`] — an index into [`crate::world::WorldMap::regions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub(crate) u32);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region-{}", self.0)
    }
}

/// The seven continents used by the paper's region census (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Continent {
    /// Africa.
    Africa,
    /// Antarctica (the census really does have 2 regions here).
    Antarctica,
    /// Asia.
    Asia,
    /// Europe.
    Europe,
    /// North America.
    NorthAmerica,
    /// Oceania.
    Oceania,
    /// South America.
    SouthAmerica,
}

impl Continent {
    /// All continents, in a stable order.
    pub const ALL: [Continent; 7] = [
        Continent::Africa,
        Continent::Antarctica,
        Continent::Asia,
        Continent::Europe,
        Continent::NorthAmerica,
        Continent::Oceania,
        Continent::SouthAmerica,
    ];

    /// Number of Microsoft regions on this continent per §2.2
    /// (135 Europe, 62 Africa, 102 Asia, 2 Antarctica, 137 North America,
    /// 41 South America, 29 Oceania — 508 total).
    pub(crate) fn paper_region_count(&self) -> u32 {
        match self {
            Continent::Africa => 62,
            Continent::Antarctica => 2,
            Continent::Asia => 102,
            Continent::Europe => 135,
            Continent::NorthAmerica => 137,
            Continent::Oceania => 29,
            Continent::SouthAmerica => 41,
        }
    }

    /// Short ASCII name, used in rendered tables.
    pub fn name(&self) -> &'static str {
        match self {
            Continent::Africa => "Africa",
            Continent::Antarctica => "Antarctica",
            Continent::Asia => "Asia",
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::Oceania => "Oceania",
            Continent::SouthAmerica => "South America",
        }
    }
}

/// A metropolitan-area-sized region with a representative center point and
/// an Internet-user population weight.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    /// Stable identifier (index into the world map's region list).
    pub id: RegionId,
    /// Human-readable name, e.g. `"Europe/anchor3/metro12"`.
    pub name: String,
    /// Representative center of the region.
    pub center: GeoPoint,
    /// Continent the region belongs to.
    pub continent: Continent,
    /// Relative Internet-user population weight (heavy-tailed across
    /// regions; absolute user counts are assigned by the workload crate).
    pub population_weight: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_region_counts_sum_to_508() {
        let total: u32 = Continent::ALL.iter().map(|c| c.paper_region_count()).sum();
        assert_eq!(total, 508);
    }

    #[test]
    fn region_id_display() {
        assert_eq!(RegionId(7).to_string(), "region-7");
    }

    #[test]
    fn continent_names_unique() {
        let mut names: Vec<_> = Continent::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
