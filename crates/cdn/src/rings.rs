//! The CDN's AS and its nested anycast rings.
//!
//! Fig. 1's structure: front-ends near user concentrations, organized
//! into rings named by size (R28 … R110) where every site in a smaller
//! ring is also in all larger rings. The CDN AS peers extensively with
//! eyeball networks and collocates front-ends with all peering locations
//! (§7.1) — which is exactly what makes its early-exit routing land
//! users at nearby sites.

use geo::region::RegionId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::gen::{ContentAsSpec, Internet};
use topology::{AnycastDeployment, AnycastSite, Asn, SiteId, SiteScope};

/// Paper ring sizes: R28, R47, R74, R95, R110 (§2.2, Fig. 1).
pub(crate) const RING_SIZES: [usize; 5] = [28, 47, 74, 95, 110];

/// CDN construction parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdnConfig {
    /// Ring sizes, ascending; the last is the full deployment and sets
    /// the number of front-end PoPs.
    pub ring_sizes: Vec<usize>,
    /// Probability of a direct peering with each eyeball AS — the
    /// "extensive peering" §7.1 credits for low inflation. The ablation
    /// bench sweeps this down to show inflation rise.
    pub eyeball_peering_prob: f64,
    /// Scale factor applied to ring sizes (tests use < 1).
    pub scale: f64,
}

impl Default for CdnConfig {
    fn default() -> Self {
        Self {
            ring_sizes: RING_SIZES.to_vec(),
            eyeball_peering_prob: 0.62,
            scale: 1.0,
        }
    }
}

impl CdnConfig {
    /// A reduced configuration for tests.
    pub fn small() -> Self {
        Self { scale: 0.2, ..Default::default() }
    }
}

/// One anycast ring.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Ring name, e.g. `"R110"` (named by its *unscaled* paper size).
    pub name: String,
    /// Number of front-ends in this ring (after scaling).
    pub size: usize,
    /// The ring's anycast deployment (all sites hosted by the CDN AS).
    /// Shared so catchments and the parallel layer never deep-clone it.
    pub deployment: Arc<AnycastDeployment>,
}

/// The built CDN.
#[derive(Debug, Clone)]
pub struct Cdn {
    /// The CDN's AS.
    pub asn: Asn,
    /// Rings, ascending by size.
    pub rings: Vec<Ring>,
}

/// Probability of peering with each hoster AS.
const HOSTER_PEERING_PROB: f64 = 0.15;

impl Cdn {
    /// Builds the CDN over `internet`: places front-end PoPs at the most
    /// populous regions (Fig. 1: "front-ends in areas of user
    /// concentration"), attaches the content AS with wide peering, and
    /// carves the nested rings.
    pub fn build(internet: &mut Internet, config: &CdnConfig) -> Self {
        assert!(!config.ring_sizes.is_empty(), "need at least one ring");
        assert!(
            config.ring_sizes.windows(2).all(|w| w[0] < w[1]),
            "ring sizes must be strictly ascending"
        );
        let scaled: Vec<usize> = config
            .ring_sizes
            .iter()
            .map(|s| ((*s as f64 * config.scale).round() as usize).max(1))
            .collect();
        let full = *scaled.last().expect("non-empty");

        // Front-end locations: top regions by population. The world may be
        // scaled below the requested count; take what exists.
        let pop_regions: Vec<RegionId> = internet
            .world
            .top_regions_by_population(full)
            .iter()
            .map(|r| r.id)
            .collect();
        let asn = internet.add_content_as(&ContentAsSpec {
            name: "cdn".into(),
            pop_regions: pop_regions.clone(),
            peer_all_tier1: true,
            peer_all_transit: true,
            eyeball_peering_prob: config.eyeball_peering_prob,
            hoster_peering_prob: HOSTER_PEERING_PROB,
            prefixes: 16,
        });
        let pops = internet.graph.node(asn).pops.clone();

        // Rings: the i-th ring is the first `scaled[i]` PoPs — PoPs are
        // already ordered by region population, so small rings sit at the
        // biggest metros, matching Fig. 1's nesting.
        let rings = scaled
            .iter()
            .zip(&config.ring_sizes)
            .map(|(&size, &paper_size)| {
                let size = size.min(pops.len());
                let sites: Vec<AnycastSite> = pops
                    .iter()
                    .take(size)
                    .enumerate()
                    .map(|(i, loc)| AnycastSite {
                        id: SiteId(i as u32),
                        name: format!("fe-{i}"),
                        host: asn,
                        location: *loc,
                        scope: SiteScope::Global,
                    })
                    .collect();
                Ring {
                    name: format!("R{paper_size}"),
                    size,
                    deployment: Arc::new(AnycastDeployment::new(
                        format!("R{paper_size}"),
                        sites,
                        vec![],
                    )),
                }
            })
            .collect();
        Self { asn, rings }
    }

    /// The largest ring (the default serving ring).
    pub fn largest_ring(&self) -> &Ring {
        self.rings.last().expect("rings non-empty")
    }

    /// Position of the ring named `name` in [`Cdn::rings`].
    pub fn ring_index(&self, name: &str) -> Option<usize> {
        self.rings.iter().position(|r| r.name == name)
    }

    /// A stable *universe id* for every site of `ring`: its id in the
    /// largest ring. Because rings nest, every site of every ring is
    /// present there, so the universe id identifies one physical
    /// front-end across all rings — the identity the dynamics engine's
    /// deployment swaps re-key per-user state through.
    ///
    /// # Panics
    ///
    /// Panics when a site of `ring` has no counterpart in the largest
    /// ring (the ring is not from this CDN).
    pub fn ring_universe(&self, ring: &Ring) -> Vec<u32> {
        site_remap(&ring.deployment, &self.largest_ring().deployment)
            .iter()
            .map(|m| m.expect("rings nest inside the largest ring").0)
            .collect()
    }
}

/// A stable `SiteId → SiteId` mapping between two deployments of one
/// CDN AS: entry `i` is the id in `to` of the site `from.sites[i]`
/// (matched by host AS and physical location), or `None` when that
/// front-end is not part of `to`. For nested rings this is how a
/// promotion/demotion carries per-site state across the swap.
pub(crate) fn site_remap(from: &AnycastDeployment, to: &AnycastDeployment) -> Vec<Option<SiteId>> {
    from.sites
        .iter()
        .map(|s| {
            to.sites
                .iter()
                .find(|t| t.host == s.host && t.location.distance_km(&s.location) < 1e-6)
                .map(|t| t.id)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{InternetGenerator, TopologyConfig};

    fn build_small() -> (Internet, Cdn) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(31));
        let cdn = Cdn::build(&mut net, &CdnConfig::small());
        (net, cdn)
    }

    #[test]
    fn five_nested_rings() {
        let (_, cdn) = build_small();
        assert_eq!(cdn.rings.len(), 5);
        for w in cdn.rings.windows(2) {
            assert!(w[0].size <= w[1].size);
            // Nesting: every site of the smaller ring appears at the same
            // location in the larger ring.
            for (a, b) in w[0].deployment.sites.iter().zip(&w[1].deployment.sites) {
                assert!(a.location.distance_km(&b.location) < 1e-9);
            }
        }
        assert_eq!(cdn.rings[0].name, "R28");
        assert_eq!(cdn.largest_ring().name, "R110");
    }

    #[test]
    fn all_sites_hosted_by_cdn_as() {
        let (_, cdn) = build_small();
        for ring in &cdn.rings {
            for site in &ring.deployment.sites {
                assert_eq!(site.host, cdn.asn);
                assert_eq!(site.scope, SiteScope::Global);
            }
        }
    }

    #[test]
    fn front_ends_sit_at_populous_regions() {
        let (net, cdn) = build_small();
        // The first front-end is at the single most populous region.
        let top = net.world.top_regions_by_population(1)[0].center;
        let fe0 = cdn.rings[0].deployment.sites[0].location;
        assert!(fe0.distance_km(&top) < 1.0);
    }

    #[test]
    fn site_remap_is_identity_on_the_nested_prefix() {
        let (_, cdn) = build_small();
        let small = &cdn.rings[1].deployment;
        let big = &cdn.rings[3].deployment;
        // Promotion direction: every site of the smaller ring maps to
        // the same index of the larger one (prefix nesting).
        let up = site_remap(small, big);
        assert_eq!(up.len(), small.sites.len());
        for (i, m) in up.iter().enumerate() {
            assert_eq!(*m, Some(SiteId(i as u32)));
        }
        // Demotion direction: the shared prefix maps back, the tail of
        // the larger ring maps to nothing.
        let down = site_remap(big, small);
        for (i, m) in down.iter().enumerate() {
            if i < small.sites.len() {
                assert_eq!(*m, Some(SiteId(i as u32)));
            } else {
                assert_eq!(*m, None, "site {i} is not in the smaller ring");
            }
        }
    }

    #[test]
    fn ring_universe_is_consistent_across_rings() {
        let (_, cdn) = build_small();
        for ring in &cdn.rings {
            let uni = cdn.ring_universe(ring);
            assert_eq!(uni.len(), ring.deployment.sites.len());
            // Universe ids are unique within a ring…
            let mut sorted = uni.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), uni.len());
            // …and two rings agree on the identity of a shared site.
            let largest = cdn.largest_ring();
            for (i, &u) in uni.iter().enumerate() {
                let a = &ring.deployment.sites[i];
                let b = &largest.deployment.sites[u as usize];
                assert!(a.location.distance_km(&b.location) < 1e-9);
            }
        }
        assert_eq!(cdn.ring_index("R74"), Some(2));
        assert_eq!(cdn.ring_index("R9"), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_rings_panic() {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(32));
        let cfg = CdnConfig { ring_sizes: vec![10, 5], ..CdnConfig::small() };
        Cdn::build(&mut net, &cfg);
    }
}
