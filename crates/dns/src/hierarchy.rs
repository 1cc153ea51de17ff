//! The authoritative hierarchy below the root: TLD anycast deployments.
//!
//! The paper's closing argument (§7.3.2) is that anycast must be judged
//! in the context of its service — root DNS and a CDN being two points
//! on the spectrum. TLD authoritative service is a *third* point the
//! paper mentions only in passing (resolvers walk "from root, to
//! top-level domain, and down the tree"): TLD servers are queried on
//! every SLD cache miss — orders of magnitude more often than the roots
//! — and the big TLDs run some of the largest anycast deployments in
//! existence. This module builds them:
//!
//! * the **com-like** cluster: the top gTLDs behind a Verisign-style
//!   operator AS with wide peering and sites at major metros,
//! * **ccTLD** deployments: regional anycast at each continent's
//!   transits, one operator per continent,
//! * the **long-tail cluster**: the remaining gTLDs consolidated onto a
//!   shared hoster-based anycast platform (as back-end registry
//!   operators do in reality).
//!
//! [`DnsHierarchy::tld_rtts_for`] turns the deployments into the
//! per-TLD RTT vector a recursive at a given location would observe —
//! replacing the flat constant the resolver model otherwise uses.

use crate::zone::RootZone;
use geo::GeoPoint;
use rand::seq::SliceRandom;
use rand::Rng;
use topology::gen::{ContentAsSpec, Internet};
use std::sync::Arc;
use topology::{AnycastDeployment, AnycastSite, Catchment, ExportScope, RouteCache, SiteId};

/// One TLD operator platform: an anycast deployment serving a set of
/// TLD indices.
#[derive(Debug, Clone)]
pub(crate) struct TldPlatform {
    /// The anycast deployment (shared, never deep-cloned); its name is
    /// the platform's (e.g. `"com-platform"`).
    pub(crate) deployment: Arc<AnycastDeployment>,
    /// Indices into the root zone's TLD list served by this platform.
    pub(crate) tlds: Vec<usize>,
}

/// All TLD platforms for one zone.
#[derive(Debug, Clone)]
pub struct DnsHierarchy {
    /// The platforms; every TLD in the zone is served by exactly one.
    pub(crate) platforms: Vec<TldPlatform>,
    /// Per-TLD platform index (same length as the zone's TLD list).
    pub(crate) platform_of_tld: Vec<usize>,
}

impl DnsHierarchy {
    /// Builds the TLD platforms over `internet` for `zone`, scaling site
    /// counts by `scale`.
    pub fn build(internet: &mut Internet, zone: &RootZone, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut rng = internet.derive_rng(0x71d_0000_0001);
        let mut platforms: Vec<TldPlatform> = Vec::new();
        let mut platform_of_tld = vec![usize::MAX; zone.len()];

        // --- com-like: top 3 gTLDs on a Verisign-style wide platform ---
        let n_sites = ((90.0 * scale).round() as usize).max(3);
        let pop_regions: Vec<geo::region::RegionId> = internet
            .world
            .top_regions_by_population(n_sites)
            .iter()
            .map(|r| r.id)
            .collect();
        let registry_asn = internet.add_content_as(&ContentAsSpec {
            name: "com-registry".into(),
            pop_regions,
            peer_all_tier1: true,
            peer_all_transit: true,
            eyeball_peering_prob: 0.4,
            hoster_peering_prob: 0.05,
            prefixes: 4,
        });
        let pops = internet.graph.node(registry_asn).pops.clone();
        let sites: Vec<AnycastSite> = pops
            .iter()
            .enumerate()
            .map(|(i, loc)| AnycastSite {
                id: SiteId(i as u32),
                name: format!("com-site-{i}"),
                host: registry_asn,
                location: *loc,
                scope: ExportScope::Global,
            })
            .collect();
        let com_platform = platforms.len();
        platforms.push(TldPlatform {
            deployment: Arc::new(AnycastDeployment::new("com-platform", sites, vec![])),
            tlds: Vec::new(),
        });
        for idx in 0..3.min(zone.len()) {
            platform_of_tld[idx] = com_platform;
        }

        // --- ccTLDs: one regional platform per continent ----------------
        // Country TLDs in the synthetic zone are the two-letter heads
        // after the big three (de, uk, cn, …); map each to the continent
        // platform nearest a random anchor.
        let mut continent_platforms: Vec<(geo::Continent, usize)> = Vec::new();
        for continent in geo::Continent::ALL {
            if continent == geo::Continent::Antarctica {
                continue;
            }
            let transits: Vec<_> = internet
                .transits
                .iter()
                .copied()
                .filter(|t| {
                    internet.graph.node(*t).name.contains(continent.name())
                })
                .collect();
            if transits.is_empty() {
                continue;
            }
            let n = ((8.0 * scale).round() as usize).max(1);
            let mut sites = Vec::new();
            for i in 0..n {
                let host = transits[i % transits.len()];
                let pops = internet.graph.node(host).pops.clone();
                let loc = pops[i % pops.len()];
                sites.push(AnycastSite {
                    id: SiteId(sites.len() as u32),
                    name: format!("cc-{}-{i}", continent.name()),
                    host,
                    location: loc,
                    scope: ExportScope::Global,
                });
            }
            let idx = platforms.len();
            platforms.push(TldPlatform {
                deployment: Arc::new(AnycastDeployment::new(
                    format!("cctld-{}", continent.name()),
                    sites,
                    vec![],
                )),
                tlds: Vec::new(),
            });
            continent_platforms.push((continent, idx));
        }
        for idx in 3..zone.len().min(25) {
            // Two-letter heads: assign to a random continental platform.
            let (_, p) = continent_platforms[rng.gen_range(0..continent_platforms.len())];
            platform_of_tld[idx] = p;
        }

        // --- long tail: shared hoster platform ---------------------------
        let mut hosters = internet.hosters.clone();
        hosters.shuffle(&mut rng);
        let n_tail_sites = ((20.0 * scale).round() as usize).max(2);
        let tail_sites: Vec<AnycastSite> = hosters
            .iter()
            .take(n_tail_sites)
            .enumerate()
            .map(|(i, h)| AnycastSite {
                id: SiteId(i as u32),
                name: format!("tail-{i}"),
                host: *h,
                location: internet.graph.node(*h).pops[0],
                scope: ExportScope::Global,
            })
            .collect();
        let tail_platform = platforms.len();
        platforms.push(TldPlatform {
            deployment: Arc::new(AnycastDeployment::new("gtld-tail", tail_sites, vec![])),
            tlds: Vec::new(),
        });
        for slot in platform_of_tld.iter_mut() {
            if *slot == usize::MAX {
                *slot = tail_platform;
            }
        }

        // Back-fill platform → TLD lists.
        for (tld, platform) in platform_of_tld.iter().enumerate() {
            platforms[*platform].tlds.push(tld);
        }
        Self { platforms, platform_of_tld }
    }

    /// Per-TLD RTTs a recursive at (`asn`, `location`) would observe, ms.
    /// Unreachable platforms yield `f64::INFINITY` for their TLDs.
    pub fn tld_rtts_for(
        &self,
        internet: &Internet,
        cache: &mut RouteCache,
        model: &netsim::LatencyModel,
        asn: topology::Asn,
        location: &GeoPoint,
    ) -> Vec<f64> {
        let mut per_platform = Vec::with_capacity(self.platforms.len());
        for platform in &self.platforms {
            let catchment = Catchment::compute(
                &internet.graph,
                Arc::clone(&platform.deployment),
                cache,
            );
            let rtt = catchment
                .assign(asn, location)
                .map(|a| {
                    model.median_rtt_ms(&netsim::PathProfile::from_assignment(
                        &a,
                        netsim::LastMile::None,
                    ))
                })
                .unwrap_or(f64::INFINITY);
            per_platform.push(rtt);
        }
        self.platform_of_tld.iter().map(|p| per_platform[*p]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{AsKind, InternetGenerator, TopologyConfig};

    fn build() -> (Internet, RootZone, DnsHierarchy) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(131));
        let zone = RootZone::generate(1, 200);
        let h = DnsHierarchy::build(&mut net, &zone, 0.2);
        (net, zone, h)
    }

    #[test]
    fn every_tld_has_exactly_one_platform() {
        let (_, zone, h) = build();
        assert_eq!(h.platform_of_tld.len(), zone.len());
        assert!(h.platform_of_tld.iter().all(|p| *p < h.platforms.len()));
        let covered: usize = h.platforms.iter().map(|p| p.tlds.len()).sum();
        assert_eq!(covered, zone.len());
    }

    #[test]
    fn com_runs_on_the_wide_platform() {
        let (net, zone, h) = build();
        let com = zone.find("com").expect("com exists");
        let platform = &h.platforms[h.platform_of_tld[com]];
        assert_eq!(platform.deployment.name, "com-platform");
        for site in &platform.deployment.sites {
            assert_eq!(net.graph.node(site.host).kind, AsKind::Content);
        }
        // The com platform dwarfs the tail platform.
        let tail = h.platforms.last().expect("tail platform");
        assert!(platform.deployment.total_site_count() >= tail.deployment.total_site_count());
    }

    #[test]
    fn cctlds_run_on_regional_transit_platforms() {
        let (net, zone, h) = build();
        let de = zone.find("de").expect("de exists");
        let platform = &h.platforms[h.platform_of_tld[de]];
        assert!(platform.deployment.name.starts_with("cctld-"), "{}", platform.deployment.name);
        for site in &platform.deployment.sites {
            assert_eq!(net.graph.node(site.host).kind, AsKind::Transit);
        }
    }

    #[test]
    fn tld_rtts_are_finite_and_head_beats_tail_for_most() {
        let (net, zone, h) = build();
        let model = netsim::LatencyModel::default();
        let mut cache = RouteCache::new();
        let mut head_better = 0;
        let mut total = 0;
        for loc in net.user_locations().iter().take(25) {
            let p = net.world.region(loc.region).center;
            let rtts = h.tld_rtts_for(&net, &mut cache, &model, loc.asn, &p);
            assert_eq!(rtts.len(), zone.len());
            let com = rtts[0];
            let tail = rtts[zone.len() - 1];
            if com.is_finite() && tail.is_finite() {
                total += 1;
                if com <= tail + 1.0 {
                    head_better += 1;
                }
            }
        }
        assert!(total > 10);
        // The wide com platform should win for a clear majority.
        assert!(
            head_better as f64 / total as f64 > 0.6,
            "{head_better}/{total}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let (_, _, a) = build();
        let (_, _, b) = build();
        assert_eq!(a.platform_of_tld, b.platform_of_tld);
        for (x, y) in a.platforms.iter().zip(&b.platforms) {
            assert_eq!(x.deployment.sites.len(), y.deployment.sites.len());
        }
    }
}
