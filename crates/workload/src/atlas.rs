//! The RIPE-Atlas-style probe panel.
//!
//! The paper leans on Atlas where its proprietary data can't be shared
//! (ring latencies, Fig. 4a) or where it needs traceroutes (AS path
//! lengths, Fig. 6) — while repeatedly cautioning that Atlas coverage
//! "is not representative" \[10\]. The panel here reproduces both the
//! utility and the bias: probes are drawn from ⟨region, AS⟩ locations
//! with a strong skew toward Europe/North America and well-connected
//! networks.

use geo::region::RegionId;
use geo::Continent;
use netsim::{ping, traceroute, LastMile, LatencyModel, PathProfile, TracerouteHop};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use topology::gen::Internet;
use topology::{AnycastDeployment, Asn, Catchment, RouteCache};

/// One Atlas probe.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Probe {
    /// Region the probe sits in.
    pub region: RegionId,
    /// Hosting AS.
    pub asn: Asn,
}

/// The probe panel.
#[derive(Debug, Clone)]
pub struct AtlasPanel {
    /// Probes, id-ordered.
    pub probes: Vec<Probe>,
}

impl AtlasPanel {
    /// Recruits up to `n` probes over the Internet's user locations with
    /// Atlas's geographic bias (Europe and North America heavily
    /// over-represented relative to users).
    pub fn recruit(internet: &Internet, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa71a_5000_0000_0001);
        let locations = internet.user_locations();
        // Bias weight by continent: Atlas density is strongly European.
        let weight = |c: Continent| -> f64 {
            match c {
                Continent::Europe => 8.0,
                Continent::NorthAmerica => 4.0,
                Continent::Oceania => 2.0,
                Continent::Asia => 1.0,
                Continent::SouthAmerica => 0.7,
                Continent::Africa => 0.4,
                Continent::Antarctica => 0.05,
            }
        };
        let weights: Vec<f64> = locations
            .iter()
            .map(|l| weight(internet.world.region(l.region).continent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut probes = Vec::new();
        let mut used = par::DetHashSet::default();
        let mut attempts = 0;
        while probes.len() < n && attempts < n * 30 {
            attempts += 1;
            let mut x = rng.gen_range(0.0..total);
            let mut pick = 0;
            for (i, w) in weights.iter().enumerate() {
                x -= w;
                if x <= 0.0 {
                    pick = i;
                    break;
                }
            }
            let loc = locations[pick];
            if !used.insert((loc.region, loc.asn)) {
                continue;
            }
            probes.push(Probe { region: loc.region, asn: loc.asn });
        }
        Self { probes }
    }

    /// Number of distinct ASes hosting probes (the paper quotes ~3,300 —
    /// versus 22,243 ASes in its DITL inflation analysis).
    pub fn as_coverage(&self) -> usize {
        let mut asns: Vec<Asn> = self.probes.iter().map(|p| p.asn).collect();
        asns.sort();
        asns.dedup();
        asns.len()
    }

    /// Pings a deployment from every probe: `count` samples each.
    /// Returns `(probe, rtts)` rows; probes that cannot reach the
    /// deployment are skipped (as unreachable probes are in real
    /// campaigns).
    pub fn ping_deployment(
        &self,
        internet: &Internet,
        deployment: &AnycastDeployment,
        model: &LatencyModel,
        count: usize,
        seed: u64,
    ) -> Vec<(Probe, Vec<f64>)> {
        let mut cache = RouteCache::new();
        let catchment = Catchment::compute(&internet.graph, deployment, &mut cache);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa71a_5000_0000_0002);
        let mut out = Vec::new();
        for probe in &self.probes {
            let loc = internet.world.region(probe.region).center;
            let Some(assignment) = catchment.assign(probe.asn, &loc) else {
                continue;
            };
            let profile = PathProfile::from_assignment(&assignment, LastMile::Broadband);
            out.push((*probe, ping(model, &profile, count, &mut rng)));
        }
        out
    }

    /// Traceroutes a deployment from every probe. Returns
    /// `(probe, hops)`; IXP/unannounced interfaces resolve to no AS with
    /// probability `ixp_unmapped_prob` (§7.1's cleaning step removes
    /// them).
    pub fn traceroute_deployment(
        &self,
        internet: &Internet,
        deployment: &AnycastDeployment,
        model: &LatencyModel,
        ixp_unmapped_prob: f64,
        seed: u64,
    ) -> Vec<(Probe, Vec<TracerouteHop>)> {
        let mut cache = RouteCache::new();
        let catchment = Catchment::compute(&internet.graph, deployment, &mut cache);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa71a_5000_0000_0003);
        let mut out = Vec::new();
        for probe in &self.probes {
            let loc = internet.world.region(probe.region).center;
            let Some(assignment) = catchment.assign(probe.asn, &loc) else {
                continue;
            };
            let hops =
                traceroute(&internet.graph, &assignment, model, ixp_unmapped_prob, &mut rng);
            out.push((*probe, hops));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{InternetGenerator, TopologyConfig};
    use topology::{AnycastSite, SiteId, SiteScope};

    fn setup() -> (Internet, AtlasPanel) {
        let net = InternetGenerator::generate(&TopologyConfig::small(81));
        let panel = AtlasPanel::recruit(&net, 60, 1);
        (net, panel)
    }

    #[test]
    fn recruits_requested_probes_with_unique_locations() {
        let (_, panel) = setup();
        assert!(panel.probes.len() >= 50);
        let mut locs: Vec<_> = panel.probes.iter().map(|p| (p.region, p.asn)).collect();
        locs.sort();
        locs.dedup();
        assert_eq!(locs.len(), panel.probes.len());
    }

    #[test]
    fn panel_is_europe_biased() {
        let (net, panel) = setup();
        let eu = panel
            .probes
            .iter()
            .filter(|p| net.world.region(p.region).continent == Continent::Europe)
            .count() as f64
            / panel.probes.len() as f64;
        let eu_regions = net
            .world
            .regions()
            .iter()
            .filter(|r| r.continent == Continent::Europe)
            .count() as f64
            / net.world.regions().len() as f64;
        assert!(eu > eu_regions, "probe EU share {eu} ≤ region share {eu_regions}");
    }

    #[test]
    fn ping_campaign_returns_samples() {
        let (net, panel) = setup();
        // A one-site deployment hosted at a transit AS: reachable by all.
        let host = net.transits[0];
        let loc = net.graph.node(host).pops[0];
        let dep = AnycastDeployment::new(
            "probe-target",
            vec![AnycastSite {
                id: SiteId(0),
                name: "s0".into(),
                host,
                location: loc,
                scope: SiteScope::Global,
            }],
            vec![],
        );
        let rows = panel.ping_deployment(&net, &dep, &LatencyModel::default(), 3, 2);
        assert!(!rows.is_empty());
        for (_, rtts) in &rows {
            assert_eq!(rtts.len(), 3);
            assert!(rtts.iter().all(|r| *r > 0.0));
        }
    }

    #[test]
    fn traceroute_campaign_yields_as_paths() {
        let (net, panel) = setup();
        let host = net.transits[0];
        let loc = net.graph.node(host).pops[0];
        let dep = AnycastDeployment::new(
            "probe-target",
            vec![AnycastSite {
                id: SiteId(0),
                name: "s0".into(),
                host,
                location: loc,
                scope: SiteScope::Global,
            }],
            vec![],
        );
        let rows = panel.traceroute_deployment(&net, &dep, &LatencyModel::default(), 0.1, 3);
        assert!(!rows.is_empty());
        for (_, hops) in &rows {
            assert!(!hops.is_empty());
            assert!(hops[0].asn.is_some());
        }
    }

    #[test]
    fn as_coverage_is_less_than_probe_count_or_equal() {
        let (_, panel) = setup();
        assert!(panel.as_coverage() <= panel.probes.len());
        assert!(panel.as_coverage() > 0);
    }
}
