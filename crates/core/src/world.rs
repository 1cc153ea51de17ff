//! One fully-built simulated world: topology, both systems, and every
//! dataset the experiments consume.
//!
//! [`World::build`] is the reproduction's single entry point: from one
//! seed and one scale it deterministically constructs the Internet, the
//! root letters (for the configured DITL year), the CDN with its rings,
//! the user population, and all measurement campaigns. Every experiment
//! then reads from the same world, so cross-figure comparisons (e.g.
//! Fig. 5's roots-vs-CDN overlay) are apples-to-apples — the paper's
//! methodological point.

use cdn::{Cdn, CdnConfig, ClientMeasurements, ServerSideLogs};
use dns::zone::RootZone;
use dns::{DnsHierarchy, LetterSet};
use geo::region::RegionId;
use netsim::LatencyModel;
use serde::{Deserialize, Serialize};
use par::DetHashMap as HashMap;
use topology::gen::Internet;
use topology::{Asn, IpToAsnService, InternetGenerator, Prefix24, TopologyConfig};
use workload::{
    AtlasPanel, CdnUserCounts, DitlConfig, DitlDataset, GeolocError, Geolocator, UserConfig,
    UserPopulation,
};

/// World construction parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed.
    pub seed: u64,
    /// Scale in `(0, 1]`: 1.0 is paper scale (508 regions, full site
    /// censuses); smaller worlds keep the same structure.
    pub scale: f64,
    /// DITL census year (2018 or 2020).
    pub year: u16,
    /// RIPE-Atlas-style probe count.
    pub atlas_probes: usize,
    /// TCP handshakes sampled per ⟨location, ring⟩ in server logs.
    pub log_samples: u32,
    /// Client-side measurement samples per ⟨location, ring⟩.
    pub client_samples: u32,
    /// Eyeball peering probability for the CDN (the §7.1 knob).
    pub cdn_eyeball_peering: f64,
    /// Expanded per-user population for the scale dynamics experiment
    /// (`dynscale`). `None` derives it from `scale`: 1M users at
    /// paper scale, proportionally fewer on smaller worlds. The
    /// `repro --population N` flag sets it explicitly.
    #[serde(default)]
    pub dyn_population: Option<usize>,
}

impl WorldConfig {
    /// Paper-scale configuration.
    pub fn paper(seed: u64) -> Self {
        Self {
            seed,
            scale: 1.0,
            year: 2018,
            atlas_probes: 1000,
            log_samples: 25,
            client_samples: 15,
            cdn_eyeball_peering: 0.62,
            dyn_population: None,
        }
    }

    /// The expanded dynamics population: the explicit override when
    /// set, otherwise 1M users at scale 1.0, scaled down linearly
    /// (never below one user).
    pub fn dyn_population(&self) -> usize {
        self.dyn_population
            .unwrap_or_else(|| ((1_000_000.0 * self.scale).round() as usize).max(1))
    }

    /// Small configuration for tests.
    pub fn small(seed: u64) -> Self {
        Self {
            scale: 0.12,
            atlas_probes: 80,
            log_samples: 7,
            client_samples: 5,
            ..Self::paper(seed)
        }
    }
}

/// The built world.
pub struct World {
    /// Construction parameters.
    pub config: WorldConfig,
    /// The synthetic Internet (topology + geography).
    pub internet: Internet,
    /// Root letters for the configured year.
    pub letters: LetterSet,
    /// The CDN and its rings.
    pub cdn: Cdn,
    /// The root zone.
    pub zone: RootZone,
    /// TLD authoritative platforms (the layer below the root).
    pub hierarchy: DnsHierarchy,
    /// Ground-truth user population.
    pub population: UserPopulation,
    /// Microsoft-style user counts.
    pub cdn_user_counts: CdnUserCounts,
    /// APNIC-style user counts.
    pub apnic_user_counts: workload::ApnicUserCounts,
    /// The DITL capture campaign.
    pub ditl: DitlDataset,
    /// CDN server-side logs.
    pub server_logs: ServerSideLogs,
    /// CDN client-side measurements.
    pub client_measurements: ClientMeasurements,
    /// The probe panel.
    pub atlas: AtlasPanel,
    /// MaxMind-style geolocation over all allocated prefixes.
    pub geolocator: Geolocator,
    /// Team-Cymru-style IP→ASN mapping.
    pub ip_to_asn: IpToAsnService,
    /// The latency model shared by all campaigns.
    pub model: LatencyModel,
}

impl World {
    /// Builds everything. Deterministic in `config`.
    ///
    /// Every construction stage runs under an `obs` span (the `world/…`
    /// subtree of `metrics.json`), so `repro --verbose` narrates the
    /// build and the machine sink records per-stage item counts.
    pub fn build(config: &WorldConfig) -> Self {
        let span = obs::span!(
            "world",
            seed = config.seed,
            scale = config.scale,
            year = config.year
        );
        let topo = TopologyConfig {
            world_scale: config.scale,
            n_tier1: scaled(9, config.scale, 4),
            transits_per_continent: scaled(5, config.scale, 2),
            hosters_per_continent: scaled(26, config.scale, 5),
            ixp_region_count: scaled(40, config.scale, 8),
            ..TopologyConfig::full(config.seed)
        };
        let mut internet = {
            let stage = obs::span!("world.topology");
            let internet = InternetGenerator::generate(&topo);
            stage.add_items(internet.graph.len() as u64);
            internet
        };
        let letters = {
            let stage = obs::span!("world.letters");
            let letters = LetterSet::build(&mut internet, config.year, config.scale);
            stage.add_items(letters.letters.len() as u64);
            letters
        };
        let cdn = {
            let stage = obs::span!("world.cdn");
            let cdn = Cdn::build(
                &mut internet,
                &CdnConfig {
                    scale: config.scale,
                    eyeball_peering_prob: config.cdn_eyeball_peering,
                    ..CdnConfig::default()
                },
            );
            stage.add_items(cdn.rings.len() as u64);
            cdn
        };
        let zone = RootZone::paper_scale(config.seed);
        let hierarchy = {
            let _stage = obs::span!("world.hierarchy");
            DnsHierarchy::build(&mut internet, &zone, config.scale)
        };
        let population = {
            let stage = obs::span!("world.population");
            let population = UserPopulation::synthesize(
                &mut internet,
                &UserConfig { total_users: 1.0e9 * config.scale },
            );
            stage.add_items(population.locations.len() as u64);
            population
        };
        let model = LatencyModel::default();
        let cdn_user_counts = population.cdn_user_counts(config.seed);
        let apnic_user_counts = population.apnic_user_counts(config.seed);
        // The campaigns below carry their own spans (`ditl.generate`,
        // `cdn.server_logs`, `cdn.client_measurements`), nesting under
        // `world` on this thread.
        let ditl = DitlDataset::generate(
            &internet,
            &letters,
            &population,
            &model,
            &DitlConfig { seed: config.seed ^ config.year as u64, ..DitlConfig::default() },
        );
        let server_logs =
            ServerSideLogs::collect(&internet, &cdn, &model, config.log_samples, config.seed);
        let client_measurements = ClientMeasurements::collect(
            &internet,
            &cdn,
            &model,
            config.client_samples,
            config.seed,
        );
        let atlas = {
            let stage = obs::span!("world.atlas");
            let atlas = AtlasPanel::recruit(&internet, config.atlas_probes, config.seed);
            stage.add_items(atlas.probes.len() as u64);
            atlas
        };

        // Geolocation truth: eyeball prefixes at their AS's first PoP,
        // all other prefixes at their AS's first PoP too.
        let _geo_stage = obs::span!("world.geolocation");
        let truth: Vec<(Prefix24, geo::GeoPoint)> = internet
            .graph
            .nodes()
            .iter()
            .flat_map(|n| {
                let loc = n.pops[0];
                n.prefixes.iter().map(move |p| (*p, loc))
            })
            .collect();
        let geolocator = Geolocator::new(truth, GeolocError::default());
        let ip_to_asn = IpToAsnService::new(internet.graph.prefix_allocations(), 0.006);
        drop(_geo_stage);
        drop(span);

        Self {
            config: config.clone(),
            internet,
            letters,
            cdn,
            zone,
            hierarchy,
            population,
            cdn_user_counts,
            apnic_user_counts,
            ditl,
            server_logs,
            client_measurements,
            atlas,
            geolocator,
            ip_to_asn,
            model,
        }
    }

    /// Users per ⟨region, AS⟩ location (ground truth weights for the
    /// CDN-side analyses).
    pub fn users_by_location(&self) -> HashMap<(RegionId, Asn), f64> {
        let mut out: HashMap<(RegionId, Asn), f64> = HashMap::default();
        for l in &self.population.locations {
            *out.entry((l.region, l.asn)).or_default() += l.users;
        }
        out
    }

    /// Microsoft-style user counts aggregated to /24 (the DITL∩CDN
    /// weights).
    pub fn users_by_prefix(&self) -> HashMap<Prefix24, f64> {
        self.cdn_user_counts.by_prefix()
    }
}

fn scaled(full: usize, scale: f64, min: usize) -> usize {
    ((full as f64 * scale).round() as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_builds_and_is_consistent() {
        let w = World::build(&WorldConfig::small(1));
        assert_eq!(w.letters.letters.len(), 13);
        assert_eq!(w.cdn.rings.len(), 5);
        assert!(!w.ditl.rows.is_empty());
        assert!(!w.server_logs.is_empty());
        assert!(!w.atlas.probes.is_empty());
        assert!(w.population.total_users() > 0.0);
        // Geolocator covers the DITL sources that aren't spoofed/private.
        let mut missing = 0;
        for row in &w.ditl.rows {
            if !row.src.prefix.is_private() && w.geolocator.locate(row.src.prefix).is_none() {
                missing += 1;
            }
        }
        assert_eq!(missing, 0, "all public DITL sources geolocatable");
    }

    #[test]
    fn build_is_deterministic() {
        let a = World::build(&WorldConfig::small(2));
        let b = World::build(&WorldConfig::small(2));
        assert_eq!(a.ditl.rows.len(), b.ditl.rows.len());
        assert_eq!(a.server_logs.len(), b.server_logs.len());
        assert!(
            (a.ditl.total_queries_per_day() - b.ditl.total_queries_per_day()).abs() < 1e-6
        );
    }
}
