//! `World::build` taken apart: the same public stage constructors in
//! the same order, each timed, with the live heap read after each.
//!
//! The staged world must equal `World::build`'s; [`fingerprint`] checks
//! that in every traced run.

use crate::alloc;
use crate::trace::{Counters, Digest, Trace};
use anycast_core::{World, WorldConfig};
use cdn::{Cdn, CdnConfig, ClientMeasurements, ServerSideLogs};
use dns::zone::RootZone;
use dns::{DnsHierarchy, LetterSet};
use netsim::LatencyModel;
use std::time::Instant;
use topology::{InternetGenerator, IpToAsnService, Prefix24, TopologyConfig};
use workload::{
    AtlasPanel, DitlConfig, DitlDataset, GeolocError, Geolocator, UserConfig, UserPopulation,
};

/// Mirrors the private scaling rule of `World::build`.
fn scaled(full: usize, scale: f64, min: usize) -> usize {
    ((full as f64 * scale).round() as usize).max(min)
}

/// Times one stage into `core.world.<name>_s` and notes the live heap.
fn stage<T>(trace: &mut Trace, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    trace.add(name, t.elapsed().as_secs_f64());
    println!(
        "heap after {name}: live {:.1} MB, peak {:.1} MB",
        alloc::mb(alloc::live()),
        alloc::mb(alloc::peak())
    );
    out
}

/// Builds the world stage by stage, recording stage times, the world's
/// live heap, and the campaign row counts into `trace`.
pub fn build_staged(config: &WorldConfig, trace: &mut Trace) -> World {
    let counters = Counters::read();
    let heap0 = alloc::live();
    let topo = TopologyConfig {
        world_scale: config.scale,
        n_tier1: scaled(9, config.scale, 4),
        transits_per_continent: scaled(5, config.scale, 2),
        hosters_per_continent: scaled(26, config.scale, 5),
        ixp_region_count: scaled(40, config.scale, 8),
        ..TopologyConfig::full(config.seed)
    };
    let mut internet = stage(trace, "core.world.topology_s", || {
        InternetGenerator::generate(&topo)
    });
    let letters = stage(trace, "core.world.letters_s", || {
        LetterSet::build(&mut internet, config.year, config.scale)
    });
    let cdn = stage(trace, "core.world.cdn_s", || {
        Cdn::build(
            &mut internet,
            &CdnConfig {
                scale: config.scale,
                eyeball_peering_prob: config.cdn_eyeball_peering,
                ..CdnConfig::default()
            },
        )
    });
    let (zone, hierarchy) = stage(trace, "core.world.rest_s", || {
        let zone = RootZone::paper_scale(config.seed);
        let hierarchy = DnsHierarchy::build(&mut internet, &zone, config.scale);
        (zone, hierarchy)
    });
    let population = stage(trace, "core.world.population_s", || {
        UserPopulation::synthesize(
            &mut internet,
            &UserConfig {
                total_users: 1.0e9 * config.scale,
                ..UserConfig::default()
            },
        )
    });
    let model = LatencyModel::default();
    let (cdn_user_counts, apnic_user_counts) = stage(trace, "core.world.rest_s", || {
        (
            population.cdn_user_counts(config.seed),
            population.apnic_user_counts(config.seed),
        )
    });
    let ditl = stage(trace, "core.world.ditl_s", || {
        DitlDataset::generate(
            &internet,
            &letters,
            &population,
            &model,
            &DitlConfig {
                seed: config.seed ^ config.year as u64,
                ..DitlConfig::default()
            },
        )
    });
    let (server_logs, client_measurements) = stage(trace, "core.world.campaigns_s", || {
        let logs =
            ServerSideLogs::collect(&internet, &cdn, &model, config.log_samples, config.seed);
        let client = ClientMeasurements::collect(
            &internet,
            &cdn,
            &model,
            config.client_samples,
            config.seed,
        );
        (logs, client)
    });
    let (atlas, geolocator, ip_to_asn) = stage(trace, "core.world.rest_s", || {
        let atlas = AtlasPanel::recruit(&internet, config.atlas_probes, config.seed);
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
        (atlas, geolocator, ip_to_asn)
    });
    trace.set("core.world_heap_mb", alloc::mb(alloc::live() - heap0));
    trace.set("workload.ditl.rows", counters.delta("ditl.rows"));
    trace.set("cdn.log_records", counters.delta("cdn.log_records"));
    World {
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

/// A digest of the world's sizes and headline totals, to compare a
/// staged world with `World::build`'s.
pub fn fingerprint(w: &World) -> u64 {
    let mut d = Digest::default();
    d.num(w.internet.graph.len() as f64);
    for l in &w.letters.letters {
        d.num(l.deployment.sites.len() as f64);
    }
    d.num(w.cdn.rings.len() as f64);
    d.num(w.population.total_users());
    d.num(w.population.locations.len() as f64);
    d.num(w.ditl.rows.len() as f64);
    d.num(w.ditl.total_queries_per_day());
    d.num(w.server_logs.len() as f64);
    d.num(w.atlas.probes.len() as f64);
    d.value()
}
