//! Connectivity experiments: Figs. 6 and 7.

use crate::artifact::Artifact;
use crate::experiments::roots::compute_root_inflation;
use crate::world::World;
use analysis::paths::{inflation_by_path_length, org_path_length, PathLenClass, PathLengthDist};
use analysis::{cdn_inflation, coverage_cdf, median, WeightedCdf};
use dns::letters::Letter;
use par::DetHashMap as HashMap;
use std::sync::Arc;
use topology::AnycastDeployment;

/// Per-⟨region, AS⟩ path lengths toward a deployment, from traceroutes.
fn path_lengths_to(
    world: &World,
    deployment: &Arc<AnycastDeployment>,
) -> HashMap<(geo::region::RegionId, topology::Asn), usize> {
    let routes = world.atlas.traceroute_deployment(
        &world.internet,
        deployment,
        &world.model,
        0.08,
        world.config.seed,
    );
    // Most common length per ⟨region, AS⟩ (the paper's rule).
    let mut lengths: HashMap<(geo::region::RegionId, topology::Asn), Vec<usize>> =
        HashMap::default();
    for (probe, hops) in &routes {
        let len = org_path_length(hops, &world.internet.graph);
        if len >= 1 {
            lengths.entry((probe.region, probe.asn)).or_default().push(len);
        }
    }
    lengths
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable();
            let mode = v[v.len() / 2];
            (k, mode)
        })
        .collect()
}

/// Fig. 6a: distribution of AS path lengths to the CDN and each letter.
/// Fig. 6b: geographic inflation grouped by path length.
pub(crate) fn fig6(world: &World) -> Vec<Artifact> {
    let mut dist_rows: Vec<Vec<String>> = Vec::new();
    let mut box_groups: Vec<(String, Vec<(String, analysis::BoxStats)>)> = Vec::new();

    // CDN (largest ring).
    let ring = world.cdn.largest_ring();
    let cdn_lengths = path_lengths_to(world, &ring.deployment);
    let cdn_dist = PathLengthDist::from_observations(
        cdn_lengths.values().map(|l| (*l, 1.0)),
    );
    push_dist_row(&mut dist_rows, "CDN", &cdn_dist);

    let users = world.users_by_location();
    let cdn_infl = cdn_inflation(&world.server_logs, ring, &world.internet, &users);
    let cdn_boxes = inflation_by_path_length(cdn_lengths.iter().filter_map(|(k, len)| {
        cdn_infl.geo_by_location.get(k).map(|gi| (*len, *gi, 1.0))
    }));
    box_groups.push(("CDN".into(), sort_boxes(cdn_boxes)));

    // Letters (the Fig. 2a analysis set) + All Roots.
    let roots = compute_root_inflation(world);
    let mut all_roots_obs: Vec<(usize, f64)> = Vec::new();
    let mut all_roots_box_obs: Vec<(usize, f64, f64)> = Vec::new();
    for entry in world.letters.geo_analysis_letters() {
        let letter = entry.meta.letter;
        let lengths = path_lengths_to(world, &entry.deployment);
        let dist =
            PathLengthDist::from_observations(lengths.values().map(|l| (*l, 1.0)));
        push_dist_row(&mut dist_rows, &letter.name().to_string(), &dist);
        // Fig. 6b inflation join: probe AS → its recursive /24's GI.
        let gi_by_prefix = &roots.geo_by_letter_prefix;
        let prefix_of_as: HashMap<topology::Asn, topology::Prefix24> = world
            .population
            .recursives
            .iter()
            .map(|r| (r.asn, r.prefix))
            .collect();
        let boxes_obs: Vec<(usize, f64, f64)> = lengths
            .iter()
            .filter_map(|((_, asn), len)| {
                let prefix = prefix_of_as.get(asn)?;
                let gi = gi_by_prefix.get(&(letter, *prefix))?;
                Some((*len, *gi, 1.0))
            })
            .collect();
        all_roots_obs.extend(lengths.values().map(|l| (*l, 1.0)));
        all_roots_box_obs.extend(boxes_obs.iter().copied());
        if !boxes_obs.is_empty() {
            box_groups.push((
                letter.name().to_string(),
                sort_boxes(inflation_by_path_length(boxes_obs)),
            ));
        }
    }
    let all_dist = PathLengthDist::from_observations(all_roots_obs);
    push_dist_row(&mut dist_rows, "All Roots", &all_dist);
    box_groups.insert(
        1,
        ("All Roots".into(), sort_boxes(inflation_by_path_length(all_roots_box_obs))),
    );

    vec![
        Artifact::Table {
            id: "fig6a".into(),
            title: "AS path length distribution to each destination (Fig. 6a)".into(),
            header: vec![
                "destination".into(),
                "2 ASes".into(),
                "3 ASes".into(),
                "4 ASes".into(),
                "5+ ASes".into(),
            ],
            rows: dist_rows,
        },
        Artifact::Boxes {
            id: "fig6b".into(),
            title: "Geographic inflation vs AS path length (Fig. 6b)".into(),
            groups: box_groups,
        },
    ]
}

fn push_dist_row(rows: &mut Vec<Vec<String>>, name: &str, dist: &PathLengthDist) {
    rows.push(vec![
        name.to_string(),
        format!("{:.1}%", dist.fractions[0] * 100.0),
        format!("{:.1}%", dist.fractions[1] * 100.0),
        format!("{:.1}%", dist.fractions[2] * 100.0),
        format!("{:.1}%", dist.fractions[3] * 100.0),
    ]);
}

fn sort_boxes(
    boxes: HashMap<PathLenClass, analysis::BoxStats>,
) -> Vec<(String, analysis::BoxStats)> {
    let mut v: Vec<(PathLenClass, analysis::BoxStats)> = boxes.into_iter().collect();
    v.sort_by_key(|(c, _)| *c);
    v.into_iter().map(|(c, b)| (c.label().to_string(), b)).collect()
}

/// Fig. 7a: median latency and efficiency vs number of global sites.
/// Fig. 7b: coverage radius CDFs.
pub(crate) fn fig7(world: &World) -> Vec<Artifact> {
    let mut latency_points = Vec::new();
    let mut efficiency_points = Vec::new();

    // Letters: latency from probe pings; efficiency from Fig. 2a's
    // intercepts.
    let roots = compute_root_inflation(world);
    for entry in &world.letters.letters {
        let name = entry.meta.letter.name().to_string();
        let sites = entry.deployment.global_site_count() as f64;
        let pings = world.atlas.ping_deployment(
            &world.internet,
            &entry.deployment,
            &world.model,
            3,
            world.config.seed,
        );
        let med_per_probe: Vec<f64> =
            pings.iter().filter_map(|(_, rtts)| median(rtts)).collect();
        if let Some(med) = median(&med_per_probe) {
            latency_points.push((name.clone(), sites, med));
        }
        if let Some((_, cdf)) = roots
            .geo_per_letter
            .iter()
            .find(|(l, _)| *l == entry.meta.letter)
        {
            efficiency_points.push((name, sites, analysis::efficiency(cdf)));
        }
    }
    // Rings: latency from pings; efficiency from Fig. 5a's intercepts.
    let users = world.users_by_location();
    for ring in &world.cdn.rings {
        let pings = world.atlas.ping_deployment(
            &world.internet,
            &ring.deployment,
            &world.model,
            3,
            world.config.seed,
        );
        let med_per_probe: Vec<f64> =
            pings.iter().filter_map(|(_, rtts)| median(rtts)).collect();
        if let Some(med) = median(&med_per_probe) {
            latency_points.push((ring.name.clone(), ring.size as f64, med));
        }
        let infl = cdn_inflation(&world.server_logs, ring, &world.internet, &users);
        efficiency_points.push((ring.name.clone(), ring.size as f64, analysis::efficiency(&infl.geo)));
    }

    // Fig. 7b: coverage CDFs for rings, comparable letters, All Roots.
    let mut coverage_series: Vec<(String, WeightedCdf)> = Vec::new();
    for ring in &world.cdn.rings {
        coverage_series.push((
            ring.name.clone(),
            coverage_cdf(&ring.deployment, &world.internet, &users),
        ));
    }
    for letter in [Letter::D, Letter::K, Letter::J, Letter::F, Letter::L] {
        let entry = world.letters.get(letter);
        coverage_series.push((
            format!("{} - {}", letter.name(), entry.deployment.global_site_count()),
            coverage_cdf(&entry.deployment, &world.internet, &users),
        ));
    }
    // All Roots: union of every letter's global sites.
    let mut all_sites = Vec::new();
    for entry in &world.letters.letters {
        for site in entry.deployment.global_sites() {
            let mut s = site.clone();
            s.id = topology::SiteId(all_sites.len() as u32);
            all_sites.push(s);
        }
    }
    let all_roots_dep = AnycastDeployment::new("all-roots", all_sites, vec![]);
    coverage_series.insert(
        0,
        ("All Roots".into(), coverage_cdf(&all_roots_dep, &world.internet, &users)),
    );

    vec![
        Artifact::Scatter {
            id: "fig7a-latency".into(),
            title: "Median latency vs number of global sites (Fig. 7a, left)".into(),
            xlabel: "global sites".into(),
            ylabel: "median latency (ms)".into(),
            points: latency_points,
        },
        Artifact::Scatter {
            id: "fig7a-efficiency".into(),
            title: "Efficiency vs number of global sites (Fig. 7a, right)".into(),
            xlabel: "global sites".into(),
            ylabel: "efficiency (fraction of users at closest site)".into(),
            points: efficiency_points,
        },
        Artifact::Cdf {
            id: "fig7b".into(),
            title: "Coverage radius: users within X km of the nearest site (Fig. 7b)".into(),
            xlabel: "distance to nearest global site (km)".into(),
            series: coverage_series,
        },
    ]
}
