//! Shape targets for connectivity (§7.1, Fig. 6): the CDN is a short-
//! path destination, letters are not, and short paths are less inflated.

use anycast_context::analysis::paths::{org_path_length, PathLengthDist};
use anycast_context::{World, WorldConfig};
use std::collections::HashMap;
use std::sync::Arc;
use anycast_context::{geo, netsim, topology};

fn world() -> World {
    World::build(&WorldConfig { scale: 0.25, ..WorldConfig::paper(2021) })
}

fn dist_to(w: &World, deployment: &Arc<anycast_context::topology::AnycastDeployment>) -> PathLengthDist {
    let routes = w
        .atlas
        .traceroute_deployment(&w.internet, deployment, &w.model, 0.08, 1);
    let mut by_loc: HashMap<(geo::region::RegionId, anycast_context::topology::Asn), usize> =
        HashMap::new();
    for (probe, hops) in &routes {
        let len = org_path_length(hops, &w.internet.graph);
        if len >= 1 {
            by_loc.insert((probe.region, probe.asn), len);
        }
    }
    PathLengthDist::from_observations(by_loc.values().map(|l| (*l, 1.0)))
}

#[test]
fn cdn_paths_are_mostly_direct_letter_paths_are_not() {
    let w = world();
    let cdn = dist_to(&w, &w.cdn.largest_ring().deployment);
    // §7.1: ~69% of paths to the CDN traverse two ASes, ≤ ~5% four or more.
    assert!(
        (0.5..0.9).contains(&cdn.direct_fraction()),
        "CDN direct {}",
        cdn.direct_fraction()
    );
    assert!(cdn.four_plus_fraction() < 0.15, "CDN 4+ {}", cdn.four_plus_fraction());

    // Letters: 5–44% direct, with a real 4+ tail.
    let mut letter_directs = Vec::new();
    for entry in w.letters.geo_analysis_letters() {
        let d = dist_to(&w, &entry.deployment);
        letter_directs.push((entry.meta.letter, d.direct_fraction(), d.four_plus_fraction()));
    }
    for (letter, direct, _) in &letter_directs {
        assert!(
            *direct < cdn.direct_fraction(),
            "{letter} direct {direct} ≥ CDN {}",
            cdn.direct_fraction()
        );
    }
    let with_long_tails =
        letter_directs.iter().filter(|(_, _, four)| *four > 0.1).count();
    assert!(with_long_tails >= 5, "only {with_long_tails} letters with 4+ tails");
}

#[test]
fn org_merging_shortens_sibling_paths() {
    let w = world();
    // Find a sibling pair (same org, different ASN) and confirm the
    // length function counts them once.
    let mut by_org: HashMap<topology::OrgId, Vec<topology::Asn>> = HashMap::new();
    for node in w.internet.graph.nodes() {
        by_org.entry(node.org).or_default().push(node.asn);
    }
    let sibling_pair = by_org.values().find(|v| v.len() >= 2).expect("siblings exist");
    let hops: Vec<netsim::TracerouteHop> = vec![
        netsim::TracerouteHop { asn: Some(sibling_pair[0]), rtt_ms: 1.0 },
        netsim::TracerouteHop { asn: Some(sibling_pair[1]), rtt_ms: 2.0 },
    ];
    assert_eq!(org_path_length(&hops, &w.internet.graph), 1);
}

#[test]
fn inflation_grows_with_path_length_for_roots() {
    let w = world();
    let artifacts = anycast_context::experiments::run("fig6", &w);
    let boxes = artifacts
        .iter()
        .find_map(|a| match a {
            anycast_context::Artifact::Boxes { groups, .. } => Some(groups),
            _ => None,
        })
        .expect("fig6b produced");
    let all_roots = boxes
        .iter()
        .find(|(g, _)| g == "All Roots")
        .map(|(_, subs)| subs)
        .expect("All Roots group");
    // Median inflation at 2 ASes ≤ median at 4+ ASes.
    let med = |label: &str| {
        all_roots
            .iter()
            .find(|(s, _)| s == label)
            .map(|(_, b)| b.median)
    };
    if let (Some(two), Some(four)) = (med("2 ASes"), med("4 ASes")) {
        assert!(two <= four + 1.0, "2-AS median {two} vs 4+ {four}");
    }
    // The CDN group's 2-AS median is (near) zero.
    let cdn = boxes.iter().find(|(g, _)| g == "CDN").expect("CDN group");
    if let Some((_, b)) = cdn.1.iter().find(|(s, _)| s == "2 ASes") {
        assert!(b.median < 5.0, "CDN 2-AS median {}", b.median);
    }
}
