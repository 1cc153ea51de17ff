//! Geographic and latency inflation (Eq. 1, Eq. 2; Figs. 2 and 5).
//!
//! Both metrics compare *where traffic went* against *the nearest global
//! site of the deployment*:
//!
//! * **Geographic inflation** (Eq. 1): query-weighted mean great-circle
//!   distance to the sites actually hit, minus distance to the nearest
//!   global site, scaled to round-trip fiber milliseconds (`2/cf`).
//! * **Latency inflation** (Eq. 2): query-weighted mean of *measured*
//!   (TCP handshake) latency minus the `2cf/3` achievability bound for
//!   the nearest global site. It captures what routing/peering changes
//!   could recover, beyond pure geometry.
//!
//! Root inflation works per ⟨letter, recursive /24⟩ over DITL∩CDN; the
//! *All Roots* aggregate weights each letter by the recursive's query
//! volume toward it (recursives preferentially query fast letters, so
//! the system is less inflated than its parts). CDN inflation works per
//! ⟨region, AS⟩ over server-side logs.

use crate::preprocess::CleanDitl;
use crate::stats::WeightedCdf;
use cdn::logs::ServerSideLogs;
use cdn::rings::Ring;
use dns::letters::{Letter, LetterSet};
use geo::latency::{km_to_rtt_lower_bound_ms, km_to_rtt_ms};
use geo::region::RegionId;
use geo::GeoPoint;
use serde::{Deserialize, Serialize};
use par::DetHashMap as HashMap;
use topology::gen::Internet;
use topology::{AnycastDeployment, Asn, Prefix24, SiteId};
use workload::geoloc::Geolocator;

/// Root-DNS inflation results (Fig. 2).
#[derive(Debug, Clone)]
pub struct RootInflation {
    /// Per-letter geographic inflation CDFs (user-weighted), Fig. 2a.
    pub geo_per_letter: Vec<(Letter, WeightedCdf)>,
    /// All-Roots geographic inflation (query-weighted across letters).
    pub geo_all_roots: WeightedCdf,
    /// Per-letter latency inflation CDFs, Fig. 2b.
    pub lat_per_letter: Vec<(Letter, WeightedCdf)>,
    /// All-Roots latency inflation.
    pub lat_all_roots: WeightedCdf,
    /// Per ⟨letter, /24⟩ geographic inflation (ms) — the raw values
    /// behind the CDFs, needed by Fig. 6b's inflation-vs-path-length
    /// correlation.
    pub geo_by_letter_prefix: HashMap<(Letter, Prefix24), f64>,
}

/// Minimum TCP query volume for a ⟨letter, /24⟩ latency estimate to
/// count (the paper requires ≥ 10 handshakes per ⟨root, /24, site⟩).
pub(crate) const MIN_TCP_VOLUME: f64 = 0.5;

/// Computes root inflation over a cleaned DITL dataset.
///
/// `users_by_prefix` supplies the user weights (DITL∩CDN); prefixes
/// without user data are skipped, mirroring the paper's join.
pub fn root_inflation(
    clean: &CleanDitl,
    letters: &LetterSet,
    geolocator: &Geolocator,
    users_by_prefix: &HashMap<Prefix24, f64>,
) -> RootInflation {
    // Per (letter, prefix): per-site UDP+TCP volume and TCP latency sums.
    struct Acc {
        by_site: HashMap<SiteId, f64>,
        tcp_volume: f64,
        tcp_rtt_weighted: f64,
    }
    let mut acc: HashMap<(Letter, Prefix24), Acc> = HashMap::default();
    for row in &clean.rows {
        let a = acc
            .entry((row.letter, row.src.prefix))
            .or_insert_with(|| Acc { by_site: HashMap::default(), tcp_volume: 0.0, tcp_rtt_weighted: 0.0 });
        *a.by_site.entry(row.site).or_default() += row.queries_per_day;
        if row.tcp {
            if let Some(rtt) = row.tcp_rtt_median_ms {
                a.tcp_volume += row.queries_per_day;
                a.tcp_rtt_weighted += rtt * row.queries_per_day;
            }
        }
    }

    // Geographic / latency inflation per (letter, prefix).
    let mut geo_points: HashMap<Letter, Vec<(f64, f64)>> = HashMap::default();
    let mut lat_points: HashMap<Letter, Vec<(f64, f64)>> = HashMap::default();
    // Per prefix: (Σ_j N_j · GI_j, Σ_j N_j) and the same for latency.
    let mut all_geo: HashMap<Prefix24, (f64, f64, f64)> = HashMap::default(); // (Σ N·gi, Σ N, users)
    let mut geo_by_letter_prefix: HashMap<(Letter, Prefix24), f64> = HashMap::default();
    let mut all_lat: HashMap<Prefix24, (f64, f64, f64)> = HashMap::default();

    for ((letter, prefix), a) in &acc {
        let root = letters.get(*letter);
        if !root.meta.usable_for_geo_inflation() {
            continue;
        }
        let Some(users) = users_by_prefix.get(prefix).copied().filter(|u| *u > 0.0) else {
            continue;
        };
        let Some(loc) = geolocator.locate(*prefix) else {
            continue;
        };
        let dep = &root.deployment;
        let min_km = dep.nearest_global_site_km(&loc);
        if !min_km.is_finite() {
            continue;
        }
        let total_q: f64 = a.by_site.values().sum();
        if total_q <= 0.0 {
            continue;
        }
        let mean_km: f64 = a
            .by_site
            .iter()
            .map(|(site, q)| dep.site(*site).location.distance_km(&loc) * q)
            .sum::<f64>()
            / total_q;
        let gi = km_to_rtt_ms((mean_km - min_km).max(0.0));
        geo_by_letter_prefix.insert((*letter, *prefix), gi);
        geo_points.entry(*letter).or_default().push((gi, users));
        let e = all_geo.entry(*prefix).or_insert((0.0, 0.0, users));
        e.0 += gi * total_q;
        e.1 += total_q;

        if root.meta.usable_for_latency_inflation() && a.tcp_volume >= MIN_TCP_VOLUME {
            let mean_rtt = a.tcp_rtt_weighted / a.tcp_volume;
            let li = (mean_rtt - km_to_rtt_lower_bound_ms(min_km)).max(0.0);
            lat_points.entry(*letter).or_default().push((li, users));
            let e = all_lat.entry(*prefix).or_insert((0.0, 0.0, users));
            e.0 += li * a.tcp_volume;
            e.1 += a.tcp_volume;
        }
    }

    let mut geo_per_letter: Vec<(Letter, WeightedCdf)> = geo_points
        .into_iter()
        .map(|(l, pts)| (l, WeightedCdf::from_points(pts)))
        .collect();
    geo_per_letter.sort_by_key(|(l, _)| *l);
    let mut lat_per_letter: Vec<(Letter, WeightedCdf)> = lat_points
        .into_iter()
        .map(|(l, pts)| (l, WeightedCdf::from_points(pts)))
        .collect();
    lat_per_letter.sort_by_key(|(l, _)| *l);

    let geo_all_roots = WeightedCdf::from_points(
        all_geo
            .values()
            .filter(|(_, n, _)| *n > 0.0)
            .map(|(sum, n, users)| (sum / n, *users))
            .collect(),
    );
    let lat_all_roots = WeightedCdf::from_points(
        all_lat
            .values()
            .filter(|(_, n, _)| *n > 0.0)
            .map(|(sum, n, users)| (sum / n, *users))
            .collect(),
    );

    RootInflation { geo_per_letter, geo_all_roots, lat_per_letter, lat_all_roots, geo_by_letter_prefix }
}

/// CDN inflation for one ring (Fig. 5), from server-side logs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdnInflation {
    /// Ring name.
    pub ring: String,
    /// Geographic inflation per RTT (user-weighted), Fig. 5a.
    pub geo: WeightedCdf,
    /// Latency inflation per RTT, Fig. 5b.
    pub latency: WeightedCdf,
    /// Per ⟨region, AS⟩ geographic inflation (ms), for Fig. 6b.
    pub geo_by_location: HashMap<(RegionId, Asn), f64>,
}

/// Computes per-ring CDN inflation. `users_by_location` weights each
/// ⟨region, AS⟩ (ground truth from the population synthesis — standing
/// in for Microsoft's internal user databases).
pub fn cdn_inflation(
    logs: &ServerSideLogs,
    ring: &Ring,
    internet: &Internet,
    users_by_location: &HashMap<(RegionId, Asn), f64>,
) -> CdnInflation {
    let mut geo_pts = Vec::new();
    let mut lat_pts = Vec::new();
    let mut geo_by_location = HashMap::default();
    for rec in logs.ring(&ring.name) {
        let Some(users) = users_by_location.get(&(rec.region, rec.asn)).copied() else {
            continue;
        };
        if users <= 0.0 {
            continue;
        }
        let loc: GeoPoint = internet.world.region(rec.region).center;
        let min_km = ring.deployment.nearest_global_site_km(&loc);
        let hit_km = ring.deployment.site(rec.front_end).location.distance_km(&loc);
        let gi = km_to_rtt_ms((hit_km - min_km).max(0.0));
        geo_by_location.insert((rec.region, rec.asn), gi);
        geo_pts.push((gi, users));
        let li = (rec.median_rtt_ms - km_to_rtt_lower_bound_ms(min_km)).max(0.0);
        lat_pts.push((li, users));
    }
    CdnInflation {
        ring: ring.name.clone(),
        geo: WeightedCdf::from_points(geo_pts),
        latency: WeightedCdf::from_points(lat_pts),
        geo_by_location,
    }
}

/// Fig. 7b's coverage CDF: the fraction of users within X km of the
/// deployment's nearest global site.
pub fn coverage_cdf(
    deployment: &AnycastDeployment,
    internet: &Internet,
    users_by_location: &HashMap<(RegionId, Asn), f64>,
) -> WeightedCdf {
    let points = users_by_location
        .iter()
        .filter(|(_, u)| **u > 0.0)
        .map(|((region, _), users)| {
            let loc = internet.world.region(*region).center;
            (deployment.nearest_global_site_km(&loc), *users)
        })
        .collect();
    WeightedCdf::from_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::FilterStats;
    use dns::query::QueryClass;
    use topology::{AnycastSite, ExportScope};
    use workload::ditl::DitlRow;
    use workload::geoloc::{GeolocError, Geolocator};

    /// Hand-built fixture: a letter with two global sites, a recursive at
    /// a known location, queries split across sites — Eq. 1 on paper.
    #[test]
    fn eq1_matches_hand_computation() {
        let mut net = topology::InternetGenerator::generate(
            &topology::TopologyConfig::small(91),
        );
        let mut letters = LetterSet::build(&mut net, 2018, 0.2);
        // Overwrite C-root with a two-site fixture on the equator.
        let host = net.hosters[0];
        let near = GeoPoint::new(0.0, 1.0); // ~111 km from recursive
        let far = GeoPoint::new(0.0, 10.0); // ~1113 km
        let c = letters
            .letters
            .iter_mut()
            .find(|l| l.meta.letter == Letter::C)
            .expect("C exists");
        c.deployment = std::sync::Arc::new(AnycastDeployment::new(
            "C-fixture",
            vec![
                AnycastSite { id: SiteId(0), name: "near".into(), host, location: near, scope: ExportScope::Global },
                AnycastSite { id: SiteId(1), name: "far".into(), host, location: far, scope: ExportScope::Global },
            ],
            vec![],
        ));
        let rloc = GeoPoint::new(0.0, 0.0);
        let prefix = Prefix24(7777);
        let geolocator = Geolocator::new(
            vec![(prefix, rloc)],
            GeolocError { typical_km: 0.0, gross_prob: 0.0, gross_km: 0.0 },
        );
        // 75% of queries to the far site, 25% to the near one.
        let rows = vec![
            DitlRow {
                letter: Letter::C,
                src: prefix.host(1),
                ipv6: false,
                spoofed: false,
                site: SiteId(1),
                class: QueryClass::ValidTld,
                tcp: false,
                queries_per_day: 75.0,
                tcp_rtt_median_ms: None,
            },
            DitlRow {
                letter: Letter::C,
                src: prefix.host(1),
                ipv6: false,
                spoofed: false,
                site: SiteId(0),
                class: QueryClass::ValidTld,
                tcp: false,
                queries_per_day: 25.0,
                tcp_rtt_median_ms: None,
            },
        ];
        let clean = CleanDitl { rows, stats: FilterStats::default() };
        let users: HashMap<Prefix24, f64> = [(prefix, 10.0)].into_iter().collect();
        let result = root_inflation(&clean, &letters, &geolocator, &users);
        let (_, cdf) = result
            .geo_per_letter
            .iter()
            .find(|(l, _)| *l == Letter::C)
            .expect("C analyzed");
        // mean distance = 0.75·d(far) + 0.25·d(near); min = d(near).
        let d_near = rloc.distance_km(&near);
        let d_far = rloc.distance_km(&far);
        let expect = km_to_rtt_ms(0.75 * d_far + 0.25 * d_near - d_near);
        assert!((cdf.median() - expect).abs() < 0.05, "{} vs {expect}", cdf.median());
    }

    #[test]
    fn eq2_uses_measured_latency_and_bound() {
        let mut net = topology::InternetGenerator::generate(
            &topology::TopologyConfig::small(92),
        );
        let mut letters = LetterSet::build(&mut net, 2018, 0.2);
        let host = net.hosters[0];
        let site = GeoPoint::new(0.0, 9.0); // 1000 km
        let k = letters
            .letters
            .iter_mut()
            .find(|l| l.meta.letter == Letter::K)
            .expect("K exists");
        k.deployment = std::sync::Arc::new(AnycastDeployment::new(
            "K-fixture",
            vec![AnycastSite {
                id: SiteId(0),
                name: "s".into(),
                host,
                location: site,
                scope: ExportScope::Global,
            }],
            vec![],
        ));
        let rloc = GeoPoint::new(0.0, 0.0);
        let prefix = Prefix24(8888);
        let geolocator = Geolocator::new(
            vec![(prefix, rloc)],
            GeolocError { typical_km: 0.0, gross_prob: 0.0, gross_km: 0.0 },
        );
        let measured = 100.0;
        let rows = vec![DitlRow {
            letter: Letter::K,
            src: prefix.host(1),
            ipv6: false,
            spoofed: false,
            site: SiteId(0),
            class: QueryClass::ValidTld,
            tcp: true,
            queries_per_day: 10.0,
            tcp_rtt_median_ms: Some(measured),
        }];
        let clean = CleanDitl { rows, stats: FilterStats::default() };
        let users: HashMap<Prefix24, f64> = [(prefix, 5.0)].into_iter().collect();
        let result = root_inflation(&clean, &letters, &geolocator, &users);
        let (_, cdf) = result
            .lat_per_letter
            .iter()
            .find(|(l, _)| *l == Letter::K)
            .expect("K analyzed");
        let bound = km_to_rtt_lower_bound_ms(rloc.distance_km(&site));
        assert!((cdf.median() - (measured - bound)).abs() < 0.05);
    }

    #[test]
    fn zero_inflation_when_routed_to_nearest() {
        let mut net = topology::InternetGenerator::generate(
            &topology::TopologyConfig::small(93),
        );
        let mut letters = LetterSet::build(&mut net, 2018, 0.2);
        let host = net.hosters[0];
        let near = GeoPoint::new(0.0, 1.0);
        let far = GeoPoint::new(0.0, 50.0);
        let c = letters
            .letters
            .iter_mut()
            .find(|l| l.meta.letter == Letter::C)
            .expect("C exists");
        c.deployment = std::sync::Arc::new(AnycastDeployment::new(
            "C-fixture",
            vec![
                AnycastSite { id: SiteId(0), name: "near".into(), host, location: near, scope: ExportScope::Global },
                AnycastSite { id: SiteId(1), name: "far".into(), host, location: far, scope: ExportScope::Global },
            ],
            vec![],
        ));
        let prefix = Prefix24(1234);
        let geolocator = Geolocator::new(
            vec![(prefix, GeoPoint::new(0.0, 0.0))],
            GeolocError { typical_km: 0.0, gross_prob: 0.0, gross_km: 0.0 },
        );
        let rows = vec![DitlRow {
            letter: Letter::C,
            src: prefix.host(1),
            ipv6: false,
            spoofed: false,
            site: SiteId(0),
            class: QueryClass::ValidTld,
            tcp: false,
            queries_per_day: 100.0,
            tcp_rtt_median_ms: None,
        }];
        let clean = CleanDitl { rows, stats: FilterStats::default() };
        let users: HashMap<Prefix24, f64> = [(prefix, 1.0)].into_iter().collect();
        let result = root_inflation(&clean, &letters, &geolocator, &users);
        let (_, cdf) =
            result.geo_per_letter.iter().find(|(l, _)| *l == Letter::C).expect("C analyzed");
        assert_eq!(cdf.median(), 0.0);
    }

    #[test]
    fn prefixes_without_users_are_skipped() {
        let mut net = topology::InternetGenerator::generate(
            &topology::TopologyConfig::small(94),
        );
        let letters = LetterSet::build(&mut net, 2018, 0.2);
        let prefix = Prefix24(42);
        let geolocator = Geolocator::new(
            vec![(prefix, GeoPoint::new(0.0, 0.0))],
            GeolocError::default(),
        );
        let rows = vec![DitlRow {
            letter: Letter::C,
            src: prefix.host(1),
            ipv6: false,
            spoofed: false,
            site: SiteId(0),
            class: QueryClass::ValidTld,
            tcp: false,
            queries_per_day: 100.0,
            tcp_rtt_median_ms: None,
        }];
        let clean = CleanDitl { rows, stats: FilterStats::default() };
        let result = root_inflation(&clean, &letters, &geolocator, &HashMap::default());
        assert!(result.geo_all_roots.is_empty());
    }
}
