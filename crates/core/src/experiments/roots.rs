//! Root-DNS experiments: Figs. 2, 3, 8, 9, 10, 11 and Table 4.

use crate::artifact::Artifact;
use crate::world::World;
use analysis::{
    favorite_site_miss_fractions, ideal_queries_per_user_cdf, join_by_asn, join_by_ip,
    join_by_prefix, preprocess, queries_per_user_cdf, root_inflation, FilterOptions,
    RootInflation,
};

/// Computes root inflation over the world's DITL (shared by fig2, fig5,
/// fig6, fig7).
pub(crate) fn compute_root_inflation(world: &World) -> RootInflation {
    let clean = preprocess(&world.ditl, &FilterOptions::default());
    root_inflation(&clean, &world.letters, &world.geolocator, &world.users_by_prefix())
}

/// Fig. 2: geographic (a) and latency (b) inflation per root query.
pub(crate) fn fig2(world: &World) -> Vec<Artifact> {
    let inflation = compute_root_inflation(world);
    let mut geo_series: Vec<(String, analysis::WeightedCdf)> = inflation
        .geo_per_letter
        .iter()
        .map(|(l, cdf)| {
            let sites = world.letters.get(*l).deployment.global_site_count();
            (format!("{} - {}", l.name(), sites), cdf.clone())
        })
        .collect();
    geo_series.push(("All Roots".into(), inflation.geo_all_roots.clone()));
    let mut lat_series: Vec<(String, analysis::WeightedCdf)> = inflation
        .lat_per_letter
        .iter()
        .map(|(l, cdf)| {
            let sites = world.letters.get(*l).deployment.global_site_count();
            (format!("{} - {}", l.name(), sites), cdf.clone())
        })
        .collect();
    lat_series.push(("All Roots".into(), inflation.lat_all_roots.clone()));
    vec![
        Artifact::Cdf {
            id: "fig2a".into(),
            title: "Geographic inflation per root query (CDF of users)".into(),
            xlabel: "geographic inflation (ms)".into(),
            series: geo_series,
        },
        Artifact::Cdf {
            id: "fig2b".into(),
            title: "Latency inflation per root query (CDF of users)".into(),
            xlabel: "latency inflation (ms)".into(),
            series: lat_series,
        },
    ]
}

/// Fig. 3: daily root queries per user — CDN, APNIC, and Ideal lines.
pub(crate) fn fig3(world: &World) -> Vec<Artifact> {
    let clean = preprocess(&world.ditl, &FilterOptions::default());
    let by_prefix = join_by_prefix(&clean, &world.cdn_user_counts);
    let (by_asn, _mapped) = join_by_asn(&clean, &world.apnic_user_counts, &world.ip_to_asn);
    let series = vec![
        ("Ideal".to_string(), ideal_queries_per_user_cdf(&by_prefix, &world.zone)),
        ("CDN".to_string(), queries_per_user_cdf(&by_prefix)),
        ("APNIC".to_string(), queries_per_user_cdf(&by_asn)),
    ];
    vec![Artifact::Cdf {
        id: "fig3".into(),
        title: "Root queries per user per day (CDF of users)".into(),
        xlabel: "queries per user per day".into(),
        series,
    }]
}

/// Fig. 8 (App. B.1): Fig. 3 recomputed *including* invalid-TLD and PTR
/// queries.
pub(crate) fn fig8(world: &World) -> Vec<Artifact> {
    let filtered = preprocess(&world.ditl, &FilterOptions::default());
    let unfiltered = preprocess(&world.ditl, &FilterOptions { keep_invalid: true });
    let jf = join_by_prefix(&filtered, &world.cdn_user_counts);
    let ju = join_by_prefix(&unfiltered, &world.cdn_user_counts);
    let (af, _) = join_by_asn(&filtered, &world.apnic_user_counts, &world.ip_to_asn);
    let (au, _) = join_by_asn(&unfiltered, &world.apnic_user_counts, &world.ip_to_asn);
    vec![Artifact::Cdf {
        id: "fig8".into(),
        title: "Effect of counting invalid-TLD queries (App. B.1)".into(),
        xlabel: "queries per user per day".into(),
        series: vec![
            ("CDN (filtered)".into(), queries_per_user_cdf(&jf)),
            ("CDN (with invalid)".into(), queries_per_user_cdf(&ju)),
            ("APNIC (filtered)".into(), queries_per_user_cdf(&af)),
            ("APNIC (with invalid)".into(), queries_per_user_cdf(&au)),
        ],
    }]
}

/// Fig. 9 (App. B.2): Fig. 3's CDN line without the /24 join.
pub(crate) fn fig9(world: &World) -> Vec<Artifact> {
    let clean = preprocess(&world.ditl, &FilterOptions::default());
    let by_prefix = join_by_prefix(&clean, &world.cdn_user_counts);
    let by_ip = join_by_ip(&clean, &world.cdn_user_counts);
    vec![Artifact::Cdf {
        id: "fig9".into(),
        title: "Amortization without /24 aggregation (App. B.2)".into(),
        xlabel: "queries per user per day".into(),
        series: vec![
            ("CDN (/24 join)".into(), queries_per_user_cdf(&by_prefix)),
            ("CDN (exact-IP join)".into(), queries_per_user_cdf(&by_ip)),
        ],
    }]
}

/// Table 4: DITL∩CDN overlap with vs without /24 aggregation.
pub(crate) fn tab4(world: &World) -> Vec<Artifact> {
    let clean = preprocess(&world.ditl, &FilterOptions::default());
    let with = join_by_prefix(&clean, &world.cdn_user_counts).stats;
    let without = join_by_ip(&clean, &world.cdn_user_counts).stats;
    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    vec![Artifact::Table {
        id: "tab4".into(),
        title: "DITL∩CDN overlap, exact-IP vs /24 join (Table 4)".into(),
        header: vec!["statistic".into(), "exact IP".into(), "by /24".into()],
        rows: vec![
            vec![
                "DITL recursives matched".into(),
                pct(without.ditl_recursives_matched),
                pct(with.ditl_recursives_matched),
            ],
            vec![
                "DITL volume matched".into(),
                pct(without.ditl_volume_matched),
                pct(with.ditl_volume_matched),
            ],
            vec![
                "CDN recursives matched".into(),
                pct(without.cdn_recursives_matched),
                pct(with.cdn_recursives_matched),
            ],
            vec![
                "CDN users matched".into(),
                pct(without.cdn_users_matched),
                pct(with.cdn_users_matched),
            ],
        ],
    }]
}

/// Fig. 10 (App. B.2): fraction of each /24's queries missing its
/// favorite site, per letter.
pub(crate) fn fig10(world: &World) -> Vec<Artifact> {
    // Affinity uses *all* traffic from a /24 (the question is routing
    // coherence, not user latency), so keep invalid classes.
    let clean = preprocess(&world.ditl, &FilterOptions { keep_invalid: true });
    let per_letter = favorite_site_miss_fractions(&clean);
    let series = per_letter
        .into_iter()
        .map(|(l, cdf)| {
            let dep = &world.letters.get(l).deployment;
            (
                format!("{} ({}G {}T)", l.name(), dep.global_site_count(), dep.total_site_count()),
                cdf,
            )
        })
        .collect();
    // §8's confirmation of Wei & Heidemann: expand a recursive sample
    // into a 48-hour packet capture and measure whether ⟨/24, letter⟩
    // pairs keep their majority site across 12-hour windows.
    let capture = workload::pcap::sample_capture(
        &world.ditl,
        &workload::pcap::PcapConfig {
            sample_recursives: 60,
            seed: world.config.seed,
            ..Default::default()
        },
    );
    let affinity = analysis::site_affinity_over_windows(&capture, 4);
    let affinity_table = Artifact::Table {
        id: "fig10-affinity-time".into(),
        title: "Site affinity across 12-hour windows (§8, after Wei & Heidemann)".into(),
        header: vec!["statistic".into(), "value".into()],
        rows: vec![
            vec!["packets sampled".into(), capture.len().to_string()],
            vec!["⟨/24, letter⟩ pairs".into(), affinity.pairs.to_string()],
            vec!["windows".into(), affinity.windows.to_string()],
            vec![
                "pairs with stable majority site".into(),
                format!("{:.1}%", affinity.stable_fraction * 100.0),
            ],
        ],
    };
    vec![
        Artifact::Cdf {
            id: "fig10".into(),
            title: "Fraction of /24 queries not hitting the favorite site (Eq. 3)".into(),
            xlabel: "fraction of queries off the favorite site".into(),
            series,
        },
        affinity_table,
    ]
}

/// Fig. 11 (App. B.3): the 2020 DITL rerun — queries/user/day and
/// geographic inflation with the 2020 letter census. Builds a sibling
/// world with `year = 2020`.
pub(crate) fn fig11(world: &World) -> Vec<Artifact> {
    let mut config = world.config.clone();
    config.year = 2020;
    let w2020 = World::build(&config);
    let mut artifacts = Vec::new();
    for mut a in fig3(&w2020) {
        if let Artifact::Cdf { id, title, .. } = &mut a {
            *id = "fig11a".into();
            *title = format!("{title} — 2020 DITL");
        }
        artifacts.push(a);
    }
    for mut a in fig2(&w2020) {
        if let Artifact::Cdf { id, title, .. } = &mut a {
            if id == "fig2a" {
                *id = "fig11b".into();
                *title = format!("{title} — 2020 DITL");
                artifacts.push(a);
            }
        }
    }
    artifacts
}
