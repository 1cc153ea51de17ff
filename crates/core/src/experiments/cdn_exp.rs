//! CDN experiments: Figs. 4, 5, 14 and Appendix C.

use crate::artifact::Artifact;
use crate::experiments::roots::compute_root_inflation;
use crate::world::World;
use analysis::{cdn_inflation, median, WeightedCdf};
use cdn::pageload::{PageLoadStudy, PAGE_LOAD_RTTS};

/// Fig. 4: (a) CDN latency per RTT / per page load, by ring, from the
/// probe panel; (b) per-⟨region, AS⟩ latency change when moving from
/// each ring to the next larger one (client-side measurements, fixed
/// population).
pub(crate) fn fig4(world: &World) -> Vec<Artifact> {
    let mut per_rtt = Vec::new();
    let mut per_page = Vec::new();
    for ring in &world.cdn.rings {
        let rows = world.atlas.ping_deployment(
            &world.internet,
            &ring.deployment,
            &world.model,
            3,
            world.config.seed,
        );
        let medians: Vec<(f64, f64)> = rows
            .iter()
            .filter_map(|(_, rtts)| median(rtts).map(|m| (m, 1.0)))
            .collect();
        let pages: Vec<(f64, f64)> = medians
            .iter()
            .map(|(m, w)| (m * PAGE_LOAD_RTTS as f64, *w))
            .collect();
        per_rtt.push((ring.name.clone(), WeightedCdf::from_points(medians)));
        per_page.push((ring.name.clone(), WeightedCdf::from_points(pages)));
    }
    let mut changes = Vec::new();
    for pair in world.cdn.rings.windows(2) {
        let (small, big) = (&pair[0], &pair[1]);
        let deltas = world
            .client_measurements
            .ring_transition_deltas(&small.name, &big.name);
        let pts: Vec<(f64, f64)> = deltas
            .iter()
            .map(|d| (d * PAGE_LOAD_RTTS as f64, 1.0))
            .collect();
        changes.push((format!("{} - {}", small.name, big.name), WeightedCdf::from_points(pts)));
    }
    vec![
        Artifact::Cdf {
            id: "fig4a".into(),
            title: "CDN latency per web page load, by ring (CDF of probes)".into(),
            xlabel: "latency per page load (ms)".into(),
            series: per_page,
        },
        Artifact::Cdf {
            id: "fig4a-rtt".into(),
            title: "CDN latency per RTT, by ring (CDF of probes)".into(),
            xlabel: "latency per RTT (ms)".into(),
            series: per_rtt,
        },
        Artifact::Cdf {
            id: "fig4b".into(),
            title: "Latency change per page load when moving to the next ring".into(),
            xlabel: "latency change per page load, smaller − bigger (ms)".into(),
            series: changes,
        },
    ]
}

/// Fig. 5: CDN geographic (a) and latency (b) inflation per RTT, per
/// ring, with the Root-DNS system overlaid.
pub(crate) fn fig5(world: &World) -> Vec<Artifact> {
    let users = world.users_by_location();
    let mut geo_series = Vec::new();
    let mut lat_series = Vec::new();
    for ring in &world.cdn.rings {
        let result = cdn_inflation(&world.server_logs, ring, &world.internet, &users);
        geo_series.push((ring.name.clone(), result.geo));
        lat_series.push((ring.name.clone(), result.latency));
    }
    let roots = compute_root_inflation(world);
    geo_series.push(("Root DNS".into(), roots.geo_all_roots));
    lat_series.push(("Root DNS".into(), roots.lat_all_roots));
    vec![
        Artifact::Cdf {
            id: "fig5a".into(),
            title: "CDN geographic inflation per RTT vs Root DNS (CDF of users)".into(),
            xlabel: "geographic inflation per RTT (ms)".into(),
            series: geo_series,
        },
        Artifact::Cdf {
            id: "fig5b".into(),
            title: "CDN latency inflation per RTT vs Root DNS (CDF of users)".into(),
            xlabel: "latency inflation per RTT (ms)".into(),
            series: lat_series,
        },
    ]
}

/// Appendix C: the page-load RTT study behind the 10-RTT estimate.
pub(crate) fn appc(world: &World) -> Vec<Artifact> {
    let study = PageLoadStudy::paper_scale(world.config.seed);
    let rows = vec![
        vec!["page loads analyzed".into(), study.rtt_counts.len().to_string()],
        vec![
            "fraction within 10 RTTs".into(),
            format!("{:.1}%", study.fraction_within(10) * 100.0),
        ],
        vec![
            "fraction within 15 RTTs".into(),
            format!("{:.1}%", study.fraction_within(15) * 100.0),
        ],
        vec![
            "fraction within 20 RTTs".into(),
            format!("{:.1}%", study.fraction_within(20) * 100.0),
        ],
        vec!["adopted lower bound (RTTs)".into(), study.lower_bound_estimate().to_string()],
        vec![
            "median RTTs (TCP+TLS / QUIC / persistent)".into(),
            format!(
                "{} / {} / {}",
                study.median_rtts(netsim::TransportProfile::TcpTls),
                study.median_rtts(netsim::TransportProfile::Quic),
                study.median_rtts(netsim::TransportProfile::PersistentTcp),
            ),
        ],
    ];
    vec![Artifact::Table {
        id: "appc".into(),
        title: "RTTs per page load, Eq. 4 over synthetic pages (App. C)".into(),
        header: vec!["statistic".into(), "value".into()],
        rows,
    }]
}

/// Fig. 14 (App. F): per-region relative latency to the largest ring.
pub(crate) fn fig14(world: &World) -> Vec<Artifact> {
    let ring = world.cdn.largest_ring();
    // Mean of per-⟨region,AS⟩ median RTTs, per region, normalized.
    use par::DetHashMap as HashMap;
    let mut acc: HashMap<geo::region::RegionId, (f64, f64)> = HashMap::default();
    for rec in world.server_logs.ring(&ring.name) {
        let e = acc.entry(rec.region).or_insert((0.0, 0.0));
        e.0 += rec.median_rtt_ms;
        e.1 += 1.0;
    }
    let max_rtt = acc
        .values()
        .map(|(s, n)| s / n)
        .fold(1e-9f64, f64::max);
    let mut rows: Vec<Vec<String>> = acc
        .iter()
        .map(|(region, (s, n))| {
            let r = world.internet.world.region(*region);
            vec![
                r.name.clone(),
                format!("{:.2}", r.center.lat()),
                format!("{:.2}", r.center.lon()),
                format!("{:.1}", r.population_weight),
                format!("{:.3}", (s / n) / max_rtt),
            ]
        })
        .collect();
    rows.sort_by(|a, b| a[0].cmp(&b[0]));

    // ASCII world map: regions shaded by relative latency, front-ends
    // marked `X` (a terminal rendition of the paper's Fig. 14).
    const W: usize = 96;
    const H: usize = 30;
    let mut grid = vec![vec![' '; W]; H];
    let cell = |lat: f64, lon: f64| -> (usize, usize) {
        let col = (((lon + 180.0) / 360.0) * (W as f64 - 1.0)).round() as usize;
        let row = (((90.0 - lat) / 180.0) * (H as f64 - 1.0)).round() as usize;
        (row.min(H - 1), col.min(W - 1))
    };
    let shade = ['.', ':', '+', '*', '#'];
    for (region, (s, n)) in &acc {
        let r = world.internet.world.region(*region);
        let rel = (s / n) / max_rtt;
        let (row, col) = cell(r.center.lat(), r.center.lon());
        let level = ((rel * shade.len() as f64) as usize).min(shade.len() - 1);
        // Keep the worst (highest-latency) shade per cell.
        let existing = grid[row][col];
        let existing_level = shade.iter().position(|c| *c == existing);
        if existing != 'X' && existing_level.map_or(true, |e| level > e) {
            grid[row][col] = shade[level];
        }
    }
    for site in &ring.deployment.sites {
        let (row, col) = cell(site.location.lat(), site.location.lon());
        grid[row][col] = 'X';
    }
    let mut body = String::from(
        "relative latency to the largest ring ('.' lowest … '#' highest, X = front-end)\n",
    );
    for row in grid {
        body.push_str(&row.into_iter().collect::<String>());
        body.push('\n');
    }

    vec![
        Artifact::Table {
            id: "fig14".into(),
            title: "Relative latency to the largest ring, by region (App. F map data)".into(),
            header: vec![
                "region".into(),
                "lat".into(),
                "lon".into(),
                "population_weight".into(),
                "relative_latency".into(),
            ],
            rows,
        },
        Artifact::Text {
            id: "fig14-map".into(),
            title: "Fig. 14 as an ASCII map".into(),
            body,
        },
    ]
}
