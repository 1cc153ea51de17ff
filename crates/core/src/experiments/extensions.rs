//! Extension experiments: the questions the paper raises but cannot
//! measure, answered on the simulation's ground truth.
//!
//! * `extunicast` — the unicast-alternative inflation metric §3 declines,
//! * `extlocals` — what local (NO_EXPORT) sites buy their neighborhoods,
//! * `extddos` — DDoS failure cascades (Table 1's top growth driver),
//! * `extte` — §7.1's selective-announcement traffic engineering loop.

use crate::artifact::Artifact;
use crate::world::World;
use analysis::resilience::{simulate_attack, AttackSpec, TrafficSource};
use analysis::te::optimize_withholds;
use analysis::{local_site_study, unicast_study};
use dns::letters::Letter;
use netsim::LastMile;
use topology::Asn;

/// Legitimate traffic sources from the world's user population.
fn user_sources(world: &World) -> Vec<TrafficSource> {
    world
        .population
        .locations
        .iter()
        .map(|l| TrafficSource {
            asn: l.asn,
            location: world.internet.world.region(l.region).center,
            load: l.users,
        })
        .collect()
}

/// `extunicast`: anycast vs best-unicast latency for a small letter, a
/// large letter, and the largest CDN ring.
pub(crate) fn extunicast(world: &World) -> Vec<Artifact> {
    let users = user_sources(world);
    let mut series = Vec::new();
    let mut residuals = Vec::new();
    let targets: Vec<(String, &topology::AnycastDeployment)> = vec![
        ("C-root".into(), &world.letters.get(Letter::C).deployment),
        ("K-root".into(), &world.letters.get(Letter::K).deployment),
        (
            world.cdn.largest_ring().name.clone(),
            &world.cdn.largest_ring().deployment,
        ),
    ];
    for (name, dep) in targets {
        let study =
            unicast_study(&world.internet.graph, dep, &world.model, &users, LastMile::Broadband);
        series.push((name.clone(), study.unicast_inflation));
        residuals.push((name, study.baseline_residual));
    }
    vec![
        Artifact::Cdf {
            id: "extunicast".into(),
            title: "Anycast inflation vs the best unicast alternative (the metric §3 declines)"
                .into(),
            xlabel: "anycast − best unicast (ms)".into(),
            series,
        },
        Artifact::Cdf {
            id: "extunicast-residual".into(),
            title: "Residual inflation of the 'optimal' unicast baseline itself (§3's caveat)"
                .into(),
            xlabel: "best unicast − geometric bound (ms)".into(),
            series: residuals,
        },
    ]
}

/// `extlocals`: what local sites buy, for the letters that have them.
pub(crate) fn extlocals(world: &World) -> Vec<Artifact> {
    let users = user_sources(world);
    let mut rows = Vec::new();
    for letter in [Letter::D, Letter::E, Letter::J, Letter::F] {
        let entry = world.letters.get(letter);
        if entry.meta.local_sites == 0 {
            continue;
        }
        let study =
            local_site_study(&world.internet.graph, &entry.deployment, &world.model, &users);
        rows.push(vec![
            letter.to_string(),
            entry.meta.local_sites.to_string(),
            format!("{:.2}%", study.locally_served_fraction * 100.0),
            if study.latency_with_locals.is_empty() {
                "—".into()
            } else {
                format!("{:.1}", study.latency_with_locals.median())
            },
            if study.latency_without_locals.is_empty() {
                "—".into()
            } else {
                format!("{:.1}", study.latency_without_locals.median())
            },
            format!("{:.1}", study.median_saving_ms()),
        ]);
    }
    vec![Artifact::Table {
        id: "extlocals".into(),
        title: "Local (NO_EXPORT) sites: who they serve and what they save".into(),
        header: vec![
            "letter".into(),
            "local sites".into(),
            "users served locally".into(),
            "median ms (with)".into(),
            "median ms (without)".into(),
            "median saving ms".into(),
        ],
        rows,
    }]
}

/// `extddos`: the same relative attack against deployments of different
/// sizes — B root, K root, F root, and the largest ring.
pub(crate) fn extddos(world: &World) -> Vec<Artifact> {
    let users = user_sources(world);
    let total: f64 = users.iter().map(|u| u.load).sum();
    // Botnet: 25 sources spread across the population, volume 1.5× of
    // all legitimate traffic.
    let n_bots = 25.min(users.len());
    let stride = (users.len() / n_bots).max(1);
    let attack = AttackSpec {
        sources: users
            .iter()
            .step_by(stride)
            .take(n_bots)
            .map(|u| TrafficSource { load: total * 1.5 / n_bots as f64, ..*u })
            .collect(),
    };
    let mut rows = Vec::new();
    let targets: Vec<(String, &topology::AnycastDeployment)> = vec![
        ("B-root".into(), &world.letters.get(Letter::B).deployment),
        ("K-root".into(), &world.letters.get(Letter::K).deployment),
        ("F-root".into(), &world.letters.get(Letter::F).deployment),
        (
            world.cdn.largest_ring().name.clone(),
            &world.cdn.largest_ring().deployment,
        ),
    ];
    for (name, dep) in targets {
        // Per-site capacity: every deployment gets the same per-site
        // headroom (60% of total legit traffic), so resilience differences
        // come from site count and catchment spread.
        let outcome = simulate_attack(
            &world.internet.graph,
            dep,
            &world.model,
            &users,
            &attack,
            total * 0.6,
        );
        rows.push(vec![
            name,
            dep.total_site_count().to_string(),
            outcome.withdrawn_sites.len().to_string(),
            outcome.rounds.to_string(),
            format!("{:.1}%", outcome.unserved_user_fraction * 100.0),
            if outcome.latency_after.is_empty() {
                "—".into()
            } else {
                format!(
                    "{:.1} → {:.1}",
                    outcome.latency_before.median(),
                    outcome.latency_after.median()
                )
            },
        ]);
    }
    vec![Artifact::Table {
        id: "extddos".into(),
        title: "DDoS cascade: identical attack (1.5× legit volume) vs deployment size".into(),
        header: vec![
            "deployment".into(),
            "sites".into(),
            "withdrawn".into(),
            "rounds".into(),
            "users unserved".into(),
            "median latency ms (before → after)".into(),
        ],
        rows,
    }]
}

/// `extte`: greedy selective-announcement optimization of the smallest
/// ring (where ingress/front-end mismatch is worst).
pub(crate) fn extte(world: &World) -> Vec<Artifact> {
    let users = user_sources(world);
    let ring = &world.cdn.rings[0];
    let result = optimize_withholds(
        &world.internet.graph,
        &ring.deployment,
        &world.model,
        &users,
        &world.internet.transits,
        4,
        0.05,
    );
    let rows = vec![
        vec!["ring".into(), ring.name.clone()],
        vec!["candidate neighbors".into(), world.internet.transits.len().to_string()],
        vec!["evaluations".into(), result.evaluations.to_string()],
        vec![
            "withheld from".into(),
            if result.withheld.is_empty() {
                "(none helped)".into()
            } else {
                result
                    .withheld
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            },
        ],
        vec![
            "mean latency before (ms)".into(),
            format!("{:.2}", result.before.mean()),
        ],
        vec![
            "mean latency after (ms)".into(),
            format!("{:.2}", result.after.mean()),
        ],
        vec![
            "p90 before → after (ms)".into(),
            format!("{:.1} → {:.1}", result.before.quantile(0.9), result.after.quantile(0.9)),
        ],
    ];
    vec![Artifact::Table {
        id: "extte".into(),
        title: "Selective-announcement TE on the smallest ring (§7.1)".into(),
        header: vec!["statistic".into(), "value".into()],
        rows,
    }]
}

/// `exttld`: a tale of *three* systems — root DNS, TLD authoritative
/// service, and the CDN, compared on the paper's own axis: how often a
/// user waits on each, times how long each wait is.
pub(crate) fn exttld(world: &World) -> Vec<Artifact> {
    use dns::resolver::{RecursiveResolver, ResolverConfig, ResolverEvent, UpstreamRtts};
    use rand::SeedableRng as _;
    use topology::RouteCache;
    use workload::BrowseGenerator;

    // A representative recursive: the busiest eyeball's resolver farm,
    // with topology-derived RTTs to every letter and every TLD platform.
    let rec = world
        .population
        .recursives
        .iter()
        .filter(|r| !r.public_dns)
        .max_by(|a, b| a.users.partial_cmp(&b.users).expect("finite"))
        .expect("eyeball recursives exist");
    let mut cache = RouteCache::new();
    let per_tld =
        world
            .hierarchy
            .tld_rtts_for(&world.internet, &mut cache, &world.model, rec.asn, &rec.location);
    let mut root_rtts = Vec::new();
    for entry in &world.letters.letters {
        let catchment =
            topology::Catchment::compute(&world.internet.graph, &entry.deployment, &mut cache);
        let rtt = catchment
            .assign(rec.asn, &rec.location)
            .map(|a| {
                world.model.median_rtt_ms(&netsim::PathProfile::from_assignment(
                    &a,
                    LastMile::None,
                ))
            })
            .unwrap_or(300.0);
        root_rtts.push((entry.meta.letter, rtt));
    }
    let rtts = UpstreamRtts {
        root_rtt_ms: root_rtts,
        tld_rtt_ms: 30.0,
        auth_rtt_ms: 35.0,
        per_tld_rtt_ms: Some(per_tld),
    };

    // Drive a day of browsing through the resolver and attribute waits.
    let users = 60usize;
    let days = 3.0;
    let mut generator = BrowseGenerator::new(users, &world.zone, world.config.seed ^ 0x71d);
    let events = generator.generate(days);
    let mut resolver = RecursiveResolver::new(
        ResolverConfig::default(),
        rtts,
        rand::rngs::StdRng::seed_from_u64(world.config.seed ^ 0x71d),
    );
    let mut root_queries = 0u64;
    let mut root_wait_ms = 0.0;
    let mut tld_queries = 0u64;
    let mut tld_wait_ms = 0.0;
    for e in &events {
        let res = resolver.resolve(e.t, &e.query, &world.zone);
        // Root waits that sit on a user's critical resolution path.
        if res.root_wait_ms > 0.0 {
            root_queries += 1;
            root_wait_ms += res.root_wait_ms;
        }
        for ev in &res.events {
            if let ResolverEvent::TldQuery { rtt_ms, .. } = ev {
                tld_queries += 1;
                tld_wait_ms += rtt_ms;
            }
        }
    }
    let user_days = users as f64 * days;

    // The CDN context: interactions/user/day = page loads; latency per
    // interaction = median page-load latency from the probe panel.
    let ring = world.cdn.largest_ring();
    let pings =
        world.atlas.ping_deployment(&world.internet, &ring.deployment, &world.model, 3, 1);
    let meds: Vec<f64> =
        pings.iter().filter_map(|(_, r)| analysis::median(r)).collect();
    let cdn_rtt = analysis::median(&meds).unwrap_or(f64::NAN);
    let pages_per_day = workload::browse::PAGES_PER_USER_PER_DAY;
    let cdn_per_page = cdn_rtt * cdn::PAGE_LOAD_RTTS as f64;

    let rows = vec![
        vec![
            "root DNS".into(),
            format!("{:.2}", root_queries as f64 / user_days),
            format!("{:.1}", root_wait_ms / root_queries.max(1) as f64),
            format!("{:.0}", root_wait_ms / user_days),
        ],
        vec![
            "TLD authoritative".into(),
            format!("{:.2}", tld_queries as f64 / user_days),
            format!("{:.1}", tld_wait_ms / tld_queries.max(1) as f64),
            format!("{:.0}", tld_wait_ms / user_days),
        ],
        vec![
            "CDN (page loads)".into(),
            format!("{pages_per_day:.2}"),
            format!("{cdn_per_page:.1}"),
            format!("{:.0}", pages_per_day * cdn_per_page),
        ],
    ];
    vec![Artifact::Table {
        id: "exttld".into(),
        title: "A tale of three systems: how often users wait, and for how long".into(),
        header: vec![
            "context".into(),
            "waits per user per day".into(),
            "latency per wait (ms)".into(),
            "daily burden (ms/user)".into(),
        ],
        rows,
    }]
}

/// `extinfer`: run Gao-style AS-relationship inference over the paths a
/// public measurement platform can actually observe (probe traceroutes
/// toward the letters and the CDN), and score it against the topology's
/// ground truth — quantifying §7.1's caveat that "publicly available
/// data cannot capture all of Microsoft's optimizations".
pub(crate) fn extinfer(world: &World) -> Vec<Artifact> {
    use topology::{infer_relationships, score_inference};

    let mut paths: Vec<Vec<Asn>> = Vec::new();
    let mut collect = |deployment: &topology::AnycastDeployment| {
        let routes = world.atlas.traceroute_deployment(
            &world.internet,
            deployment,
            &world.model,
            0.0, // inference wants raw AS paths; interface noise off
            world.config.seed,
        );
        for (_, hops) in routes {
            let path: Vec<Asn> = hops.iter().filter_map(|h| h.asn).collect();
            if path.len() >= 2 {
                paths.push(path);
            }
        }
    };
    for entry in &world.letters.letters {
        collect(&entry.deployment);
    }
    collect(&world.cdn.largest_ring().deployment);

    let inferred = infer_relationships(&paths, 0.34);
    let score = score_inference(&world.internet.graph, &inferred);
    let pct = |x: f64| {
        if x.is_nan() {
            "—".to_string()
        } else {
            format!("{:.1}%", x * 100.0)
        }
    };
    let rows = vec![
        vec!["observed AS paths".into(), paths.len().to_string()],
        vec!["ground-truth links".into(), world.internet.graph.links().len().to_string()],
        vec!["links observed & classified".into(), score.classified.to_string()],
        vec!["link coverage".into(), pct(score.link_coverage)],
        vec!["transit direction accuracy".into(), pct(score.transit_accuracy)],
        vec!["peer recall".into(), pct(score.peer_recall)],
        vec!["peer precision".into(), pct(score.peer_precision)],
    ];
    vec![Artifact::Table {
        id: "extinfer".into(),
        title: "Gao relationship inference vs ground truth (the public-data caveat of §7.1)"
            .into(),
        header: vec!["statistic".into(), "value".into()],
        rows,
    }]
}
