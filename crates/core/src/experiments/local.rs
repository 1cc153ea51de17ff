//! Local-perspective experiments: Figs. 12–13, Table 5, and the §4.3
//! cache-miss-rate measurements.

use crate::artifact::Artifact;
use crate::world::World;
use analysis::WeightedCdf;
use dns::resolver::{
    CampaignStats, RecursiveResolver, ResolverConfig, ResolverEvent, UpstreamRtts,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{BrowseConfig, BrowseGenerator};

/// User-population shard size for the parallel resolver campaigns. The
/// shard count depends only on the user count — never on the thread
/// count — so merged results are identical at any parallelism level.
const SHARD_USERS: usize = 10;

/// Splits `users` into fixed-size shards, replays each shard's browsing
/// workload through its own fresh resolver, and merges the stats in
/// shard index order into exactly sized series.
fn sharded_campaign(
    world: &World,
    users: usize,
    days: f64,
    seed: u64,
    rtts: &UpstreamRtts,
    config: &ResolverConfig,
) -> CampaignStats {
    // The span stays on this (orchestrating) thread; shard closures only
    // bump commutative counters via the resolver's metric sheet, so the
    // recorded paths are thread-count-invariant.
    let span = obs::span!("campaign.resolver", users = users, days = days);
    let stats = CampaignStats::merge(campaign_shards(world, users, days, seed, rtts, config));
    span.add_items(stats.user_queries);
    stats
}

/// The per-shard stats of [`sharded_campaign`], in shard index order
/// (workload and resolver seeds derived per shard).
fn campaign_shards(
    world: &World,
    users: usize,
    days: f64,
    seed: u64,
    rtts: &UpstreamRtts,
    config: &ResolverConfig,
) -> Vec<CampaignStats> {
    let n_shards = users.div_ceil(SHARD_USERS).max(1);
    let base = users / n_shards;
    let extra = users % n_shards;
    let shard_sizes: Vec<usize> =
        (0..n_shards).map(|i| base + usize::from(i < extra)).collect();
    par::ordered_map(&shard_sizes, |i, &n| {
        let shard_seed = par::seed_for(seed, i as u64);
        let mut generator = BrowseGenerator::new(
            BrowseConfig { users: n, ..BrowseConfig::default() },
            &world.zone,
            shard_seed,
        );
        let events = generator.generate(days);
        let mut resolver = RecursiveResolver::new(
            config.clone(),
            rtts.clone(),
            StdRng::seed_from_u64(shard_seed),
        );
        resolver.drive(events.iter().map(|e| (e.t, &*e.query)), &world.zone)
    })
}

/// Runs a resolver over a browsing workload and collects per-query
/// latency and root-wait distributions plus the miss rate.
fn run_resolver_experiment(
    world: &World,
    users: usize,
    days: f64,
    seed: u64,
) -> (WeightedCdf, WeightedCdf, f64) {
    // Upstream RTTs: the ISI-like resolver sits in a well-connected US
    // eyeball; per-letter RTTs spread realistically.
    let mut rtts = UpstreamRtts::uniform(0.0, 18.0, 35.0);
    for (i, (_, r)) in rtts.root_rtt_ms.iter_mut().enumerate() {
        *r = 12.0 + 23.0 * i as f64; // 12 ms (nearby letter) … 290 ms
    }
    let stats =
        sharded_campaign(world, users, days, seed, &rtts, &ResolverConfig::default());
    let miss = stats.miss_rate();
    (
        WeightedCdf::from_values(stats.latencies),
        WeightedCdf::from_values(stats.root_waits),
        miss,
    )
}

/// Figs. 12 and 13: user DNS latency and root-DNS wait CDFs at an
/// ISI-style shared recursive, plus the miss-rate table (shared resolver
/// vs the two authors' personal resolvers).
pub(crate) fn fig12_13(world: &World) -> Vec<Artifact> {
    // ISI-style: many users share one cache. The paper's trace spans a
    // year; miss rates and latency CDFs converge within weeks, so the
    // experiment runs a scale-dependent slice.
    let days = (45.0 * world.config.scale).max(10.0);
    let shared_users = 80;
    let (latency, root_wait, shared_miss) =
        run_resolver_experiment(world, shared_users, days, world.config.seed ^ 0x151);
    // Author-style: single user, fresh cache, four weeks.
    let (_, _, solo_miss_a) =
        run_resolver_experiment(world, 1, 28.0, world.config.seed ^ 0xa1);
    let (_, _, solo_miss_b) =
        run_resolver_experiment(world, 1, 28.0, world.config.seed ^ 0xa2);

    vec![
        Artifact::Cdf {
            id: "fig12".into(),
            title: "User DNS query latency at a shared recursive (App. D)".into(),
            xlabel: "latency (ms)".into(),
            series: vec![("ISI-style recursive".into(), latency)],
        },
        Artifact::Cdf {
            id: "fig13".into(),
            title: "Root DNS wait per user query (App. D)".into(),
            xlabel: "root DNS latency (ms)".into(),
            series: vec![("ISI-style recursive".into(), root_wait)],
        },
        Artifact::Table {
            id: "missrates".into(),
            title: "Root cache miss rates (§4.3)".into(),
            header: vec!["resolver".into(), "users".into(), "miss rate".into()],
            rows: vec![
                vec![
                    "shared (ISI-style)".into(),
                    shared_users.to_string(),
                    format!("{:.2}%", shared_miss * 100.0),
                ],
                vec![
                    "author A (local BIND)".into(),
                    "1".into(),
                    format!("{:.2}%", solo_miss_a * 100.0),
                ],
                vec![
                    "author B (local BIND)".into(),
                    "1".into(),
                    format!("{:.2}%", solo_miss_b * 100.0),
                ],
            ],
        },
    ]
}

/// Table 5: the redundant-query trace. Replays the Appendix E scenario —
/// an authoritative timeout under buggy BIND — and renders the resulting
/// query sequence.
pub(crate) fn tab5(world: &World) -> Vec<Artifact> {
    let config = ResolverConfig {
        auth_timeout_prob: 1.0,
        bind_redundant_query_bug: true,
        ..ResolverConfig::default()
    };
    let mut rtts = UpstreamRtts::uniform(0.0, 8.0, 30.0);
    for (i, (_, r)) in rtts.root_rtt_ms.iter_mut().enumerate() {
        *r = 15.0 + 10.0 * i as f64;
    }
    let mut resolver =
        RecursiveResolver::new(config, rtts, StdRng::seed_from_u64(world.config.seed));
    // The Appendix E pathology needs a TLD whose referrals lack full
    // AAAA glue; which TLDs those are is a seeded draw, so pick the most
    // popular qualifying one rather than hard-coding "com".
    let tld_name = world
        .zone
        .tlds()
        .iter()
        .filter(|t| !t.full_aaaa_glue)
        .max_by(|a, b| a.popularity.total_cmp(&b.popularity))
        .map(|t| t.name.clone())
        .unwrap_or_else(|| "com".to_string());
    let query = dns::QueryName::valid_host("bidder.criteo", &tld_name);
    let res = resolver.resolve(netsim::SimTime::ZERO, &query, &world.zone);

    let mut rows: Vec<Vec<String>> = vec![vec![
        "1".into(),
        "0.000".into(),
        "client → resolver".into(),
        query.fqdn.clone(),
        "A".into(),
        String::new(),
    ]];
    for (i, event) in res.events.iter().enumerate() {
        let (t, target, qtype, note) = match event {
            ResolverEvent::RootQuery { t, letter, qtype, redundant, .. } => (
                t.as_secs(),
                format!("resolver → {letter}"),
                format!("{qtype:?}").to_uppercase(),
                if *redundant { "redundant".to_string() } else { String::new() },
            ),
            ResolverEvent::TldQuery { t, .. } => (
                t.as_secs(),
                "resolver → gTLD server".into(),
                "A".into(),
                String::new(),
            ),
            ResolverEvent::AuthQuery { t, timed_out } => (
                t.as_secs(),
                "resolver → ns.criteo.com".into(),
                "A".into(),
                if *timed_out { "timeout".to_string() } else { String::new() },
            ),
        };
        rows.push(vec![
            (i + 2).to_string(),
            format!("{t:.3}"),
            target,
            query.fqdn.clone(),
            qtype,
            note,
        ]);
    }
    let redundant_count = res
        .events
        .iter()
        .filter(|e| matches!(e, ResolverEvent::RootQuery { redundant: true, .. }))
        .count();
    rows.push(vec![
        "—".into(),
        "—".into(),
        format!("{redundant_count} redundant root queries emitted"),
        String::new(),
        String::new(),
        String::new(),
    ]);
    vec![Artifact::Table {
        id: "tab5".into(),
        title: "Redundant root queries after an authoritative timeout (Table 5)".into(),
        header: vec![
            "step".into(),
            "time (s)".into(),
            "from → to".into(),
            "query name".into(),
            "type".into(),
            "note".into(),
        ],
        rows,
    }]
}

/// §4.3's redundancy share at scale: what fraction of root queries from a
/// BIND-like resolver are redundant (the paper measured 79.8% at ISI).
pub fn redundancy_share(world: &World, days: f64) -> f64 {
    let rtts = UpstreamRtts::uniform(40.0, 18.0, 35.0);
    let stats = sharded_campaign(
        world,
        100,
        days,
        world.config.seed ^ 0x4ed,
        &rtts,
        &ResolverConfig::default(),
    );
    stats.redundancy_share()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn campaign_series_are_the_shards_in_order_and_exactly_sized() {
        let world = World::build(&WorldConfig::small(5));
        let rtts = UpstreamRtts::uniform(0.0, 18.0, 35.0);
        let config = ResolverConfig::default();
        let shards = campaign_shards(&world, 25, 3.0, 7, &rtts, &config);
        assert_eq!(shards.len(), 3);
        let merged = sharded_campaign(&world, 25, 3.0, 7, &rtts, &config);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let concat = |series: fn(&CampaignStats) -> &[f64]| -> Vec<u64> {
            shards.iter().flat_map(|s| bits(series(s))).collect()
        };
        assert_eq!(bits(&merged.latencies), concat(|s| &s.latencies));
        assert_eq!(bits(&merged.root_waits), concat(|s| &s.root_waits));
        assert_eq!(merged.latencies.len() as u64, merged.user_queries);
        assert_eq!(merged.latencies.capacity(), merged.latencies.len());
        assert_eq!(merged.root_waits.capacity(), merged.root_waits.len());
    }
}
