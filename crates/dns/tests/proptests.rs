//! Property tests for the resolver: TTL discipline and letter-policy
//! invariants.

use anycast_dns::query::JUNK_SUFFIXES;
use anycast_dns::resolver::{
    letter_weights, CampaignStats, RecursiveResolver, ResolverConfig, ResolverEvent, UpstreamRtts,
};
use anycast_dns::{Letter, QueryName, RootZone};
use netsim::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_rtts() -> impl Strategy<Value = Vec<(Letter, f64)>> {
    proptest::collection::vec(1.0f64..400.0, 13).prop_map(|v| {
        Letter::ALL.iter().copied().zip(v).collect()
    })
}

/// A seeded mix of valid, probe, junk and PTR queries with gaps from
/// seconds to days, so answer, delegation and negative entries both hit
/// and expire.
fn mixed_stream(seed: u64, zone: &RootZone, len: usize) -> Vec<(SimTime, QueryName)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..len)
        .map(|_| {
            t += if rng.gen_bool(0.02) {
                rng.gen_range(0.0..3.0 * 86_400_000.0)
            } else {
                rng.gen_range(0.0..1_800_000.0)
            };
            let q = match rng.gen_range(0..10) {
                0 => QueryName::chromium_probe(format!("probe{}", rng.gen::<u32>())),
                1 => QueryName::junk(JUNK_SUFFIXES[rng.gen_range(0..JUNK_SUFFIXES.len())]),
                2 => QueryName::ptr(),
                _ => {
                    let tld = &zone.tlds()[rng.gen_range(0..8)].name;
                    QueryName::valid_host(format!("h{}", rng.gen_range(0..20)), tld)
                }
            };
            (SimTime(t), q)
        })
        .collect()
}

proptest! {
    #[test]
    fn drive_matches_a_resolve_loop(seed in 0u64..1_000_000, timeout in 0.0f64..0.5) {
        // `drive` reuses one event buffer and the letter table built at
        // construction; a per-query `resolve` loop on an identically
        // seeded resolver must see the same latencies and root ledgers.
        let zone = RootZone::generate(1, 50);
        let config = ResolverConfig {
            auth_timeout_prob: timeout,
            bind_redundant_query_bug: true,
            ..Default::default()
        };
        let mut rtts = UpstreamRtts::uniform(0.0, 18.0, 35.0);
        for (i, (_, r)) in rtts.root_rtt_ms.iter_mut().enumerate() {
            *r = 12.0 + 23.0 * ((i as u64 * 7 + seed) % 13) as f64;
        }
        let mk = || RecursiveResolver::new(config.clone(), rtts.clone(), StdRng::seed_from_u64(seed));
        let stream = mixed_stream(seed, &zone, 400);

        let stats = mk().drive(stream.iter().map(|(t, q)| (*t, q)), &zone);

        let mut looped = mk();
        let (mut root, mut redundant, mut awaited) = (0u64, 0u64, 0u64);
        prop_assert_eq!(stats.latencies.len(), stream.len());
        // The slice iterator's size hint is exact: no regrown buffers.
        prop_assert_eq!(stats.latencies.capacity(), stream.len());
        prop_assert_eq!(stats.root_waits.capacity(), stream.len());
        for (i, (t, q)) in stream.iter().enumerate() {
            let res = looped.resolve(*t, q, &zone);
            prop_assert_eq!(stats.latencies[i].to_bits(), res.user_latency_ms.to_bits());
            prop_assert_eq!(stats.root_waits[i].to_bits(), res.root_wait_ms.to_bits());
            for ev in &res.events {
                if let ResolverEvent::RootQuery { awaited: a, redundant: r, .. } = ev {
                    root += 1;
                    redundant += u64::from(*r);
                    awaited += u64::from(*a);
                }
            }
        }
        prop_assert_eq!(stats.user_queries, stream.len() as u64);
        prop_assert_eq!(stats.root_queries, root);
        prop_assert_eq!(stats.redundant_root_queries, redundant);
        prop_assert_eq!(stats.awaited_root_queries, awaited);
    }

    #[test]
    fn merge_concatenates_shards_in_order(
        seed in 0u64..1_000_000,
        cuts in proptest::collection::vec(0usize..300, 0..6),
    ) {
        // Shards of one stream, each on its own resolver, as the fig12
        // campaign runs them; the merge must be their concatenation in
        // shard order, exactly sized, with summed counters.
        let zone = RootZone::generate(1, 50);
        let stream = mixed_stream(seed, &zone, 300);
        let mut cuts = cuts;
        cuts.extend([0, stream.len()]);
        cuts.sort_unstable();
        let shards: Vec<CampaignStats> = cuts
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let mut resolver = RecursiveResolver::new(
                    ResolverConfig::default(),
                    UpstreamRtts::uniform(0.0, 18.0, 35.0),
                    StdRng::seed_from_u64(seed + i as u64),
                );
                resolver.drive(stream[w[0]..w[1]].iter().map(|(t, q)| (*t, q)), &zone)
            })
            .collect();
        let concat = |series: fn(&CampaignStats) -> &Vec<f64>| -> Vec<u64> {
            shards.iter().flat_map(|s| series(s).iter().map(|v| v.to_bits())).collect()
        };
        let (latencies, root_waits) = (concat(|s| &s.latencies), concat(|s| &s.root_waits));
        let sum = |counter: fn(&CampaignStats) -> u64| shards.iter().map(counter).sum::<u64>();
        let sums = [
            sum(|s| s.user_queries),
            sum(|s| s.awaited_root_queries),
            sum(|s| s.root_queries),
            sum(|s| s.redundant_root_queries),
        ];

        let merged = CampaignStats::merge(shards.clone());

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&merged.latencies), latencies);
        prop_assert_eq!(bits(&merged.root_waits), root_waits);
        prop_assert_eq!(merged.latencies.capacity(), merged.latencies.len());
        prop_assert_eq!(merged.root_waits.capacity(), merged.root_waits.len());
        prop_assert_eq!(
            [
                merged.user_queries,
                merged.awaited_root_queries,
                merged.root_queries,
                merged.redundant_root_queries,
            ],
            sums
        );
    }

    #[test]
    fn letter_weights_form_a_distribution(rtts in arb_rtts(), e in 0.0f64..1.0) {
        let w = letter_weights(&rtts, e);
        let total: f64 = w.iter().map(|(_, x)| x).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(w.iter().all(|(_, x)| *x >= 0.0));
        // The fastest letter always gets the largest share.
        let best = rtts
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .0;
        let best_w = w.iter().find(|(l, _)| *l == best).expect("present").1;
        prop_assert!(w.iter().all(|(_, x)| *x <= best_w + 1e-12));
    }

    #[test]
    fn cache_never_serves_expired_tld_records(seed in 0u64..200, gap_hours in 49.0f64..400.0) {
        // Two queries for names under the same TLD, separated by more
        // than the 2-day TTL: the second MUST re-query a root.
        let zone = RootZone::generate(1, 50);
        let mut r = RecursiveResolver::new(
            ResolverConfig { auth_timeout_prob: 0.0, ..Default::default() },
            UpstreamRtts::uniform(50.0, 10.0, 10.0),
            StdRng::seed_from_u64(seed),
        );
        let first = r.resolve(SimTime::ZERO, &QueryName::valid_host("a", "com"), &zone);
        prop_assert!(first.root_wait_ms > 0.0);
        let second = r.resolve(
            SimTime::from_hours(gap_hours),
            &QueryName::valid_host("b", "com"),
            &zone,
        );
        prop_assert!(second.root_wait_ms > 0.0, "expired record served from cache");
    }

    #[test]
    fn cache_always_serves_fresh_tld_records(seed in 0u64..200, gap_hours in 13.0f64..47.0) {
        // Within the TTL (and past any answer-cache TTL, which tops out
        // at 6 h), a *different* name under the same TLD must not wait on
        // a root.
        let zone = RootZone::generate(1, 50);
        let mut r = RecursiveResolver::new(
            ResolverConfig { auth_timeout_prob: 0.0, ..Default::default() },
            UpstreamRtts::uniform(50.0, 10.0, 10.0),
            StdRng::seed_from_u64(seed),
        );
        r.resolve(SimTime::ZERO, &QueryName::valid_host("a", "com"), &zone);
        let second = r.resolve(
            SimTime::from_hours(gap_hours),
            &QueryName::valid_host("b", "com"),
            &zone,
        );
        prop_assert_eq!(second.root_wait_ms, 0.0);
    }

    #[test]
    fn resolution_latency_decomposes(seed in 0u64..200) {
        let zone = RootZone::generate(1, 50);
        let mut r = RecursiveResolver::new(
            ResolverConfig::default(),
            UpstreamRtts::uniform(60.0, 15.0, 25.0),
            StdRng::seed_from_u64(seed),
        );
        for i in 0..50u32 {
            let q = QueryName::valid_host(format!("h{i}"), "net");
            let res = r.resolve(SimTime::from_secs(i as f64 * 100.0), &q, &zone);
            prop_assert!(res.user_latency_ms >= res.root_wait_ms);
            prop_assert!(res.root_wait_ms >= 0.0);
        }
    }
}
