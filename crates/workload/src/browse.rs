//! Browsing-session workloads for the local-perspective experiments.
//!
//! §4.3's local measurements need realistic *user query streams*: the ISI
//! resolver served "hundreds of users on laptops" for a year; the two
//! authors ran local BINDs for four weeks; Appendix E replays the
//! GTmetrix top-1000 pages. [`BrowseGenerator`] produces those streams:
//! page visits that fan out into DNS lookups with realistic name reuse
//! (revisited sites hit the answer cache), plus the Chromium startup
//! probes and junk-suffix leakage real clients emit.

use dns::query::{QueryClass, QueryName, JUNK_SUFFIXES};
use dns::zone::RootZone;
use netsim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Third-party assets come from the most popular sites only.
const THIRD_PARTY_UNIVERSE: usize = 400;

/// Browsing workload parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrowseConfig {
    /// Number of users sharing the resolver.
    pub users: usize,
    /// Mean page visits per user per day.
    pub pages_per_user_per_day: f64,
    /// Mean DNS lookups per page (page + third-party assets).
    pub lookups_per_page: f64,
    /// Size of the site universe users draw from (Zipf).
    pub site_universe: usize,
    /// Browser restarts per user per day (each fires 3 Chromium probes).
    pub restarts_per_user_per_day: f64,
    /// Junk-suffix queries per user per day (OS/software leakage).
    pub junk_per_user_per_day: f64,
}

impl Default for BrowseConfig {
    fn default() -> Self {
        Self {
            users: 100,
            pages_per_user_per_day: 80.0,
            lookups_per_page: 8.0,
            site_universe: 4000,
            restarts_per_user_per_day: 2.0,
            junk_per_user_per_day: 3.0,
        }
    }
}

/// One user query arriving at the resolver.
#[derive(Debug, Clone)]
pub struct BrowseEvent {
    /// Arrival time.
    pub t: SimTime,
    /// The query. Every event for one name shares one allocation; only
    /// the Chromium probes' random labels are fresh.
    pub query: Arc<QueryName>,
}

/// Generates browsing query streams.
#[derive(Debug)]
pub struct BrowseGenerator {
    config: BrowseConfig,
    rng: StdRng,
    /// Site universe in Zipf rank order, names built once.
    sites: Vec<Site>,
    /// One query per [`JUNK_SUFFIXES`] entry, in its order.
    junk: Vec<Arc<QueryName>>,
    /// Zipf prefix sums: entry `k` is `Σ_{i=1..=k+1} 1/i`, summed in rank
    /// order, so entry `n - 1` is the normaliser `H_n` of the universe of
    /// the top `n` sites (the third-party universe is a prefix).
    prefix: Vec<f64>,
}

/// One site's names, each built once and shared by every event that
/// looks it up.
#[derive(Debug)]
struct Site {
    /// `site{i}.{tld}`.
    name: Arc<QueryName>,
    /// `cdn.site{i}.{tld}`: the name a third-party asset fetch looks up.
    cdn: Arc<QueryName>,
    /// `static{k}.site{i}.{tld}` at index `k`, built on first use.
    statics: Vec<Option<Arc<QueryName>>>,
}

impl Site {
    /// The site's `k`-th own-subdomain asset name.
    fn static_name(&mut self, k: usize) -> Arc<QueryName> {
        if self.statics.len() <= k {
            self.statics.resize(k + 1, None);
        }
        let name = &self.name;
        Arc::clone(self.statics[k].get_or_insert_with(|| {
            Arc::new(QueryName {
                fqdn: format!("static{k}.{}", name.fqdn),
                tld: name.tld.clone(),
                class: QueryClass::ValidTld,
            })
        }))
    }
}

/// The rank a uniform draw `x` in `[0, H_n)` selects when it is
/// certified: binary search finds the first prefix sum reaching `x`, and
/// the result stands only when `x` lies more than
/// `δ = 8·n·ε·H_n` from both neighbouring prefix sums (ε is
/// `f64::EPSILON`). The rank-order scan [`scan_rank`] and the table each
/// round `n` times by at most `ε/2·H_n`, so the scan's running value
/// stays within `n·ε·H_n` of `x − prefix[k]` and takes the same sign
/// as it at every step: the scan returns the same rank. `None` (the
/// draw falls within `δ` of a boundary, or past the last sum) leaves the
/// draw to the scan (DESIGN.md decision 9).
fn certified_rank(prefix: &[f64], x: f64) -> Option<usize> {
    let n = prefix.len();
    let delta = 8.0 * n as f64 * f64::EPSILON * prefix[n - 1];
    let k = prefix.partition_point(|&p| p < x);
    let clear_above = prefix.get(k).is_some_and(|&p| p - x > delta);
    let clear_below = k == 0 || x - prefix[k - 1] > delta;
    (clear_above && clear_below).then_some(k)
}

/// Zipf(1) rank in `[0, n)` of a uniform draw `x` in `[0, H_n)`:
/// subtracts `1/k` in rank order until `x` is spent. This is the draw's
/// definition; [`certified_rank`] reproduces it where it can prove the
/// same result.
fn scan_rank(n: usize, mut x: f64) -> usize {
    for k in 1..=n {
        x -= 1.0 / k as f64;
        if x <= 0.0 {
            return k - 1;
        }
    }
    n - 1
}

impl BrowseGenerator {
    /// Creates a generator over `zone`'s TLDs.
    pub fn new(config: BrowseConfig, zone: &RootZone, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb205_e000_0000_0001);
        let sites = (0..config.site_universe)
            .map(|i| {
                let tld = &zone.tld(zone.sample_tld(&mut rng)).name;
                Site {
                    name: Arc::new(QueryName::valid_host(format!("site{i}"), tld)),
                    cdn: Arc::new(QueryName::valid_host(format!("cdn.site{i}"), tld)),
                    statics: Vec::new(),
                }
            })
            .collect();
        let junk = JUNK_SUFFIXES.iter().map(|s| Arc::new(QueryName::junk(*s))).collect();
        let prefix = (1..=config.site_universe)
            .scan(0.0, |sum, k| {
                *sum += 1.0 / k as f64;
                Some(*sum)
            })
            .collect();
        Self { config, rng, sites, junk, prefix }
    }

    /// Generates `days` of queries, time-ordered.
    pub fn generate(&mut self, days: f64) -> Vec<BrowseEvent> {
        let mut events: Vec<BrowseEvent> = Vec::new();
        let day_ms = 86_400_000.0;
        let horizon = days * day_ms;
        let cfg = self.config.clone();
        let n_third = cfg.site_universe.min(THIRD_PARTY_UNIVERSE);

        // Page visits (all users pooled — the resolver can't tell apart).
        let total_pages = (cfg.users as f64 * cfg.pages_per_user_per_day * days) as usize;
        for _ in 0..total_pages {
            let t0 = self.rng.gen_range(0.0..horizon);
            // Zipf site choice.
            let site_idx = self.zipf(cfg.site_universe);
            let n_lookups = 1 + self.poisson_ish(cfg.lookups_per_page - 1.0);
            for k in 0..n_lookups {
                // First lookup is the site itself; the rest are assets on
                // a mix of its own subdomains and popular third parties.
                let q = if k == 0 {
                    Arc::clone(&self.sites[site_idx].name)
                } else if self.rng.gen_bool(0.6) {
                    // Third-party asset: another (usually popular) site.
                    let third = self.zipf(n_third);
                    Arc::clone(&self.sites[third].cdn)
                } else {
                    self.sites[site_idx].static_name(k)
                };
                events.push(BrowseEvent { t: SimTime(t0 + k as f64 * 35.0), query: q });
            }
        }

        // Chromium startup probes: 3 random labels per restart.
        let restarts = (cfg.users as f64 * cfg.restarts_per_user_per_day * days) as usize;
        for _ in 0..restarts {
            let t0 = self.rng.gen_range(0.0..horizon);
            for k in 0..3 {
                let len = self.rng.gen_range(7..=15);
                let label: String =
                    (0..len).map(|_| (b'a' + self.rng.gen_range(0..26)) as char).collect();
                events.push(BrowseEvent {
                    t: SimTime(t0 + k as f64 * 2.0),
                    query: Arc::new(QueryName::chromium_probe(label)),
                });
            }
        }

        // Junk-suffix leakage.
        let junk = (cfg.users as f64 * cfg.junk_per_user_per_day * days) as usize;
        for _ in 0..junk {
            let t = SimTime(self.rng.gen_range(0.0..horizon));
            let query = Arc::clone(&self.junk[self.rng.gen_range(0..self.junk.len())]);
            events.push(BrowseEvent { t, query });
        }

        events.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite times"));
        events
    }

    /// Zipf(1)-ish index in `[0, n)`: certified binary search, else the
    /// rank-order scan (DESIGN.md decision 9).
    fn zipf(&mut self, n: usize) -> usize {
        let prefix = &self.prefix[..n];
        let x = self.rng.gen_range(0.0..prefix[n - 1]);
        certified_rank(prefix, x).unwrap_or_else(|| scan_rank(n, x))
    }

    fn poisson_ish(&mut self, lambda: f64) -> usize {
        let floor = lambda.max(0.0).floor() as usize;
        let mut v = 0;
        for _ in 0..floor * 2 {
            if self.rng.gen_bool(0.5) {
                v += 1;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_day() -> Vec<BrowseEvent> {
        let zone = RootZone::generate(1, 200);
        let mut g = BrowseGenerator::new(
            BrowseConfig { users: 20, ..Default::default() },
            &zone,
            7,
        );
        g.generate(1.0)
    }

    #[test]
    fn events_are_time_ordered_within_horizon() {
        let events = gen_day();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
        assert!(events.last().expect("non-empty").t.as_ms() <= 86_400_000.0 + 1e4);
    }

    #[test]
    fn traffic_is_mostly_valid_with_probe_and_junk_minority() {
        let events = gen_day();
        let n = events.len() as f64;
        let count = |c: QueryClass| {
            events.iter().filter(|e| e.query.class == c).count() as f64 / n
        };
        assert!(count(QueryClass::ValidTld) > 0.8);
        assert!(count(QueryClass::ChromiumProbe) > 0.0);
        assert!(count(QueryClass::JunkSuffix) > 0.0);
    }

    #[test]
    fn popular_sites_are_revisited() {
        let events = gen_day();
        use std::collections::HashMap;
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for e in &events {
            if e.query.class == QueryClass::ValidTld {
                *counts.entry(e.query.fqdn.as_str()).or_default() += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 3, "Zipf reuse should revisit popular names (max {max})");
    }

    /// The draw before the tables and the search: `1/k` recomputed and
    /// subtracted in rank order.
    fn reference_zipf(n: usize, mut x: f64) -> usize {
        for k in 1..=n {
            x -= 1.0 / k as f64;
            if x <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// `x` moved by `steps` ulps (`x` positive and finite).
    fn ulps(x: f64, steps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + steps) as u64)
    }

    #[test]
    fn certified_zipf_matches_the_rank_order_scan() {
        let zone = RootZone::generate(1, 50);
        for n in [1, 2, 400, 4000] {
            let mut g = BrowseGenerator::new(BrowseConfig::default(), &zone, n as u64);
            // `H_n` as the draw before the tables summed it.
            let h_n: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
            assert_eq!(g.prefix[n - 1].to_bits(), h_n.to_bits(), "n {n}");
            let mut reference = g.rng.clone();
            let mut certified = 0;
            for draw in 0..1_000_000 {
                let x = reference.gen_range(0.0..h_n);
                certified += usize::from(certified_rank(&g.prefix[..n], x).is_some());
                assert_eq!(g.zipf(n), reference_zipf(n, x), "n {n} draw {draw}");
            }
            // The search, not the scan, must carry the draws.
            assert!(certified > 999_000, "n {n}: only {certified} draws certified");
        }
    }

    #[test]
    fn draws_near_a_prefix_sum_take_the_scan() {
        let zone = RootZone::generate(1, 50);
        let g = BrowseGenerator::new(BrowseConfig::default(), &zone, 1);
        for n in [1, 2, 400, 4000] {
            let prefix = &g.prefix[..n];
            for k in 0..n {
                for j in -4..=4 {
                    let x = ulps(prefix[k], j);
                    if x >= prefix[n - 1] {
                        continue; // outside the draw's range [0, H_n)
                    }
                    assert_eq!(certified_rank(prefix, x), None, "n {n} k {k} j {j}");
                    assert_eq!(scan_rank(n, x), reference_zipf(n, x), "n {n} k {k} j {j}");
                }
            }
        }
    }

    /// FNV-1a over every event's `(t bits, fqdn, tld, class)`.
    fn digest(events: &[BrowseEvent]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for e in events {
            eat(&e.t.as_ms().to_bits().to_le_bytes());
            eat(e.query.fqdn.as_bytes());
            eat(&[0]);
            eat(e.query.tld.as_bytes());
            eat(&[0, e.query.class as u8]);
        }
        h
    }

    /// Pins the exact stream (every draw, time bit and name) so a faster
    /// generator cannot silently become a different model.
    #[test]
    fn generated_stream_matches_golden_digest() {
        let events = gen_day();
        assert_eq!(events.len(), 12_890);
        assert_eq!(digest(&events), 0x8291_0017_f0a0_fe16);
    }

    #[test]
    fn generation_is_deterministic() {
        let zone = RootZone::generate(1, 200);
        let mk = || {
            BrowseGenerator::new(BrowseConfig { users: 5, ..Default::default() }, &zone, 3)
                .generate(0.5)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query.fqdn, y.query.fqdn);
        }
    }
}
