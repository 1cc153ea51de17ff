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
    /// The query.
    pub query: QueryName,
}

/// Generates browsing query streams.
#[derive(Debug)]
pub struct BrowseGenerator {
    config: BrowseConfig,
    rng: StdRng,
    /// Site universe in Zipf rank order, names rendered once.
    sites: Vec<Site>,
    /// `1/k` for `k` in `1..=site_universe`; the third-party universe is
    /// a prefix.
    recip: Vec<f64>,
    /// Zipf normaliser `H_n` of the site universe.
    h_sites: f64,
    /// Zipf normaliser of the third-party universe (its top 400 sites).
    h_third: f64,
}

/// One site's names, lower-cased as [`QueryName::valid_host`] renders
/// them.
#[derive(Debug)]
struct Site {
    /// `site{i}.{tld}`.
    fqdn: String,
    /// `cdn.site{i}.{tld}`: the name a third-party asset fetch looks up.
    cdn_fqdn: String,
    /// The site's TLD.
    tld: String,
}

impl Site {
    fn query(&self, fqdn: String) -> QueryName {
        QueryName { fqdn, tld: self.tld.clone(), class: QueryClass::ValidTld }
    }
}

/// `H_n = Σ_{k=1..n} 1/k`, summed in the order the draw scans.
fn harmonic(n: usize) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

impl BrowseGenerator {
    /// Creates a generator over `zone`'s TLDs.
    pub fn new(config: BrowseConfig, zone: &RootZone, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb205_e000_0000_0001);
        let sites = (0..config.site_universe)
            .map(|i| {
                let tld = zone.tld(zone.sample_tld(&mut rng)).name.to_ascii_lowercase();
                let fqdn = format!("site{i}.{tld}");
                Site { cdn_fqdn: format!("cdn.{fqdn}"), fqdn, tld }
            })
            .collect();
        let recip = (1..=config.site_universe).map(|k| 1.0 / k as f64).collect();
        let h_sites = harmonic(config.site_universe);
        let h_third = harmonic(config.site_universe.min(THIRD_PARTY_UNIVERSE));
        Self { config, rng, sites, recip, h_sites, h_third }
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
            let site_idx = self.zipf(cfg.site_universe, self.h_sites);
            let n_lookups = 1 + self.poisson_ish(cfg.lookups_per_page - 1.0);
            for k in 0..n_lookups {
                // First lookup is the site itself; the rest are assets on
                // a mix of its own subdomains and popular third parties.
                let q = if k == 0 {
                    let site = &self.sites[site_idx];
                    site.query(site.fqdn.clone())
                } else if self.rng.gen_bool(0.6) {
                    // Third-party asset: another (usually popular) site.
                    let third = self.zipf(n_third, self.h_third);
                    let third = &self.sites[third];
                    third.query(third.cdn_fqdn.clone())
                } else {
                    let site = &self.sites[site_idx];
                    site.query(format!("static{k}.{}", site.fqdn))
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
                    query: QueryName::chromium_probe(label),
                });
            }
        }

        // Junk-suffix leakage.
        let junk = (cfg.users as f64 * cfg.junk_per_user_per_day * days) as usize;
        for _ in 0..junk {
            let t = SimTime(self.rng.gen_range(0.0..horizon));
            let suffix = JUNK_SUFFIXES[self.rng.gen_range(0..JUNK_SUFFIXES.len())];
            events.push(BrowseEvent { t, query: QueryName::junk(suffix) });
        }

        events.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite times"));
        events
    }

    /// Zipf(1)-ish index in `[0, n)`; `h_n` is [`harmonic`]`(n)`. The
    /// scan must subtract `1/k` in rank order: a binary search or alias
    /// table would move draws at ulp boundaries (DESIGN.md decision 9).
    fn zipf(&mut self, n: usize, h_n: f64) -> usize {
        let mut x = self.rng.gen_range(0.0..h_n);
        for (i, r) in self.recip[..n].iter().enumerate() {
            x -= r;
            if x <= 0.0 {
                return i;
            }
        }
        n - 1
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

    /// The draw before the tables: `H_n` and every `1/k` recomputed per
    /// call.
    fn reference_zipf(rng: &mut StdRng, n: usize) -> usize {
        let h_n: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut x = rng.gen_range(0.0..h_n);
        for k in 1..=n {
            x -= 1.0 / k as f64;
            if x <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    #[test]
    fn table_zipf_matches_the_per_draw_loop() {
        let zone = RootZone::generate(1, 50);
        for n in [1, 2, 400, 4000] {
            let mut g = BrowseGenerator::new(BrowseConfig::default(), &zone, n as u64);
            let h_n = harmonic(n);
            let mut reference = g.rng.clone();
            for draw in 0..10_000 {
                assert_eq!(g.zipf(n, h_n), reference_zipf(&mut reference, n), "n {n} draw {draw}");
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
