//! Streaming query-schedule generation: stateless, seed-pure per-user
//! query counts for each replay window.
//!
//! A schedule never materializes a query list. For window `w` and user
//! `u` it computes `expected = qpd[u] · f · window/day`, where `f` is
//! the rate factor of `u`'s class (DNS or CDN), and stochastically
//! rounds it with one `par::seed_for(seed, w·N + u)` draw,
//! `floor(expected + par::unit_f64(..))`, so the count is a pure
//! function of `(seed, window, user, current qpd)`. Demand surges fold
//! in for free: `qpd` is read from the engine's live per-user query
//! volumes each window, so a `DemandScale` event doubles next window's
//! draw without any schedule state. That statelessness is what makes
//! replay shardable: any thread can serve any cohort slice of any
//! window independently.

/// Milliseconds in a day — the denominator turning a per-day query
/// volume into a per-window expectation.
pub(crate) const DAY_MS: f64 = 86_400_000.0;

/// Salt mixed into the campaign seed for the one-time user classing
/// draw (DNS vs CDN), keeping it independent of the per-window count
/// stream drawn from the unsalted seed.
const CLASS_SALT: u64 = 0x5245_504c_4159; // "REPLAY"

/// Tuning knobs for a replay run.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Campaign seed; every draw derives from it via `par::seed_for`.
    pub seed: u64,
    /// Serving-window length, simulated ms. Queries within a window
    /// resolve against the catchment as of the window's start.
    pub window_ms: f64,
    /// Replay horizon, simulated ms; `ceil(horizon/window)` windows.
    pub horizon_ms: f64,
    /// Fraction of users classed as DNS (resolver-amortized); the rest
    /// are CDN (per-connection).
    pub dns_user_share: f64,
    /// Share of a DNS user's queries that can never be answered from a
    /// resolver cache (Chromium-style junk probes; see
    /// `DitlConfig::uncacheable_share` in the workload crate).
    pub dns_uncacheable_share: f64,
    /// Cache-miss rate for the cacheable remainder (the paper measures
    /// ≈0.5–1.5% against the two-day TLD TTL).
    pub dns_miss_rate: f64,
    /// Connections a CDN user opens per logical query (each pays the
    /// full anycast RTT).
    pub cdn_conns_per_query: f64,
}

impl Default for ReplayConfig {
    /// One-minute windows over a 15-minute horizon, an even DNS/CDN
    /// split, and the paper's cache parameters (≈53% uncacheable from
    /// the DITL junk mix, 1% miss rate on the rest).
    fn default() -> Self {
        Self {
            seed: 2021,
            window_ms: 60_000.0,
            horizon_ms: 900_000.0,
            dns_user_share: 0.5,
            dns_uncacheable_share: 0.53,
            dns_miss_rate: 0.01,
            cdn_conns_per_query: 1.0,
        }
    }
}

/// Precomputed replay rates: each user's class (DNS or CDN) and, per
/// class, the factor converting a daily query volume into the volume
/// the anycast service actually sees.
///
/// DNS users get `amortized_root_rate(1, uncacheable, miss)` — the
/// resolver-cache survival fraction — so a 100 q/day user might send
/// only a handful of root-visible queries per day. CDN users get
/// `cdn_conns_per_query`, since every connection pays the RTT.
#[derive(Debug, Clone)]
pub(crate) struct QuerySchedule {
    seed: u64,
    /// `window_ms / DAY_MS`, folded once.
    window_frac: f64,
    /// Rate factor (multiplies the live `queries_per_day`) indexed by
    /// `is_dns as usize`: the CDN factor, then the DNS one.
    class_factor: [f64; 2],
    /// Per-user class: `true` = DNS (amortized), `false` = CDN.
    is_dns: Vec<bool>,
}

impl QuerySchedule {
    /// Builds the per-user schedule for a `population`-user engine.
    ///
    /// Classing is one salted `seed_for` draw per user, so the DNS/CDN
    /// split is stable across runs, thread counts, and scenarios.
    ///
    /// # Panics
    ///
    /// Panics when a share lies outside `[0, 1]`, the window is not
    /// positive and finite, or the connections per query are negative
    /// or not finite.
    pub(crate) fn new(population: usize, cfg: &ReplayConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.dns_user_share),
            "dns_user_share must be a fraction"
        );
        assert!(
            cfg.window_ms > 0.0 && cfg.window_ms.is_finite(),
            "window must be positive and finite"
        );
        assert!(
            cfg.cdn_conns_per_query >= 0.0 && cfg.cdn_conns_per_query.is_finite(),
            "connections per query must be non-negative and finite"
        );
        let dns_factor =
            dns::resolver::amortized_root_rate(1.0, cfg.dns_uncacheable_share, cfg.dns_miss_rate);
        let is_dns = (0..population)
            .map(|u| par::unit_f64(par::seed_for(cfg.seed ^ CLASS_SALT, u as u64)) < cfg.dns_user_share)
            .collect();
        Self {
            seed: cfg.seed,
            window_frac: cfg.window_ms / DAY_MS,
            class_factor: [cfg.cdn_conns_per_query, dns_factor],
            is_dns,
        }
    }

    /// Batched counts for one cohort's member range — the replay hot
    /// path. `queries_per_day` is the cohort's slice of the engine's
    /// live per-user query volumes starting at user id `start`; returns
    /// the cohort's `(dns, cdn)` query totals for the window.
    ///
    /// The per-user cost is one `seed_for` plus a few multiplies: the
    /// factor is a load indexed by the class, the DNS total a masked
    /// sum (the CDN one is the rest), and both conversions go through
    /// `i64`, which baseline x86-64 converts in one instruction.
    /// `expected + u` lies in `[0, 2⁶³)` wherever the volumes are
    /// non-negative and a user's expectation stays below 2⁶³ − 1
    /// queries per window, and there `as i64 as u64` equals `as u64`
    /// (DESIGN.md decision 14).
    #[inline]
    pub(crate) fn window_counts(&self, window: u64, start: u32, queries_per_day: &[f64]) -> (u64, u64) {
        let lo = start as usize;
        let is_dns = &self.is_dns[lo..lo + queries_per_day.len()];
        let base = window
            .wrapping_mul(self.is_dns.len() as u64)
            .wrapping_add(lo as u64);
        let mut total = 0u64;
        let mut dns = 0u64;
        for (i, (&qpd, &dns_user)) in queries_per_day.iter().zip(is_dns).enumerate() {
            let expected = qpd * self.class_factor[dns_user as usize] * self.window_frac;
            let u = par::unit_f64(par::seed_for(self.seed, base.wrapping_add(i as u64)));
            let n = (expected + u) as i64 as u64;
            total += n;
            dns += n & (dns_user as u64).wrapping_neg();
        }
        (dns, total - dns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-user schedule [`QuerySchedule::window_counts`] replaced,
    /// kept as its bit-for-bit reference: a factor per user, the
    /// unsigned conversions, and a branch on the class.
    struct Reference {
        seed: u64,
        window_frac: f64,
        factor: Vec<f64>,
        is_dns: Vec<bool>,
    }

    fn u01(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    impl Reference {
        fn new(population: usize, cfg: &ReplayConfig) -> Self {
            let dns_factor =
                dns::resolver::amortized_root_rate(1.0, cfg.dns_uncacheable_share, cfg.dns_miss_rate);
            let mut factor = Vec::with_capacity(population);
            let mut is_dns = Vec::with_capacity(population);
            for u in 0..population {
                let dns_user = u01(par::seed_for(cfg.seed ^ CLASS_SALT, u as u64)) < cfg.dns_user_share;
                is_dns.push(dns_user);
                factor.push(if dns_user { dns_factor } else { cfg.cdn_conns_per_query });
            }
            Self { seed: cfg.seed, window_frac: cfg.window_ms / DAY_MS, factor, is_dns }
        }

        fn queries_in_window(&self, window: u64, u: usize, queries_per_day: f64) -> u64 {
            let expected = queries_per_day * self.factor[u] * self.window_frac;
            let slot = window
                .wrapping_mul(self.factor.len() as u64)
                .wrapping_add(u as u64);
            (expected + u01(par::seed_for(self.seed, slot))) as u64
        }

        fn window_counts(&self, window: u64, start: usize, queries_per_day: &[f64]) -> (u64, u64) {
            let (mut dns, mut cdn) = (0u64, 0u64);
            for (i, &q) in queries_per_day.iter().enumerate() {
                let n = self.queries_in_window(window, start + i, q);
                if self.is_dns[start + i] {
                    dns += n;
                } else {
                    cdn += n;
                }
            }
            (dns, cdn)
        }
    }

    /// The accessors the tests read.
    impl QuerySchedule {
        /// Expanded population the schedule was built for.
        fn population(&self) -> usize {
            self.is_dns.len()
        }

        /// Whether user `u` is DNS-classed (resolver-amortized).
        fn is_dns(&self, u: usize) -> bool {
            self.is_dns[u]
        }

        /// Query count for one `(window, user)` slot given the user's
        /// *current* daily query volume.
        fn queries_in_window(&self, window: u64, u: usize, queries_per_day: f64) -> u64 {
            let (dns, cdn) = self.window_counts(window, u as u32, &[queries_per_day]);
            dns + cdn
        }
    }

    /// A daily volume: zero, a subnormal, or a value up to 1e12.
    fn volume((code, bits, frac): (u32, u64, f64)) -> f64 {
        match code {
            0 => 0.0,
            1 => f64::from_bits(bits),
            2 => frac,
            3 => frac * 1e4,
            4 => 1e12,
            _ => frac * 1e12,
        }
    }

    /// A share of 0, of 1, or anything between.
    fn share((code, frac): (u32, f64)) -> f64 {
        match code {
            0 => 0.0,
            1 => 1.0,
            _ => frac,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every batched count equals the per-user reference's to the
        /// bit, and so does the class split.
        #[test]
        fn window_counts_match_the_per_user_reference(
            seed in 0u64..u64::MAX,
            population in 1usize..400,
            cohort in (0.0f64..1.0, 0.0f64..1.0),
            windows in proptest::collection::vec(0u64..u64::MAX, 1..4),
            volumes in proptest::collection::vec((0u32..6, 0u64..1 << 52, 0.0f64..1.0), 400),
            window in (0u32..2, 1.0f64..1e9),
            shares in proptest::collection::vec((0u32..4, 0.0f64..1.0), 3),
            cdn_conns in (0u32..3, 0.0f64..8.0),
        ) {
            let cfg = ReplayConfig {
                seed,
                window_ms: if window.0 == 0 { 60_000.0 } else { window.1 },
                horizon_ms: window.1,
                dns_user_share: share(shares[0]),
                dns_uncacheable_share: share(shares[1]),
                dns_miss_rate: share(shares[2]),
                cdn_conns_per_query: match cdn_conns.0 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => cdn_conns.1,
                },
            };
            let schedule = QuerySchedule::new(population, &cfg);
            let reference = Reference::new(population, &cfg);
            prop_assert_eq!(&schedule.is_dns, &reference.is_dns);
            let start = ((population as f64 * cohort.0) as usize).min(population - 1);
            let len = ((population - start) as f64 * cohort.1) as usize;
            let qpd: Vec<f64> = volumes[..len].iter().copied().map(volume).collect();
            for w in windows {
                prop_assert_eq!(
                    schedule.window_counts(w, start as u32, &qpd),
                    reference.window_counts(w, start, &qpd),
                    "window {}, users {}..{}", w, start, start + len
                );
            }
        }
    }

    #[test]
    fn class_split_tracks_the_configured_share() {
        let cfg = ReplayConfig { dns_user_share: 0.25, ..ReplayConfig::default() };
        let s = QuerySchedule::new(40_000, &cfg);
        let dns = (0..s.population()).filter(|&u| s.is_dns(u)).count() as f64;
        let share = dns / s.population() as f64;
        assert!((share - 0.25).abs() < 0.01, "share {share} far from 0.25");
    }

    #[test]
    fn dns_users_are_amortized_below_cdn_users() {
        let s = QuerySchedule::new(10_000, &ReplayConfig::default());
        let (mut dns_total, mut cdn_total) = (0u64, 0u64);
        let (mut dns_users, mut cdn_users) = (0u64, 0u64);
        for u in 0..s.population() {
            let n: u64 = (0..24).map(|w| s.queries_in_window(w, u, 100.0)).sum();
            if s.is_dns(u) {
                dns_total += n;
                dns_users += 1;
            } else {
                cdn_total += n;
                cdn_users += 1;
            }
        }
        let dns_rate = dns_total as f64 / dns_users as f64;
        let cdn_rate = cdn_total as f64 / cdn_users as f64;
        assert!(
            dns_rate < 0.8 * cdn_rate,
            "resolver caches should absorb most DNS demand: {dns_rate} vs {cdn_rate}"
        );
    }

    #[test]
    fn stochastic_rounding_is_unbiased_and_seed_pure() {
        let s = QuerySchedule::new(1, &ReplayConfig { cdn_conns_per_query: 1.0, ..Default::default() });
        // qpd chosen so the per-window expectation is fractional.
        let qpd = 3.7 * DAY_MS / 60_000.0;
        let total: u64 = (0..10_000).map(|w| s.queries_in_window(w, 0, qpd)).sum();
        let mean = total as f64 / 10_000.0;
        let factor = if s.is_dns(0) {
            dns::resolver::amortized_root_rate(1.0, 0.53, 0.01)
        } else {
            1.0
        };
        let expected = 3.7 * factor;
        assert!((mean - expected).abs() < 0.05 * expected + 0.05, "mean {mean} vs {expected}");
        // Same slot, same draw.
        assert_eq!(s.queries_in_window(7, 0, qpd), s.queries_in_window(7, 0, qpd));
    }

    #[test]
    fn batched_counts_match_the_single_slot_path() {
        let cfg = ReplayConfig::default();
        let qpd: Vec<f64> = (0..32).map(|i| 50.0 + i as f64 * 7.0).collect();
        let want = Reference::new(64, &cfg).window_counts(3, 16, &qpd);
        assert!(want.0 > 0 && want.1 > 0, "both classes draw queries");
        assert_eq!(QuerySchedule::new(64, &cfg).window_counts(3, 16, &qpd), want);
    }
}
