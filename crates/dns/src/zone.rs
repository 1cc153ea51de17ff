//! The root zone: TLDs, TTLs, and popularity.
//!
//! "There are approximately one thousand TLDs, and nearly all of the
//! corresponding DNS records have a TTL of two days" (§4.1). The zone's
//! TLD count and TTL drive both the *Ideal* line of Fig. 3 (one query per
//! TLD per TTL, amortized over users) and the cache model's miss rates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// TTL of TLD NS/A/AAAA records at the root: two days, in ms.
pub const TLD_TTL_MS: f64 = 2.0 * 24.0 * 3_600_000.0;

/// One top-level domain in the root zone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tld {
    /// Label, e.g. `"com"`.
    pub name: String,
    /// Relative query popularity (Zipf-distributed across the zone).
    pub popularity: f64,
    /// Number of authoritative nameservers for the TLD.
    pub(crate) nameservers: u8,
    /// Whether the TLD's referral responses include AAAA glue for all of
    /// its nameservers. When `false`, a BIND-like resolver that loses a
    /// query to an authoritative server will go back to the *roots* for
    /// the missing AAAA records — the Appendix E pathology.
    pub full_aaaa_glue: bool,
}

/// The root zone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootZone {
    tlds: Vec<Tld>,
    total_popularity: f64,
}

/// Well-known TLD heads, given the bulk of real-world popularity.
const POPULAR_TLDS: &[&str] = &[
    "com", "net", "org", "de", "uk", "cn", "jp", "fr", "br", "it", "ru", "nl", "io", "info",
    "biz", "edu", "gov", "au", "ca", "in", "us", "es", "se", "ch", "pl",
];

impl RootZone {
    /// Generates a zone with `n` TLDs (the paper-scale default is 1000):
    /// the well-known heads followed by synthetic gTLDs, with Zipf
    /// (s ≈ 1) popularity.
    pub fn generate(seed: u64, n: usize) -> Self {
        assert!(n >= POPULAR_TLDS.len(), "zone must fit the well-known TLDs");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a31_99d1_0b6c_4e2f);
        let mut tlds = Vec::with_capacity(n);
        for i in 0..n {
            let name = if i < POPULAR_TLDS.len() {
                POPULAR_TLDS[i].to_string()
            } else {
                format!("gtld{i}")
            };
            // Zipf popularity with exponent 1.7: the head (com, net, …)
            // carries most queries, as in real TLD traffic.
            let popularity = 1.0 / (i as f64 + 1.0).powf(1.7);
            // Most TLD referrals carry full A glue but incomplete AAAA
            // glue (Appendix E: "usually there are more A-type records in
            // the Additional Records section than AAAA-type").
            let full_aaaa_glue = rng.gen_bool(0.3);
            let nameservers = rng.gen_range(2..=8);
            tlds.push(Tld { name, popularity, nameservers, full_aaaa_glue });
        }
        let total_popularity = tlds.iter().map(|t| t.popularity).sum();
        Self { tlds, total_popularity }
    }

    /// Paper-scale zone: 1000 TLDs.
    pub fn paper_scale(seed: u64) -> Self {
        Self::generate(seed, 1000)
    }

    /// All TLDs.
    pub fn tlds(&self) -> &[Tld] {
        &self.tlds
    }

    /// Number of TLDs.
    pub(crate) fn len(&self) -> usize {
        self.tlds.len()
    }

    /// Index of a TLD by name, if it exists.
    pub(crate) fn find(&self, name: &str) -> Option<usize> {
        self.tlds.iter().position(|t| t.name == name)
    }

    /// TLD by index.
    pub fn tld(&self, idx: usize) -> &Tld {
        &self.tlds[idx]
    }

    /// Samples a TLD index by popularity.
    pub fn sample_tld<R: Rng>(&self, rng: &mut R) -> usize {
        let mut x = rng.gen_range(0.0..self.total_popularity);
        for (i, t) in self.tlds.iter().enumerate() {
            x -= t.popularity;
            if x <= 0.0 {
                return i;
            }
        }
        self.tlds.len() - 1
    }

    /// The ideal daily root-query rate of one perfectly-caching recursive:
    /// every TLD's records fetched exactly once per TTL (Fig. 3's *Ideal*
    /// line assumption).
    pub fn ideal_daily_queries_per_recursive(&self) -> f64 {
        let ttl_days = TLD_TTL_MS / 86_400_000.0;
        self.tlds.len() as f64 / ttl_days
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_has_1000_tlds_and_com_is_first() {
        let z = RootZone::paper_scale(1);
        assert_eq!(z.len(), 1000);
        assert_eq!(z.tld(0).name, "com");
        assert_eq!(z.find("com"), Some(0));
        assert!(z.find("net").is_some());
        assert_eq!(z.find("local"), None);
    }

    #[test]
    fn popularity_is_zipf_descending() {
        let z = RootZone::paper_scale(2);
        for w in z.tlds().windows(2) {
            assert!(w[0].popularity >= w[1].popularity);
        }
    }

    #[test]
    fn sampling_respects_popularity() {
        let z = RootZone::generate(3, 100);
        let mut rng = StdRng::seed_from_u64(4);
        let mut head = 0;
        let n = 10_000;
        for _ in 0..n {
            if z.sample_tld(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top 10 of 100 Zipf(1.7) TLDs carry ~90% of mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.8, "head fraction {frac}");
    }

    #[test]
    fn ideal_rate_is_half_the_zone_per_day() {
        // 1000 TLDs / 2-day TTL = 500 queries/day for a perfect recursive.
        let z = RootZone::paper_scale(5);
        assert!((z.ideal_daily_queries_per_recursive() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn ttl_is_two_days() {
        assert_eq!(TLD_TTL_MS, 172_800_000.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = RootZone::generate(7, 200);
        let b = RootZone::generate(7, 200);
        for (x, y) in a.tlds().iter().zip(b.tlds()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.full_aaaa_glue, y.full_aaaa_glue);
            assert_eq!(x.nameservers, y.nameservers);
        }
    }
}
