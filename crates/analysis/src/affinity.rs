//! Site affinity within /24s (Eq. 3, Fig. 10, Appendix B.2).
//!
//! The /24 join is justified by showing addresses in a /24 are routed
//! together: for each ⟨letter, /24⟩, Eq. 3 computes the fraction of the
//! /24's queries that did *not* go to its most popular ("favorite")
//! site. Fig. 10 plots the CDF over /24s per letter; >80% of /24s send
//! every query to one site.

use crate::preprocess::CleanDitl;
use crate::stats::WeightedCdf;
use dns::letters::Letter;
use par::DetHashMap as HashMap;
use topology::{Prefix24, SiteId};


/// Eq. 3 for every ⟨letter, /24⟩: `1 − max_site(q) / Q`.
///
/// Only /24s with more than one *source IP* observed count, matching the
/// paper ("we do not include /24s that had only one IP from the /24
/// visit the root letter in question").
pub fn favorite_site_miss_fractions(clean: &CleanDitl) -> Vec<(Letter, WeightedCdf)> {
    // (letter, prefix) → (site → volume, distinct source IPs).
    struct Acc {
        by_site: HashMap<SiteId, f64>,
        ips: par::DetHashSet<u8>,
    }
    let mut acc: HashMap<(Letter, Prefix24), Acc> = HashMap::default();
    for row in &clean.rows {
        let a = acc
            .entry((row.letter, row.src.prefix))
            .or_insert_with(|| Acc { by_site: HashMap::default(), ips: Default::default() });
        *a.by_site.entry(row.site).or_default() += row.queries_per_day;
        a.ips.insert(row.src.host);
    }
    let mut per_letter: HashMap<Letter, Vec<(f64, f64)>> = HashMap::default();
    for ((letter, _prefix), a) in acc {
        if a.ips.len() < 2 {
            continue;
        }
        let total: f64 = a.by_site.values().sum();
        if total <= 0.0 {
            continue;
        }
        let favorite = a.by_site.values().fold(0.0f64, |m, v| m.max(*v));
        // Eq. 3 is exactly 0 for a perfectly affine /24; never below.
        per_letter.entry(letter).or_default().push(((1.0 - favorite / total).max(0.0), 1.0));
    }
    let mut out: Vec<(Letter, WeightedCdf)> = per_letter
        .into_iter()
        .map(|(l, pts)| (l, WeightedCdf::from_points(pts)))
        .collect();
    out.sort_by_key(|(l, _)| *l);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::FilterStats;
    use dns::query::QueryClass;
    use workload::ditl::DitlRow;

    fn row(prefix: u32, host: u8, site: u32, q: f64) -> DitlRow {
        DitlRow {
            letter: Letter::K,
            src: Prefix24(prefix).host(host),
            ipv6: false,
            spoofed: false,
            site: SiteId(site),
            class: QueryClass::ValidTld,
            tcp: false,
            queries_per_day: q,
            tcp_rtt_median_ms: None,
        }
    }

    #[test]
    fn eq3_fraction_matches_hand_computation() {
        // /24 with two IPs: 80 queries to site 0, 20 to site 1 → f = 0.2.
        let clean = CleanDitl {
            rows: vec![row(1, 1, 0, 80.0), row(1, 2, 1, 20.0)],
            stats: FilterStats::default(),
        };
        let out = favorite_site_miss_fractions(&clean);
        assert_eq!(out.len(), 1);
        let (_, cdf) = &out[0];
        assert!((cdf.median() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn single_ip_prefixes_are_excluded() {
        let clean = CleanDitl {
            rows: vec![row(1, 1, 0, 80.0), row(1, 1, 1, 20.0)],
            stats: FilterStats::default(),
        };
        let out = favorite_site_miss_fractions(&clean);
        assert!(out.is_empty() || out[0].1.is_empty());
    }

    #[test]
    fn perfect_affinity_is_zero() {
        let clean = CleanDitl {
            rows: vec![row(1, 1, 0, 50.0), row(1, 2, 0, 50.0)],
            stats: FilterStats::default(),
        };
        let out = favorite_site_miss_fractions(&clean);
        let (_, cdf) = &out[0];
        assert_eq!(cdf.median(), 0.0);
        assert_eq!(cdf.intercept(1e-9), 1.0);
    }
}

/// Site affinity over time (§8: "anycast site affinity is high, at least
/// over the duration of DITL", after Wei & Heidemann).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AffinityOverTime {
    /// Fraction of ⟨/24, letter⟩ pairs whose majority site is identical
    /// in every window where the pair appears.
    pub stable_fraction: f64,
    /// Pairs analyzed (appearing in at least two windows).
    pub pairs: usize,
    /// Number of time windows used.
    pub windows: usize,
}

/// Measures site affinity across `n_windows` equal slices of a packet
/// capture: for each ⟨/24, letter⟩, take the majority site per window
/// and ask whether it ever changes.
pub fn site_affinity_over_windows(
    capture: &netsim::Capture<workload::pcap::DnsPacketRecord>,
    n_windows: usize,
) -> AffinityOverTime {
    assert!(n_windows >= 2, "affinity needs at least two windows");
    let window_ms = capture.window_hours() * 3_600_000.0 / n_windows as f64;
    // (prefix, letter) → per-window site counts.
    let mut counts: HashMap<(Prefix24, dns::letters::Letter), Vec<HashMap<SiteId, u32>>> =
        HashMap::default();
    for (t, rec) in capture.iter() {
        let w = ((t.as_ms() / window_ms) as usize).min(n_windows - 1);
        let slot = counts
            .entry((rec.src.prefix, rec.letter))
            .or_insert_with(|| vec![HashMap::default(); n_windows]);
        *slot[w].entry(rec.site).or_default() += 1;
    }
    let mut pairs = 0usize;
    let mut stable = 0usize;
    for (_, windows) in counts {
        let majorities: Vec<SiteId> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                *w.iter()
                    .max_by_key(|(site, n)| (**n, std::cmp::Reverse(site.0)))
                    .map(|(s, _)| s)
                    .expect("non-empty window")
            })
            .collect();
        if majorities.len() < 2 {
            continue;
        }
        pairs += 1;
        if majorities.windows(2).all(|w| w[0] == w[1]) {
            stable += 1;
        }
    }
    AffinityOverTime {
        stable_fraction: if pairs > 0 { stable as f64 / pairs as f64 } else { 1.0 },
        pairs,
        windows: n_windows,
    }
}

#[cfg(test)]
mod affinity_time_tests {
    use super::*;
    use netsim::{Capture, SimTime};
    use workload::pcap::DnsPacketRecord;

    fn packet(prefix: u32, site: u32) -> DnsPacketRecord {
        DnsPacketRecord {
            src: Prefix24(prefix).host(1),
            letter: dns::letters::Letter::K,
            site: SiteId(site),
            class: dns::query::QueryClass::ValidTld,
            tcp: false,
        }
    }

    #[test]
    fn stable_pairs_are_stable() {
        let mut cap = Capture::with_window(SimTime::ZERO, SimTime::from_hours(48.0));
        for h in 0..48 {
            cap.push(SimTime::from_hours(h as f64), packet(1, 0));
        }
        let a = site_affinity_over_windows(&cap, 4);
        assert_eq!(a.pairs, 1);
        assert!((a.stable_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_site_change_is_detected() {
        let mut cap = Capture::with_window(SimTime::ZERO, SimTime::from_hours(48.0));
        for h in 0..24 {
            cap.push(SimTime::from_hours(h as f64), packet(1, 0));
        }
        for h in 24..48 {
            cap.push(SimTime::from_hours(h as f64), packet(1, 7));
        }
        let a = site_affinity_over_windows(&cap, 4);
        assert_eq!(a.pairs, 1);
        assert_eq!(a.stable_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "two windows")]
    fn single_window_panics() {
        let cap: Capture<DnsPacketRecord> = Capture::default();
        site_affinity_over_windows(&cap, 1);
    }
}
