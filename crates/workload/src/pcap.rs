//! Packet-level capture sampling.
//!
//! The DITL campaign ([`crate::ditl`]) is rate-level — the aggregation
//! the paper's global analyses start from. But two of the paper's
//! arguments live *below* that aggregation: Appendix B.2's site-affinity
//! question needs per-query site observations over time, and §8 confirms
//! prior work "that anycast site affinity is high, at least over the
//! duration of DITL". This module expands rate rows into individual
//! timestamped query packets (Poisson arrivals over the capture window)
//! for a sample of recursives, with optional *route dynamics*: a
//! recursive's site assignment may flip at path-change events, which is
//! what affinity analysis is designed to detect.

use crate::ditl::{DitlDataset, DitlRow};
use dns::letters::Letter;
use dns::query::QueryClass;
use netsim::{Capture, SimTime};
use par::{DetHashMap, DetHashSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use topology::{Ipv4Addr24, Prefix24, SiteId};

/// One captured DNS query packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DnsPacketRecord {
    /// Source resolver address.
    pub src: Ipv4Addr24,
    /// Letter whose capture recorded the packet.
    pub letter: Letter,
    /// Site that received it.
    pub site: SiteId,
    /// Traffic class.
    pub class: QueryClass,
    /// Whether it arrived over TCP.
    pub tcp: bool,
}

/// Parameters for packet expansion.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PcapConfig {
    /// Number of recursive /24s to sample.
    pub sample_recursives: usize,
    /// Mean path-change events per (recursive, letter) per window —
    /// the route dynamics affinity analysis measures. Wei & Heidemann
    /// found instability rare; the default keeps it so.
    pub path_changes_per_window: f64,
    /// Hard cap on emitted packets (sampling guard).
    pub max_packets: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for PcapConfig {
    fn default() -> Self {
        Self {
            sample_recursives: 50,
            path_changes_per_window: 0.15,
            max_packets: 400_000,
            seed: 1,
        }
    }
}

/// Capture window length, hours (DITL: 48).
const WINDOW_HOURS: f64 = 48.0;

/// Expands a sampled subset of a DITL dataset into a packet capture.
///
/// Rates are respected in expectation: a row with `q` queries/day emits
/// ~`q × window/24` packets (down-scaled uniformly if the cap would be
/// exceeded). Site flips apply per (recursive /24, letter): after each
/// path-change instant, packets from that /24 toward that letter move to
/// the row's alternate site when the dataset observed one.
pub fn sample_capture(dataset: &DitlDataset, config: &PcapConfig) -> Capture<DnsPacketRecord> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9cab_0000_0001);

    // Sample /24s, weighted implicitly by row order determinism.
    let mut prefixes: Vec<Prefix24> = dataset
        .rows
        .iter()
        .filter(|r| !r.src.prefix.is_private() && !r.ipv6 && !r.spoofed)
        .map(|r| r.src.prefix)
        .collect::<DetHashSet<_>>()
        .into_iter()
        .collect();
    prefixes.sort();
    let keep: DetHashSet<Prefix24> = {
        let mut v = prefixes;
        // Deterministic shuffle-and-truncate.
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v.truncate(config.sample_recursives);
        v.into_iter().collect()
    };
    let rows: Vec<&DitlRow> = dataset
        .rows
        .iter()
        .filter(|r| keep.contains(&r.src.prefix) && !r.ipv6 && !r.spoofed)
        .collect();

    // Expected packet count → optional uniform downscale.
    let window_days = WINDOW_HOURS / 24.0;
    let expected: f64 = rows.iter().map(|r| r.queries_per_day * window_days).sum();
    let scale = if expected > config.max_packets as f64 {
        config.max_packets as f64 / expected
    } else {
        1.0
    };

    // Path-change schedule per (prefix, letter): instants where the
    // /24's site toward that letter flips between observed sites.
    let mut flips: DetHashMap<(Prefix24, Letter), Vec<f64>> = DetHashMap::default();
    let window_ms = WINDOW_HOURS * 3_600_000.0;
    for row in &rows {
        let key = (row.src.prefix, row.letter);
        flips.entry(key).or_insert_with(|| {
            let n = poisson_small(&mut rng, config.path_changes_per_window);
            let mut ts: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..window_ms)).collect();
            ts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            ts
        });
    }
    // Alternate site per (prefix, letter): the other site the dataset saw
    // for this pair, if any.
    let mut alt: DetHashMap<(Prefix24, Letter), Vec<SiteId>> = DetHashMap::default();
    for row in &rows {
        let e = alt.entry((row.src.prefix, row.letter)).or_default();
        if !e.contains(&row.site) {
            e.push(row.site);
        }
    }

    // Emit Poisson arrivals per row.
    let mut packets: Vec<(SimTime, DnsPacketRecord)> = Vec::new();
    for row in &rows {
        let lambda = row.queries_per_day * window_days * scale;
        let n = poisson_large(&mut rng, lambda);
        let key = (row.src.prefix, row.letter);
        let sites = &alt[&key];
        let flip_times = &flips[&key];
        for _ in 0..n {
            let t = rng.gen_range(0.0..window_ms);
            // Which "era" is t in? Each flip advances the site rotation.
            let era = flip_times.iter().filter(|f| **f <= t).count();
            let site = if sites.len() > 1 {
                // Rotate through observed sites per era, starting from the
                // row's own site.
                let base = sites.iter().position(|s| *s == row.site).unwrap_or(0);
                sites[(base + era) % sites.len()]
            } else {
                row.site
            };
            packets.push((
                SimTime(t),
                DnsPacketRecord {
                    src: row.src,
                    letter: row.letter,
                    site,
                    class: row.class,
                    tcp: row.tcp,
                },
            ));
        }
    }
    packets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut capture = Capture::with_window(SimTime::ZERO, SimTime(window_ms));
    for (t, p) in packets {
        capture.push(t, p);
    }
    capture
}

fn poisson_small(rng: &mut StdRng, lambda: f64) -> usize {
    // Knuth's method; fine for small λ.
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 64 {
            return k;
        }
    }
}

fn poisson_large(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 32.0 {
        return poisson_small(rng, lambda);
    }
    // Normal approximation for large λ.
    let z = netsim::sample_standard_normal(rng);
    (lambda + lambda.sqrt() * z).round().max(0.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::{UserConfig, UserPopulation};
    use crate::DitlConfig;
    use dns::LetterSet;
    use netsim::LatencyModel;
    use topology::{InternetGenerator, TopologyConfig};

    fn dataset() -> DitlDataset {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(141));
        let letters = LetterSet::build(&mut net, 2018, 0.15);
        let pop = UserPopulation::synthesize(
            &mut net,
            &UserConfig { total_users: 2.0e5 },
        );
        DitlDataset::generate(&net, &letters, &pop, &LatencyModel::default(), &DitlConfig::default())
    }

    #[test]
    fn capture_respects_the_packet_cap_and_window() {
        let d = dataset();
        let cfg = PcapConfig { sample_recursives: 10, max_packets: 5_000, ..Default::default() };
        let cap = sample_capture(&d, &cfg);
        assert!(cap.len() > 100, "too few packets: {}", cap.len());
        assert!(cap.len() as f64 <= 5_000.0 * 1.2, "cap exceeded: {}", cap.len());
        assert!((cap.window_hours() - 48.0).abs() < 1.0);
        // Time-ordered by construction (Capture asserts it).
        for (t, _) in cap.iter() {
            assert!(t.as_ms() <= 48.0 * 3_600_000.0);
        }
    }

    #[test]
    fn per_row_rates_are_respected_in_expectation() {
        let d = dataset();
        let cfg = PcapConfig {
            sample_recursives: 5,
            max_packets: usize::MAX,
            path_changes_per_window: 0.0,
            ..Default::default()
        };
        let cap = sample_capture(&d, &cfg);
        // Aggregate packets per (prefix, letter) and compare with the
        // dataset's daily rates × 2 days.
        use std::collections::HashMap;
        let mut counted: HashMap<(Prefix24, Letter), f64> = HashMap::new();
        for rec in cap.records() {
            *counted.entry((rec.src.prefix, rec.letter)).or_default() += 1.0;
        }
        let mut expected: HashMap<(Prefix24, Letter), f64> = HashMap::new();
        for row in &d.rows {
            if counted.contains_key(&(row.src.prefix, row.letter)) && !row.ipv6 && !row.spoofed {
                *expected.entry((row.src.prefix, row.letter)).or_default() +=
                    row.queries_per_day * 2.0;
            }
        }
        let mut checked = 0;
        for (key, exp) in &expected {
            if *exp < 500.0 {
                continue; // too small for a tight Poisson bound
            }
            let got = counted[key];
            assert!(
                (got - exp).abs() / exp < 0.25,
                "{key:?}: got {got}, expected {exp}"
            );
            checked += 1;
        }
        assert!(checked > 0, "no high-volume pairs to check");
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = dataset();
        let cfg = PcapConfig { sample_recursives: 8, ..Default::default() };
        let a = sample_capture(&d, &cfg);
        let b = sample_capture(&d, &cfg);
        assert_eq!(a.len(), b.len());
        for ((ta, ra), (tb, rb)) in a.iter().zip(b.iter()) {
            assert_eq!(ta.as_ms(), tb.as_ms());
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn path_changes_create_multi_site_observations() {
        let d = dataset();
        let stable = sample_capture(
            &d,
            &PcapConfig {
                sample_recursives: 20,
                path_changes_per_window: 0.0,
                seed: 3,
                ..Default::default()
            },
        );
        let churny = sample_capture(
            &d,
            &PcapConfig {
                sample_recursives: 20,
                path_changes_per_window: 6.0,
                seed: 3,
                ..Default::default()
            },
        );
        let sites_seen = |cap: &Capture<DnsPacketRecord>| {
            use std::collections::{HashMap, HashSet};
            let mut m: HashMap<(Prefix24, Letter), HashSet<SiteId>> = HashMap::new();
            for r in cap.records() {
                m.entry((r.src.prefix, r.letter)).or_default().insert(r.site);
            }
            m.values().filter(|s| s.len() > 1).count()
        };
        assert!(
            sites_seen(&churny) >= sites_seen(&stable),
            "churn should not reduce multi-site pairs"
        );
    }
}
