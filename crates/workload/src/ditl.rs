//! The DITL capture campaign: 48 hours of root traffic, synthesized.
//!
//! Real DITL gives the paper, per root letter, per recursive /24, per
//! anycast site: query volumes, query classes, transport, and (via TCP
//! handshakes) RTTs. This module produces the same dataset from the
//! simulated world, at *rate* level — per-day volumes per
//! ⟨letter, resolver IP, site, class, transport⟩ — rather than 51.9
//! billion individual packets, which is the aggregation the analysis
//! pipeline starts from anyway.
//!
//! Reproduced traffic structure (§2.1):
//! * valid-TLD volume driven by per-recursive user counts with a
//!   heavy-tailed per-user rate (buggy resolvers form the tail, App. E),
//! * invalid-TLD volume (Chromium probes + junk suffixes) concentrated
//!   at high-user recursives — the reason Appendix B.1's unfiltered
//!   rerun shifts Fig. 3 twenty-fold,
//! * PTR background, private-source noise, IPv6 share, spoofed sources,
//! * per-letter query shares from the resolver letter-preference policy,
//! * site flapping from intermediate-AS load balancing (App. B.2),
//! * a TCP fraction carrying handshake RTT medians (§3's latency data).

use crate::users::{Recursive, UserPopulation};
use dns::letters::{Letter, LetterSet};
use dns::query::QueryClass;
use dns::resolver::letter_weights;
use netsim::{LastMile, LatencyModel, PathProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use topology::gen::Internet;
use topology::{Catchment, Ipv4Addr24, Prefix24, RouteCache, SiteAssignment, SiteId};

/// DITL synthesis parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DitlConfig {
    /// Seed for all campaign randomness.
    pub seed: u64,
    /// Letter-preference exploration (defaults to the resolver policy's).
    pub letter_exploration: f64,
}

impl Default for DitlConfig {
    fn default() -> Self {
        Self {
            seed: 2018,
            letter_exploration: dns::resolver::ResolverConfig::default().letter_exploration,
        }
    }
}

/// Median daily valid-TLD root queries per user (paper: ≈1).
const VALID_PER_USER_MEDIAN: f64 = 0.55;
/// Lognormal σ of the per-recursive per-user rate.
const VALID_SIGMA: f64 = 1.2;
/// Fraction of recursives with pathological re-query behaviour.
const BUGGY_RECURSIVE_PROB: f64 = 0.05;
/// Multiplier range applied to buggy recursives' valid volume.
const BUG_MULTIPLIER: std::ops::Range<f64> = 10.0..80.0;
/// Median daily Chromium-probe queries per user.
const CHROMIUM_PER_USER: f64 = 2.0;
/// Median daily junk-suffix queries per user at the reference size.
const JUNK_PER_USER_MEDIAN: f64 = 1.2;
/// Superlinear concentration of junk at large recursives:
/// junk/user ∝ (users / 1000)^exponent.
const JUNK_USER_EXPONENT: f64 = 0.35;
/// Typo queries as a fraction of valid volume.
const TYPO_FRACTION: f64 = 0.02;
/// PTR volume as a fraction of (valid + invalid).
const PTR_FRACTION: f64 = 0.04;
/// Fraction of queries carried over TCP.
const TCP_FRACTION: f64 = 0.06;
/// Probability a /24 splits across two sites (App. B.2 observed <20%
/// of /24s not fully on their favorite site).
const FLAP_PROB: f64 = 0.15;
/// Share of a flapping /24's queries that go to the second site.
const FLAP_SHARE: f64 = 0.2;
/// Fraction of valid volume with spoofed source addresses.
const SPOOF_FRACTION: f64 = 0.01;
/// Fraction of volume arriving over IPv6 (excluded by §2.1).
const V6_FRACTION: f64 = 0.12;
/// Fraction of volume from private-space sources (excluded by §2.1).
const PRIVATE_FRACTION: f64 = 0.07;
/// TCP RTT samples drawn per (letter, resolver, site) row.
const TCP_SAMPLES: u32 = 15;

impl DitlConfig {
    /// Share of a median user's daily root-relevant demand that a
    /// recursive's positive cache can never absorb: Chromium-style
    /// random-label probes, whose first labels are unique by design.
    /// Valid-TLD lookups amortize over the 2-day delegation TTL and
    /// junk/typo names over the negative-cache TTL, so this share is
    /// what the streaming replay generator (`anycast-replay`) treats as
    /// always reaching a root; the cacheable remainder pays only the
    /// long-run miss rate (see `dns::resolver::amortized_root_rate`).
    pub fn uncacheable_share(&self) -> f64 {
        let valid = VALID_PER_USER_MEDIAN * (1.0 + TYPO_FRACTION);
        CHROMIUM_PER_USER / (valid + CHROMIUM_PER_USER + JUNK_PER_USER_MEDIAN)
    }
}

/// One aggregated capture row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DitlRow {
    /// The letter whose capture this row appears in.
    pub letter: Letter,
    /// Source address as seen at the root (resolver IP, spoofed victim,
    /// or private-space noise).
    pub src: Ipv4Addr24,
    /// Whether the traffic arrived over IPv6.
    pub ipv6: bool,
    /// Ground truth: source address was spoofed. Analysis code must not
    /// read this (the paper can't either); it exists for validation.
    pub spoofed: bool,
    /// Site that captured the queries.
    pub site: SiteId,
    /// Traffic class.
    pub class: QueryClass,
    /// Whether this row is the TCP share.
    pub tcp: bool,
    /// Daily query volume.
    pub queries_per_day: f64,
    /// Median handshake RTT for TCP rows with enough samples.
    pub tcp_rtt_median_ms: Option<f64>,
}

/// The synthesized DITL dataset.
#[derive(Debug, Clone)]
pub struct DitlDataset {
    /// All rows.
    pub rows: Vec<DitlRow>,
    /// Census year the letters were built for.
    pub year: u16,
    /// Letters with usable captures in this dataset.
    pub captured_letters: Vec<Letter>,
}

impl DitlDataset {
    /// Total daily queries across all rows (before any filtering).
    pub fn total_queries_per_day(&self) -> f64 {
        self.rows.iter().map(|r| r.queries_per_day).sum()
    }

    /// Generates the campaign.
    pub fn generate(
        internet: &Internet,
        letters: &LetterSet,
        population: &UserPopulation,
        model: &LatencyModel,
        config: &DitlConfig,
    ) -> Self {
        let span = obs::span!("ditl.generate", year = letters.year);
        let campaign_seed = config.seed ^ 0xd171_2018_0410_0000;
        let mut cache = RouteCache::new();

        // One wide parallel fan-out over every letter's origin routes,
        // then the per-letter catchment computations below are pure
        // cache hits.
        cache.prefill_deployments(
            &internet.graph,
            letters.letters.iter().map(|l| l.deployment.as_ref()),
        );

        // Catchments for all letters (weights need RTTs to all 13, even
        // those whose captures we can't read).
        let catchments: Vec<(Letter, Catchment<'_>, bool)> = letters
            .letters
            .iter()
            .map(|l| {
                let captured = l.meta.in_ditl && !l.meta.fully_anonymized;
                (
                    l.meta.letter,
                    Catchment::compute_shared(
                        &internet.graph,
                        std::sync::Arc::clone(&l.deployment),
                        &mut cache,
                    ),
                    captured,
                )
            })
            .collect();
        let captured_letters: Vec<Letter> = catchments
            .iter()
            .filter(|(_, _, c)| *c)
            .map(|(l, _, _)| *l)
            .collect();

        // The campaign shards per recursive on the deterministic
        // parallel layer: shard `i` draws from an RNG seeded by
        // `seed_for(campaign_seed, i)` and produces its own rows, which
        // merge back in recursive order — so the dataset is bit-identical
        // for any thread count.
        let n_recursives = population.recursives.len();
        let sharded: Vec<(Vec<DitlRow>, obs::MetricSheet)> =
            par::ordered_map(&population.recursives, |rec_idx, rec| {
            let mut rows: Vec<DitlRow> = Vec::new();
            // Per-worker metric sheet: lock-free in the shard, merged
            // back in shard index order below.
            let mut sheet = obs::MetricSheet::new();
            let mut rng =
                StdRng::seed_from_u64(par::seed_for(campaign_seed, rec_idx as u64));
            if rec.users <= 0.0 {
                return (rows, sheet);
            }
            // --- per-recursive routing and RTTs toward every letter ----
            let mut per_letter: Vec<(Letter, Vec<SiteAssignment>, f64, bool)> = Vec::new();
            for (letter, catchment, captured) in &catchments {
                let ranked = catchment.ranked_top(rec.asn, &rec.location, 2);
                if ranked.is_empty() {
                    continue;
                }
                let rtt = model.median_rtt_ms(&PathProfile::from_assignment(
                    &ranked[0],
                    LastMile::None,
                ));
                per_letter.push((*letter, ranked, rtt, *captured));
            }
            if per_letter.is_empty() {
                sheet.counter_add("ditl.unroutable_recursives", 1);
                return (rows, sheet);
            }
            let weights = letter_weights(
                &per_letter.iter().map(|(l, _, r, _)| (*l, *r)).collect::<Vec<_>>(),
                config.letter_exploration,
            );

            // --- per-recursive daily volumes by class -------------------
            let ln = |rng: &mut StdRng, median: f64, sigma: f64| -> f64 {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                median * (sigma * z).exp()
            };
            let mut valid = rec.users * ln(&mut rng, VALID_PER_USER_MEDIAN, VALID_SIGMA);
            if rng.gen_bool(BUGGY_RECURSIVE_PROB) {
                valid *= rng.gen_range(BUG_MULTIPLIER);
            }
            let chromium = rec.users * ln(&mut rng, CHROMIUM_PER_USER, 0.6);
            let junk = rec.users
                * ln(&mut rng, JUNK_PER_USER_MEDIAN, 0.9)
                * (rec.users / 1000.0).max(0.05).powf(JUNK_USER_EXPONENT);
            let typo = valid * TYPO_FRACTION;
            let ptr = (valid + chromium + junk) * PTR_FRACTION;
            let classes = [
                (QueryClass::ValidTld, valid),
                (QueryClass::ChromiumProbe, chromium),
                (QueryClass::JunkSuffix, junk),
                (QueryClass::Typo, typo),
                (QueryClass::Ptr, ptr),
            ];

            // --- site flapping ------------------------------------------
            let flapping = rng.gen_bool(FLAP_PROB);
            let flap_share = FLAP_SHARE * rng.gen_range(0.25..2.25);

            // --- IP split inside the /24 --------------------------------
            let ip_shares: Vec<(u8, f64)> = {
                let raws: Vec<f64> =
                    rec.query_ips.iter().map(|_| rng.gen_range(0.2..1.0)).collect();
                let total: f64 = raws.iter().sum();
                rec.query_ips.iter().zip(raws).map(|(h, w)| (*h, w / total)).collect()
            };

            for (letter, ranked, _rtt, captured) in &per_letter {
                if !captured {
                    continue;
                }
                let weight = weights
                    .iter()
                    .find(|(l, _)| l == letter)
                    .map(|(_, w)| *w)
                    .unwrap_or(0.0);
                if weight <= 0.0 {
                    continue;
                }
                // Site split: all to primary unless flapping.
                let mut site_split: Vec<(&SiteAssignment, f64)> = vec![(&ranked[0], 1.0)];
                if flapping && ranked.len() > 1 {
                    site_split = vec![
                        (&ranked[0], 1.0 - flap_share),
                        (&ranked[1], flap_share),
                    ];
                }
                for (assignment, site_frac) in &site_split {
                    let profile =
                        PathProfile::from_assignment(assignment, LastMile::None);
                    for (class, volume) in &classes {
                        let v = volume * weight * site_frac;
                        if v < 1e-6 {
                            continue;
                        }
                        emit_rows(
                            &mut rows,
                            &mut rng,
                            rec,
                            &ip_shares,
                            *letter,
                            assignment.site,
                            *class,
                            v,
                            &profile,
                            model,
                        );
                    }
                }
            }

            // --- spoofed traffic: valid-class volume whose source is a
            // random other recursive's /24 (route/latency are the
            // attacker's, making the victim look badly routed).
            if n_recursives > 1 {
                let victim_idx = rng.gen_range(0..n_recursives);
                let victim: &Recursive = &population.recursives[victim_idx];
                if victim.id != rec.id {
                    if let Some((letter, ranked, _, true)) = per_letter.first().map(|x| (x.0, &x.1, x.2, x.3)) {
                        rows.push(DitlRow {
                            letter,
                            src: victim.prefix.host(rng.gen_range(1..=250)),
                            ipv6: false,
                            spoofed: true,
                            site: ranked[0].site,
                            class: QueryClass::ValidTld,
                            tcp: false,
                            queries_per_day: valid * SPOOF_FRACTION,
                            tcp_rtt_median_ms: None,
                        });
                    }
                }
            }
            tally_rows(&rows, &mut sheet);
            (rows, sheet)
        });
        // Merge worker sheets in shard index order (the same order the
        // row vectors concatenate in), then publish once.
        let mut merged = obs::MetricSheet::new();
        let mut rows: Vec<DitlRow> = Vec::new();
        for (shard_rows, shard_sheet) in sharded {
            rows.extend(shard_rows);
            merged.merge(shard_sheet);
        }
        merged.flush();

        // --- private-space background noise, spread over letters -------
        let total: f64 = rows.iter().map(|r| r.queries_per_day).sum();
        let private_total = total * PRIVATE_FRACTION / (1.0 - PRIVATE_FRACTION);
        let n_private = 40.min(captured_letters.len() * 4).max(1);
        obs::counter_add("ditl.rows.private_noise", n_private as u64);
        for i in 0..n_private {
            let letter = captured_letters[i % captured_letters.len()];
            let prefix = Prefix24::containing(0x0a_00_00_00 + ((i as u32) << 8));
            rows.push(DitlRow {
                letter,
                src: prefix.host(53),
                ipv6: false,
                spoofed: false,
                site: SiteId(0),
                class: QueryClass::ValidTld,
                tcp: false,
                queries_per_day: private_total / n_private as f64,
                tcp_rtt_median_ms: None,
            });
        }

        span.add_items(rows.len() as u64);
        obs::counter_add("ditl.rows", rows.len() as u64);
        Self { rows, year: letters.year, captured_letters }
    }
}

/// Counter name for rows of one query class (`ditl.rows.<class>`).
fn class_counter(class: QueryClass) -> &'static str {
    match class {
        QueryClass::ValidTld => "ditl.rows.valid_tld",
        QueryClass::ChromiumProbe => "ditl.rows.chromium_probe",
        QueryClass::JunkSuffix => "ditl.rows.junk_suffix",
        QueryClass::Typo => "ditl.rows.typo",
        QueryClass::Ptr => "ditl.rows.ptr",
    }
}

/// Counts one shard's rows into its sheet: per query class, TCP and
/// IPv6 among the unspoofed rows, spoofed rows, and the histogram of the
/// unspoofed rows' daily volume. As with one call per row, a counter or
/// histogram is created only once some row counts toward it.
fn tally_rows(rows: &[DitlRow], sheet: &mut obs::MetricSheet) {
    const CLASSES: [QueryClass; 5] = [
        QueryClass::ValidTld,
        QueryClass::ChromiumProbe,
        QueryClass::JunkSuffix,
        QueryClass::Typo,
        QueryClass::Ptr,
    ];
    let mut by_class = [0u64; CLASSES.len()];
    let (mut tcp, mut ipv6, mut spoofed) = (0, 0, 0);
    for row in rows {
        if row.spoofed {
            spoofed += 1;
            continue;
        }
        by_class[CLASSES.iter().position(|c| *c == row.class).expect("every class")] += 1;
        tcp += u64::from(row.tcp);
        ipv6 += u64::from(row.ipv6);
    }
    let counts = CLASSES.into_iter().map(class_counter).zip(by_class).chain([
        ("ditl.rows.tcp", tcp),
        ("ditl.rows.ipv6", ipv6),
        ("ditl.rows.spoofed", spoofed),
    ]);
    for (name, n) in counts {
        if n > 0 {
            sheet.counter_add(name, n);
        }
    }
    sheet.record_all(
        "ditl.row_queries_per_day",
        rows.iter().filter(|r| !r.spoofed).map(|r| r.queries_per_day),
    );
}

/// Emits the UDP/TCP and v4/v6 row splits for one
/// (recursive, letter, site, class) volume.
#[allow(clippy::too_many_arguments)]
fn emit_rows(
    rows: &mut Vec<DitlRow>,
    rng: &mut StdRng,
    rec: &Recursive,
    ip_shares: &[(u8, f64)],
    letter: Letter,
    site: SiteId,
    class: QueryClass,
    volume: f64,
    profile: &PathProfile,
    model: &LatencyModel,
) {
    for (host, share) in ip_shares {
        let v = volume * share;
        let v6 = v * V6_FRACTION;
        let v4 = v - v6;
        let tcp = v4 * TCP_FRACTION;
        let udp = v4 - tcp;
        let src = rec.prefix.host(*host);
        if udp > 1e-9 {
            rows.push(DitlRow {
                letter,
                src,
                ipv6: false,
                spoofed: false,
                site,
                class,
                tcp: false,
                queries_per_day: udp,
                tcp_rtt_median_ms: None,
            });
        }
        if tcp > 1e-9 {
            let mut samples: Vec<f64> = (0..TCP_SAMPLES)
                .map(|_| model.sample_rtt_ms(profile, rng))
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = samples[samples.len() / 2];
            rows.push(DitlRow {
                letter,
                src,
                ipv6: false,
                spoofed: false,
                site,
                class,
                tcp: true,
                queries_per_day: tcp,
                tcp_rtt_median_ms: Some(median),
            });
        }
        if v6 > 1e-9 {
            rows.push(DitlRow {
                letter,
                src,
                ipv6: true,
                spoofed: false,
                site,
                class,
                tcp: false,
                queries_per_day: v6,
                tcp_rtt_median_ms: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::UserConfig;
    use topology::{InternetGenerator, TopologyConfig};

    fn dataset() -> DitlDataset {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(71));
        let letters = LetterSet::build(&mut net, 2018, 0.15);
        let pop = UserPopulation::synthesize(
            &mut net,
            &UserConfig { total_users: 1.0e6 },
        );
        DitlDataset::generate(
            &net,
            &letters,
            &pop,
            &LatencyModel::default(),
            &DitlConfig::default(),
        )
    }

    #[test]
    fn captures_exclude_g_and_i() {
        let d = dataset();
        assert!(!d.captured_letters.contains(&Letter::G));
        assert!(!d.captured_letters.contains(&Letter::I));
        assert_eq!(d.captured_letters.len(), 11);
        for r in &d.rows {
            assert!(d.captured_letters.contains(&r.letter));
        }
    }

    #[test]
    fn traffic_mix_matches_paper_shape() {
        let d = dataset();
        let by_class = |c: QueryClass| -> f64 {
            d.rows.iter().filter(|r| r.class == c).map(|r| r.queries_per_day).sum()
        };
        let valid = by_class(QueryClass::ValidTld);
        let invalid = by_class(QueryClass::ChromiumProbe)
            + by_class(QueryClass::JunkSuffix)
            + by_class(QueryClass::Typo);
        let total = d.total_queries_per_day();
        // §2.1: invalid names are the majority of root traffic.
        assert!(invalid > valid, "invalid {invalid} vs valid {valid}");
        assert!(invalid / total > 0.35, "invalid share {}", invalid / total);
        // PTR is a few percent.
        let ptr = by_class(QueryClass::Ptr) / total;
        assert!((0.005..0.15).contains(&ptr), "ptr share {ptr}");
    }

    #[test]
    fn v6_and_private_shares_are_plausible() {
        let d = dataset();
        let total = d.total_queries_per_day();
        let v6: f64 = d.rows.iter().filter(|r| r.ipv6).map(|r| r.queries_per_day).sum();
        assert!((0.05..0.2).contains(&(v6 / total)), "v6 {}", v6 / total);
        let private: f64 = d
            .rows
            .iter()
            .filter(|r| r.src.prefix.is_private())
            .map(|r| r.queries_per_day)
            .sum();
        assert!((0.01..0.15).contains(&(private / total)), "private {}", private / total);
    }

    #[test]
    fn tcp_rows_carry_rtt_medians() {
        let d = dataset();
        let tcp_rows: Vec<&DitlRow> = d.rows.iter().filter(|r| r.tcp).collect();
        assert!(!tcp_rows.is_empty());
        for r in tcp_rows {
            let rtt = r.tcp_rtt_median_ms.expect("tcp rows carry medians");
            assert!(rtt > 0.0 && rtt < 2000.0);
        }
    }

    #[test]
    fn most_24s_hit_one_site_per_letter() {
        let d = dataset();
        use std::collections::{HashMap, HashSet};
        let mut sites: HashMap<(Letter, Prefix24), HashSet<u32>> = HashMap::new();
        for r in &d.rows {
            if !r.spoofed && !r.src.prefix.is_private() {
                sites.entry((r.letter, r.src.prefix)).or_default().insert(r.site.0);
            }
        }
        let single = sites.values().filter(|s| s.len() == 1).count();
        let frac = single as f64 / sites.len() as f64;
        assert!(frac > 0.7, "single-site fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset();
        let b = dataset();
        assert_eq!(a.rows.len(), b.rows.len());
        assert!((a.total_queries_per_day() - b.total_queries_per_day()).abs() < 1e-6);
    }
}
