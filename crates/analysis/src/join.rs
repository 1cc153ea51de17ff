//! Joining DITL query volumes with user counts (§2.1, Appendix B.2,
//! Table 4).
//!
//! The paper's key methodological move: amortizing root queries over the
//! users each recursive serves requires *matching* the recursives seen in
//! DITL against the recursives Microsoft's user mapping knows. Matching
//! at exact-IP granularity loses most of the data (resolver farms use
//! many IPs; the two datasets see different ones); aggregating both sides
//! to /24 first raises DITL volume coverage from 8.4% to 72.2%
//! (Table 4). The APNIC variant joins by origin AS instead.
//!
//! Every row of the cleaned dataset counts with its full volume, so when
//! the B.1 counterfactual keeps invalid traffic, that traffic is
//! amortized too — the point of Fig. 8.

use crate::preprocess::CleanDitl;
use serde::{Deserialize, Serialize};
use par::DetHashMap as HashMap;
use topology::{Asn, IpToAsnService, Ipv4Addr24, Prefix24};
use workload::users::{ApnicUserCounts, CdnUserCounts};

/// Granularity a join was performed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinKey {
    /// Aggregated to /24 (the paper's DITL∩CDN).
    Prefix(Prefix24),
    /// Exact resolver IP (Appendix B.2's no-join counterfactual).
    Ip(Ipv4Addr24),
    /// Origin AS (the APNIC pipeline).
    As(Asn),
}

/// One joined entry: a recursive (at some granularity) with both a query
/// volume and a user count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinedEntry {
    /// The join key.
    pub key: JoinKey,
    /// Users amortizing the queries.
    pub users: f64,
    /// Daily queries users wait for (user-latency classes, all letters).
    pub queries_per_day: f64,
}

/// Table 4's four overlap measures.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct JoinStats {
    /// Fraction of DITL recursives (keys) with user data.
    pub ditl_recursives_matched: f64,
    /// Fraction of DITL query volume from matched recursives.
    pub ditl_volume_matched: f64,
    /// Fraction of CDN-known recursives seen in DITL.
    pub cdn_recursives_matched: f64,
    /// Fraction of CDN-counted users behind matched recursives.
    pub cdn_users_matched: f64,
}

/// A joined dataset plus its overlap accounting.
#[derive(Debug, Clone)]
pub struct JoinedData {
    /// Matched entries (only these can be amortized).
    pub entries: Vec<JoinedEntry>,
    /// Overlap statistics.
    pub stats: JoinStats,
}

/// Joins at /24 granularity (the paper's DITL∩CDN dataset).
pub fn join_by_prefix(clean: &CleanDitl, counts: &CdnUserCounts) -> JoinedData {
    let users_by_prefix = counts.by_prefix();
    let mut queries: HashMap<Prefix24, f64> = HashMap::default();
    for row in &clean.rows {
        *queries.entry(row.src.prefix).or_default() += row.queries_per_day;
    }
    join_maps(
        queries.into_iter().map(|(k, v)| (JoinKey::Prefix(k), v)).collect(),
        users_by_prefix.into_iter().map(|(k, v)| (JoinKey::Prefix(k), v)).collect(),
    )
}

/// Joins at exact-IP granularity (the no-aggregation counterfactual).
pub fn join_by_ip(clean: &CleanDitl, counts: &CdnUserCounts) -> JoinedData {
    let mut queries: HashMap<Ipv4Addr24, f64> = HashMap::default();
    for row in &clean.rows {
        *queries.entry(row.src).or_default() += row.queries_per_day;
    }
    join_maps(
        queries.into_iter().map(|(k, v)| (JoinKey::Ip(k), v)).collect(),
        counts.by_ip.iter().map(|(k, v)| (JoinKey::Ip(*k), *v)).collect(),
    )
}

/// Joins at AS granularity with APNIC user estimates. Returns the joined
/// data and the fraction of DITL volume whose source mapped to an AS
/// (the paper maps 99.4% of addresses / 98.6% of volume).
pub fn join_by_asn(
    clean: &CleanDitl,
    counts: &ApnicUserCounts,
    ip_to_asn: &IpToAsnService,
) -> (JoinedData, f64) {
    let mut queries: HashMap<Asn, f64> = HashMap::default();
    let mut total = 0.0;
    let mut mapped = 0.0;
    for row in &clean.rows {
        let v = row.queries_per_day;
        total += v;
        if let Some(asn) = ip_to_asn.lookup(row.src.prefix) {
            mapped += v;
            *queries.entry(asn).or_default() += v;
        }
    }
    let joined = join_maps(
        queries.into_iter().map(|(k, v)| (JoinKey::As(k), v)).collect(),
        counts.by_asn.iter().map(|(k, v)| (JoinKey::As(*k), *v)).collect(),
    );
    let mapped_fraction = if total > 0.0 { mapped / total } else { 0.0 };
    (joined, mapped_fraction)
}

fn join_maps(queries: HashMap<JoinKey, f64>, users: HashMap<JoinKey, f64>) -> JoinedData {
    let ditl_total_keys = queries.len() as f64;
    let ditl_total_volume: f64 = queries.values().sum();
    let cdn_total_keys = users.len() as f64;
    let cdn_total_users: f64 = users.values().sum();

    let mut entries: Vec<JoinedEntry> = queries
        .iter()
        .filter_map(|(k, q)| {
            users.get(k).map(|u| JoinedEntry { key: *k, users: *u, queries_per_day: *q })
        })
        .filter(|e| e.users > 0.0)
        .collect();
    entries.sort_by(|a, b| format!("{:?}", a.key).cmp(&format!("{:?}", b.key)));

    let matched_volume: f64 = entries.iter().map(|e| e.queries_per_day).sum();
    let matched_users: f64 = entries.iter().map(|e| e.users).sum();
    let stats = JoinStats {
        ditl_recursives_matched: safe_div(entries.len() as f64, ditl_total_keys),
        ditl_volume_matched: safe_div(matched_volume, ditl_total_volume),
        cdn_recursives_matched: safe_div(entries.len() as f64, cdn_total_keys),
        cdn_users_matched: safe_div(matched_users, cdn_total_users),
    };
    JoinedData { entries, stats }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::FilterStats;
    use dns::letters::Letter;
    use dns::query::QueryClass;
    use topology::SiteId;
    use workload::ditl::DitlRow;

    fn clean(rows: Vec<DitlRow>) -> CleanDitl {
        CleanDitl { rows, stats: FilterStats::default() }
    }

    fn row(prefix: u32, host: u8, q: f64) -> DitlRow {
        DitlRow {
            letter: Letter::C,
            src: Prefix24(prefix).host(host),
            ipv6: false,
            spoofed: false,
            site: SiteId(0),
            class: QueryClass::ValidTld,
            tcp: false,
            queries_per_day: q,
            tcp_rtt_median_ms: None,
        }
    }

    #[test]
    fn prefix_join_matches_when_ips_differ() {
        // DITL sees host .5; the CDN counted users at host .9 — same /24.
        let c = clean(vec![row(100, 5, 50.0)]);
        let mut counts = CdnUserCounts::default();
        counts.by_ip.insert(Prefix24(100).host(9), 200.0);
        let by_prefix = join_by_prefix(&c, &counts);
        assert_eq!(by_prefix.entries.len(), 1);
        assert_eq!(by_prefix.entries[0].users, 200.0);
        let by_ip = join_by_ip(&c, &counts);
        assert!(by_ip.entries.is_empty(), "exact-IP join must miss");
    }

    #[test]
    fn table4_stats_directions() {
        // Two DITL /24s (one matched), three CDN /24s (one matched).
        let c = clean(vec![row(1, 1, 30.0), row(2, 1, 70.0)]);
        let mut counts = CdnUserCounts::default();
        counts.by_ip.insert(Prefix24(2).host(3), 10.0);
        counts.by_ip.insert(Prefix24(3).host(1), 40.0);
        counts.by_ip.insert(Prefix24(4).host(1), 50.0);
        let j = join_by_prefix(&c, &counts);
        assert!((j.stats.ditl_recursives_matched - 0.5).abs() < 1e-9);
        assert!((j.stats.ditl_volume_matched - 0.7).abs() < 1e-9);
        assert!((j.stats.cdn_recursives_matched - 1.0 / 3.0).abs() < 1e-9);
        assert!((j.stats.cdn_users_matched - 0.1).abs() < 1e-9);
    }

    #[test]
    fn asn_join_accumulates_and_reports_mapping_coverage() {
        let c = clean(vec![row(10, 1, 5.0), row(11, 1, 7.0), row(999, 1, 3.0)]);
        let svc = IpToAsnService::new(
            vec![(Prefix24(10), Asn(7)), (Prefix24(11), Asn(7))],
            0.0,
        );
        let mut apnic = ApnicUserCounts::default();
        apnic.by_asn.insert(Asn(7), 100.0);
        let (j, mapped) = join_by_asn(&c, &apnic, &svc);
        assert_eq!(j.entries.len(), 1);
        assert_eq!(j.entries[0].queries_per_day, 12.0);
        assert!((mapped - 12.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let j = join_by_prefix(&clean(vec![]), &CdnUserCounts::default());
        assert!(j.entries.is_empty());
        assert_eq!(j.stats.ditl_volume_matched, 0.0);
    }
}
