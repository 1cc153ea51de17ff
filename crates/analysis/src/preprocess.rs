//! DITL pre-processing: the §2.1 filtering pipeline.
//!
//! "Of the 51.9 billion daily queries to all roots, we discard 31 billion
//! queries to non-existing domain names and 2 billion PTR queries. … We
//! next remove queries from prefixes in private IP space (7% of all
//! queries). Finally, we analyze only IPv4 data and exclude IPv6 traffic
//! (12% of queries)." Appendix B.1 reruns downstream analysis with the
//! invalid-name filter off; [`FilterOptions::keep_invalid`] is that knob.

use dns::query::QueryClass;
use serde::{Deserialize, Serialize};
use workload::ditl::{DitlDataset, DitlRow};

/// Which filters to apply.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FilterOptions {
    /// Keep invalid-TLD (Chromium/junk/typo) and PTR queries —
    /// Appendix B.1's counterfactual. Default `false` (paper pipeline).
    pub keep_invalid: bool,
}

impl Default for FilterOptions {
    fn default() -> Self {
        Self { keep_invalid: false }
    }
}

/// What the filters removed, as daily query volumes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FilterStats {
    /// Total before filtering.
    pub total: f64,
    /// Dropped: queries for non-existing names.
    pub invalid_tld: f64,
    /// Dropped: PTR queries.
    pub ptr: f64,
    /// Dropped: private-space sources.
    pub private_space: f64,
    /// Dropped: IPv6.
    pub ipv6: f64,
    /// Remaining volume.
    pub kept: f64,
}

impl FilterStats {
    /// Fraction of input volume surviving the filters.
    pub fn kept_fraction(&self) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.kept / self.total
    }
}

/// The cleaned dataset rows (still letter/site/class/transport-granular).
#[derive(Debug, Clone)]
pub struct CleanDitl {
    /// Surviving rows.
    pub(crate) rows: Vec<DitlRow>,
    /// Accounting for each filter stage.
    pub stats: FilterStats,
}

/// Applies the §2.1 pipeline to a capture campaign.
///
/// Order matters for the accounting (each query is attributed to the
/// *first* filter that would drop it, like sequential discards in the
/// paper): invalid names → PTR → private space → IPv6.
pub fn preprocess(dataset: &DitlDataset, options: &FilterOptions) -> CleanDitl {
    let mut stats = FilterStats::default();
    let mut rows = Vec::with_capacity(dataset.rows.len());
    for row in &dataset.rows {
        let v = row.queries_per_day;
        stats.total += v;
        if !options.keep_invalid {
            match row.class {
                QueryClass::ChromiumProbe | QueryClass::JunkSuffix | QueryClass::Typo => {
                    stats.invalid_tld += v;
                    continue;
                }
                QueryClass::Ptr => {
                    stats.ptr += v;
                    continue;
                }
                QueryClass::ValidTld => {}
            }
        }
        if row.src.prefix.is_private() {
            stats.private_space += v;
            continue;
        }
        if row.ipv6 {
            stats.ipv6 += v;
            continue;
        }
        stats.kept += v;
        rows.push(row.clone());
    }
    CleanDitl { rows, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::letters::Letter;
    use topology::{Prefix24, SiteId};

    fn row(class: QueryClass, private: bool, v6: bool, q: f64) -> DitlRow {
        let prefix = if private {
            Prefix24::containing(0x0a_00_01_00)
        } else {
            Prefix24::containing(0x08_08_08_00)
        };
        DitlRow {
            letter: Letter::C,
            src: prefix.host(1),
            ipv6: v6,
            spoofed: false,
            site: SiteId(0),
            class,
            tcp: false,
            queries_per_day: q,
            tcp_rtt_median_ms: None,
        }
    }

    fn dataset(rows: Vec<DitlRow>) -> DitlDataset {
        DitlDataset { rows, year: 2018, captured_letters: vec![Letter::C] }
    }

    #[test]
    fn default_pipeline_drops_all_noise() {
        let d = dataset(vec![
            row(QueryClass::ValidTld, false, false, 10.0),
            row(QueryClass::ChromiumProbe, false, false, 5.0),
            row(QueryClass::JunkSuffix, false, false, 7.0),
            row(QueryClass::Ptr, false, false, 2.0),
            row(QueryClass::ValidTld, true, false, 3.0),
            row(QueryClass::ValidTld, false, true, 4.0),
        ]);
        let clean = preprocess(&d, &FilterOptions::default());
        assert_eq!(clean.rows.len(), 1);
        assert_eq!(clean.stats.total, 31.0);
        assert_eq!(clean.stats.invalid_tld, 12.0);
        assert_eq!(clean.stats.ptr, 2.0);
        assert_eq!(clean.stats.private_space, 3.0);
        assert_eq!(clean.stats.ipv6, 4.0);
        assert_eq!(clean.stats.kept, 10.0);
        assert!((clean.stats.kept_fraction() - 10.0 / 31.0).abs() < 1e-9);
    }

    #[test]
    fn keep_invalid_keeps_names_but_still_drops_private_and_v6() {
        let d = dataset(vec![
            row(QueryClass::JunkSuffix, false, false, 7.0),
            row(QueryClass::Ptr, false, false, 2.0),
            row(QueryClass::JunkSuffix, true, false, 3.0),
            row(QueryClass::ValidTld, false, true, 4.0),
        ]);
        let clean = preprocess(&d, &FilterOptions { keep_invalid: true });
        assert_eq!(clean.rows.len(), 2);
        assert_eq!(clean.stats.kept, 9.0);
        assert_eq!(clean.stats.private_space, 3.0);
        assert_eq!(clean.stats.ipv6, 4.0);
        assert_eq!(clean.stats.invalid_tld, 0.0);
    }

    #[test]
    fn typos_count_as_invalid_for_filtering() {
        // §2.1 discards queries for non-existing domains wholesale; typos
        // are invalid TLDs even though they cause user latency.
        let d = dataset(vec![row(QueryClass::Typo, false, false, 1.0)]);
        let clean = preprocess(&d, &FilterOptions::default());
        assert!(clean.rows.is_empty());
        assert_eq!(clean.stats.invalid_tld, 1.0);
    }

    #[test]
    fn empty_dataset_is_fine() {
        let clean = preprocess(&dataset(vec![]), &FilterOptions::default());
        assert!(clean.rows.is_empty());
        assert_eq!(clean.stats.kept_fraction(), 0.0);
    }
}
