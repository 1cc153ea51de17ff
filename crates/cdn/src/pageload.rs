//! Appendix C: how many RTTs does a page load cost?
//!
//! The paper loads nine Microsoft-hosted pages twenty times each under
//! Selenium/Tshark, reconstructs per-connection byte counts, applies
//! Eq. 4 with parallel-connection accounting, and concludes "only a few
//! percent of CDN web pages are loaded within 10 RTTs, and 90% of all
//! page loads are loaded within 20 RTTs, so 10 RTTs is a reasonable
//! lower bound". [`PageLoadStudy::run`] reproduces the experiment over
//! synthetic page object graphs with realistic connection structure.

use netsim::tcp::{page_load_rtts, page_load_rtts_with, ConnectionPlan, TransportProfile, DEFAULT_INIT_WINDOW_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The paper's adopted lower bound: 10 RTTs per page load (§5.1).
pub const PAGE_LOAD_RTTS: u32 = 10;

/// Result of the page-load RTT study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageLoadStudy {
    /// RTT count for every (page, load) pair, sorted ascending.
    pub rtt_counts: Vec<u32>,
    /// The same loads under QUIC (1-RTT handshake, 2× window) — the
    /// Appendix C footnote, quantified.
    pub(crate) rtt_counts_quic: Vec<u32>,
    /// The same loads over persistent warm connections.
    pub(crate) rtt_counts_persistent: Vec<u32>,
}

impl PageLoadStudy {
    /// Loads `pages` synthetic pages `loads_per_page` times each and
    /// computes Eq. 4 + Appendix C RTT counts.
    ///
    /// Page structure follows what browser traces show for dynamic
    /// landing pages: one large primary connection (HTML + bundled
    /// assets), several parallel medium connections opened during the
    /// primary transfer, and a tail of small sequential fetches.
    pub fn run(pages: usize, loads_per_page: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfee1_600d_f00d_cafe);
        let mut rtt_counts = Vec::with_capacity(pages * loads_per_page);
        let mut rtt_counts_quic = Vec::with_capacity(pages * loads_per_page);
        let mut rtt_counts_persistent = Vec::with_capacity(pages * loads_per_page);
        for page in 0..pages {
            // Per-page shape parameters (stable across loads of the page).
            let mut page_rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(page as u64));
            let primary_kb = page_rng.gen_range(250.0..2200.0);
            let n_parallel = page_rng.gen_range(3..12);
            let n_sequential = page_rng.gen_range(2..7);
            for _ in 0..loads_per_page {
                let mut connections = Vec::new();
                // Primary connection carries most bytes.
                let primary_bytes = (primary_kb * 1024.0 * rng.gen_range(0.8..1.2)) as u64;
                let primary_end = rng.gen_range(400.0..1500.0);
                connections.push(ConnectionPlan { start_ms: 0.0, end_ms: primary_end, bytes: primary_bytes });
                // Parallel fetches overlap the primary entirely.
                for _ in 0..n_parallel {
                    let start = rng.gen_range(10.0..primary_end * 0.5);
                    let end = rng.gen_range(start + 20.0..primary_end);
                    connections.push(ConnectionPlan {
                        start_ms: start,
                        end_ms: end,
                        bytes: (rng.gen_range(4.0..120.0) * 1024.0) as u64,
                    });
                }
                // Sequential stragglers (fonts, beacons) after onload work.
                let mut t = primary_end;
                for _ in 0..n_sequential {
                    let end = t + rng.gen_range(30.0..200.0);
                    connections.push(ConnectionPlan {
                        start_ms: t + 1.0,
                        end_ms: end,
                        bytes: (rng.gen_range(2.0..60.0) * 1024.0) as u64,
                    });
                    t = end;
                }
                rtt_counts.push(page_load_rtts(&connections, DEFAULT_INIT_WINDOW_BYTES));
                rtt_counts_quic.push(page_load_rtts_with(
                    &connections,
                    DEFAULT_INIT_WINDOW_BYTES,
                    TransportProfile::Quic,
                ));
                rtt_counts_persistent.push(page_load_rtts_with(
                    &connections,
                    DEFAULT_INIT_WINDOW_BYTES,
                    TransportProfile::PersistentTcp,
                ));
            }
        }
        rtt_counts.sort_unstable();
        rtt_counts_quic.sort_unstable();
        rtt_counts_persistent.sort_unstable();
        Self { rtt_counts, rtt_counts_quic, rtt_counts_persistent }
    }

    /// Median RTTs under a transport profile.
    pub fn median_rtts(&self, transport: TransportProfile) -> u32 {
        let v = match transport {
            TransportProfile::TcpTls => &self.rtt_counts,
            TransportProfile::Quic => &self.rtt_counts_quic,
            TransportProfile::PersistentTcp => &self.rtt_counts_persistent,
        };
        v[v.len() / 2]
    }

    /// Paper-scale study: nine pages, twenty loads each (§C).
    pub fn paper_scale(seed: u64) -> Self {
        Self::run(9, 20, seed)
    }

    /// Fraction of loads completing within `rtts` RTTs.
    pub fn fraction_within(&self, rtts: u32) -> f64 {
        if self.rtt_counts.is_empty() {
            return 0.0;
        }
        self.rtt_counts.iter().filter(|&&n| n <= rtts).count() as f64
            / self.rtt_counts.len() as f64
    }

    /// The lower-bound estimate the study supports: the largest round
    /// number of RTTs that only a small fraction of loads beat.
    pub fn lower_bound_estimate(&self) -> u32 {
        // Matches the paper's reading: ~10 RTTs, where "only a few
        // percent" of loads are at or under it.
        (1..=40)
            .rev()
            .find(|&n| self.fraction_within(n) <= 0.10)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_supports_10_rtt_lower_bound() {
        let study = PageLoadStudy::paper_scale(1);
        assert_eq!(study.rtt_counts.len(), 180);
        // "only a few percent of CDN web pages are loaded within 10 RTTs"
        let within10 = study.fraction_within(PAGE_LOAD_RTTS);
        assert!(within10 < 0.25, "{within10}");
        // "90% of all page loads are loaded within 20 RTTs"
        let within20 = study.fraction_within(20);
        assert!(within20 > 0.75, "{within20}");
        let lb = study.lower_bound_estimate();
        assert!((6..=14).contains(&lb), "lower bound {lb}");
    }

    #[test]
    fn counts_are_sorted_and_include_handshakes() {
        let study = PageLoadStudy::run(3, 5, 2);
        for w in study.rtt_counts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Every load costs at least handshakes + one data RTT.
        assert!(*study.rtt_counts.first().expect("non-empty") >= 3);
    }

    #[test]
    fn study_is_deterministic() {
        assert_eq!(PageLoadStudy::run(4, 6, 9).rtt_counts, PageLoadStudy::run(4, 6, 9).rtt_counts);
    }

    #[test]
    fn fraction_within_is_monotone() {
        let study = PageLoadStudy::paper_scale(3);
        let mut prev = 0.0;
        for n in 1..30 {
            let f = study.fraction_within(n);
            assert!(f >= prev);
            prev = f;
        }
        assert_eq!(study.fraction_within(10_000), 1.0);
    }
}
