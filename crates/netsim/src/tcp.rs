//! TCP transfer and page-load RTT modeling (Eq. 4 and Appendix C).
//!
//! §5.1 converts anycast RTT into user-visible page-load delay by
//! estimating the number of RTTs a page load incurs. The paper's lower
//! bound (Appendix C): per connection, slow-start from a ~15 kB initial
//! window gives `N = ⌈log₂(D/W)⌉` data RTTs (Eq. 4); per page, sum RTTs
//! over the largest connection plus any connections that do not overlap
//! it in time (parallel connections are free); add two RTTs for the first
//! TCP+TLS handshake.

use serde::{Deserialize, Serialize};

/// Initial congestion window the paper assumes: "Microsoft and a majority
/// of web pages set this value to approximately 15 kB".
pub const DEFAULT_INIT_WINDOW_BYTES: u64 = 15_000;

/// RTTs two handshakes (TCP + TLS) cost on the first connection.
pub(crate) const HANDSHAKE_RTTS: u32 = 2;

/// Data-transfer RTTs for `bytes` over one connection in permanent slow
/// start (Eq. 4): `⌈log₂(D/W)⌉`, floored at 1 RTT for any non-empty
/// transfer that fits in the initial window.
pub fn transfer_rtts(bytes: u64, init_window: u64) -> u32 {
    assert!(init_window > 0, "initial window must be positive");
    if bytes == 0 {
        return 0;
    }
    if bytes <= init_window {
        return 1;
    }
    let ratio = bytes as f64 / init_window as f64;
    ratio.log2().ceil() as u32
}

/// One TCP connection observed during a page load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConnectionPlan {
    /// When the connection started, ms.
    pub start_ms: f64,
    /// When its last payload arrived, ms.
    pub end_ms: f64,
    /// Server→client payload bytes (ACK − SEQ in Appendix C).
    pub bytes: u64,
}

impl ConnectionPlan {
    fn overlaps(&self, other: &ConnectionPlan) -> bool {
        self.start_ms < other.end_ms && other.start_ms < self.end_ms
    }
}

/// Appendix C's lower bound on page-load RTTs.
///
/// Algorithm, verbatim from the paper: start with the connection carrying
/// the most data; iteratively add connections in size order (largest to
/// smallest) that do not overlap temporally with any already-counted
/// connection; sum Eq. 4 RTTs over the selected set; "add a final two
/// RTTs for TCP and TLS handshakes" (later handshakes are assumed
/// parallel). The [`TransportProfile::TcpTls`] case of
/// [`page_load_rtts_with`].
pub fn page_load_rtts(connections: &[ConnectionPlan], init_window: u64) -> u32 {
    page_load_rtts_with(connections, init_window, TransportProfile::TcpTls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_within_initial_window_is_one_rtt() {
        assert_eq!(transfer_rtts(1, DEFAULT_INIT_WINDOW_BYTES), 1);
        assert_eq!(transfer_rtts(15_000, DEFAULT_INIT_WINDOW_BYTES), 1);
    }

    #[test]
    fn transfer_rtts_match_eq4_closed_form() {
        // 15 kB window: 30 kB → ⌈log2 2⌉ = 1, 60 kB → 2, 1 MB → ⌈log2 66.7⌉ = 7.
        assert_eq!(transfer_rtts(30_000, 15_000), 1);
        assert_eq!(transfer_rtts(60_000, 15_000), 2);
        assert_eq!(transfer_rtts(1_000_000, 15_000), 7);
    }

    #[test]
    fn transfer_doubles_each_rtt() {
        // Doubling bytes adds at most one RTT (slow start doubles cwnd).
        for bytes in [20_000u64, 100_000, 500_000] {
            let n = transfer_rtts(bytes, 15_000);
            let n2 = transfer_rtts(bytes * 2, 15_000);
            assert!(n2 <= n + 1, "bytes {bytes}: {n} -> {n2}");
        }
    }

    #[test]
    fn empty_transfer_is_free() {
        assert_eq!(transfer_rtts(0, 15_000), 0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        transfer_rtts(100, 0);
    }

    #[test]
    fn single_connection_page_adds_handshakes() {
        let c = ConnectionPlan { start_ms: 0.0, end_ms: 100.0, bytes: 60_000 };
        assert_eq!(page_load_rtts(&[c], 15_000), 2 + 2);
    }

    #[test]
    fn parallel_connections_are_free() {
        // Two fully-overlapping connections: only the larger counts.
        let a = ConnectionPlan { start_ms: 0.0, end_ms: 100.0, bytes: 240_000 }; // 4 RTTs
        let b = ConnectionPlan { start_ms: 10.0, end_ms: 90.0, bytes: 60_000 };
        assert_eq!(page_load_rtts(&[a, b], 15_000), 4 + 2);
    }

    #[test]
    fn sequential_connections_accumulate() {
        let a = ConnectionPlan { start_ms: 0.0, end_ms: 50.0, bytes: 240_000 }; // 4
        let b = ConnectionPlan { start_ms: 60.0, end_ms: 100.0, bytes: 60_000 }; // 2
        assert_eq!(page_load_rtts(&[a, b], 15_000), 4 + 2 + 2);
    }

    #[test]
    fn selection_is_largest_first() {
        // Three connections: the largest overlaps both others, the two
        // smaller ones don't overlap each other but each overlaps the
        // largest — only the largest is counted.
        let big = ConnectionPlan { start_ms: 0.0, end_ms: 100.0, bytes: 500_000 };
        let s1 = ConnectionPlan { start_ms: 0.0, end_ms: 40.0, bytes: 10_000 };
        let s2 = ConnectionPlan { start_ms: 50.0, end_ms: 90.0, bytes: 10_000 };
        let n = page_load_rtts(&[s1, big, s2], 15_000);
        assert_eq!(n, transfer_rtts(500_000, 15_000) + 2);
    }

    #[test]
    fn empty_page_is_zero() {
        assert_eq!(page_load_rtts(&[], 15_000), 0);
    }

    #[test]
    fn touching_endpoints_do_not_overlap() {
        let a = ConnectionPlan { start_ms: 0.0, end_ms: 50.0, bytes: 15_000 };
        let b = ConnectionPlan { start_ms: 50.0, end_ms: 80.0, bytes: 15_000 };
        assert_eq!(page_load_rtts(&[a, b], 15_000), 1 + 1 + 2);
    }
}

/// Transport variants for the page-load model. Appendix C notes "We do
/// not consider QUIC or persistent connections in detail here, but
/// larger initial windows will result in fewer RTTs" — this enum makes
/// that deferred comparison runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportProfile {
    /// TCP + TLS over a fresh connection: 2 handshake RTTs, standard
    /// initial window.
    TcpTls,
    /// QUIC (1-RTT handshake) with a doubled initial window.
    Quic,
    /// A persistent (kept-alive) connection: no handshake, and slow start
    /// resumes from a warm congestion window (4× the initial window).
    PersistentTcp,
}

impl TransportProfile {
    /// Handshake RTTs charged to the first connection of a page.
    pub(crate) fn handshake_rtts(&self) -> u32 {
        match self {
            TransportProfile::TcpTls => HANDSHAKE_RTTS,
            TransportProfile::Quic => 1,
            TransportProfile::PersistentTcp => 0,
        }
    }

    /// Effective initial congestion window given a base window.
    pub(crate) fn initial_window(&self, base: u64) -> u64 {
        match self {
            TransportProfile::TcpTls => base,
            TransportProfile::Quic => base * 2,
            TransportProfile::PersistentTcp => base * 4,
        }
    }
}

/// [`page_load_rtts`] under a transport profile: the same
/// largest-first selection of non-overlapping connections, with the
/// profile's handshakes and initial window.
pub fn page_load_rtts_with(
    connections: &[ConnectionPlan],
    base_window: u64,
    transport: TransportProfile,
) -> u32 {
    if connections.is_empty() {
        return 0;
    }
    let window = transport.initial_window(base_window);
    let mut by_size: Vec<&ConnectionPlan> = connections.iter().collect();
    by_size.sort_by(|a, b| {
        b.bytes
            .cmp(&a.bytes)
            .then(a.start_ms.partial_cmp(&b.start_ms).unwrap_or(std::cmp::Ordering::Equal))
    });
    let mut counted: Vec<&ConnectionPlan> = vec![by_size[0]];
    for c in by_size.iter().skip(1) {
        if !counted.iter().any(|k| k.overlaps(c)) {
            counted.push(c);
        }
    }
    let data: u32 = counted.iter().map(|c| transfer_rtts(c.bytes, window)).sum();
    data + transport.handshake_rtts()
}

#[cfg(test)]
mod transport_tests {
    use super::*;

    fn page() -> Vec<ConnectionPlan> {
        vec![
            ConnectionPlan { start_ms: 0.0, end_ms: 500.0, bytes: 600_000 },
            ConnectionPlan { start_ms: 510.0, end_ms: 700.0, bytes: 60_000 },
        ]
    }

    #[test]
    fn quic_and_persistence_reduce_rtts() {
        let tcp = page_load_rtts_with(&page(), DEFAULT_INIT_WINDOW_BYTES, TransportProfile::TcpTls);
        let quic = page_load_rtts_with(&page(), DEFAULT_INIT_WINDOW_BYTES, TransportProfile::Quic);
        let warm =
            page_load_rtts_with(&page(), DEFAULT_INIT_WINDOW_BYTES, TransportProfile::PersistentTcp);
        assert!(quic < tcp, "QUIC {quic} vs TCP {tcp}");
        assert!(warm < quic, "persistent {warm} vs QUIC {quic}");
    }

    #[test]
    fn profiles_scale_windows_and_handshakes() {
        assert_eq!(TransportProfile::TcpTls.handshake_rtts(), 2);
        assert_eq!(TransportProfile::Quic.handshake_rtts(), 1);
        assert_eq!(TransportProfile::PersistentTcp.handshake_rtts(), 0);
        assert_eq!(TransportProfile::Quic.initial_window(15_000), 30_000);
    }
}
