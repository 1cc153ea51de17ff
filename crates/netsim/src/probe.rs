//! Active measurements: ping and traceroute.
//!
//! These are the measurement primitives the paper drives from RIPE Atlas
//! probes: pings to anycast rings (§5.2, Fig. 4a) and traceroutes for AS
//! path lengths (§7.1, Fig. 6). A probe measures over a *routed*
//! assignment, so what it sees includes all routing circuitousness.

use crate::latency::{LatencyModel, PathProfile};
use rand::Rng;
use topology::{Asn, SiteAssignment};

/// One traceroute hop as it would appear after IP-level post-processing.
#[derive(Debug, Clone, PartialEq)]
pub struct TracerouteHop {
    /// Owning AS of the responding interface, when mappable. `None`
    /// models interfaces the paper removes: "IP addresses that are
    /// private, associated with IXPs, or not announced publicly" (§7.1).
    pub asn: Option<Asn>,
    /// RTT to this hop, ms.
    pub rtt_ms: f64,
}

/// Pings over an assignment: `count` RTT samples.
pub fn ping<R: Rng>(
    model: &LatencyModel,
    profile: &PathProfile,
    count: usize,
    rng: &mut R,
) -> Vec<f64> {
    (0..count).map(|_| model.sample_rtt_ms(profile, rng)).collect()
}

/// The sampled median of `count` pings over an assignment: the
/// [`ping`] samples stable-sorted ascending, element `count / 2` (the
/// upper median when `count` is even) — the per-row RTT of the DITL
/// TCP handshakes and of the CDN's server logs and client fetches.
///
/// # Panics
///
/// Panics when `count` is zero.
pub fn median_ping_ms<R: Rng>(
    model: &LatencyModel,
    profile: &PathProfile,
    count: usize,
    rng: &mut R,
) -> f64 {
    assert!(count > 0, "a sampled median needs at least one RTT sample");
    let mut samples = ping(model, profile, count, rng);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite RTT samples"));
    samples[count / 2]
}

/// Traceroutes over an assignment, yielding one responding hop per AS on
/// the path (a real traceroute shows several interfaces per AS; the
/// per-AS collapse is what Fig. 6's analysis does first anyway).
///
/// `ixp_unmapped_prob` is the chance a border interface belongs to IXP or
/// unannounced space and therefore resolves to no AS.
pub fn traceroute<R: Rng>(
    assignment: &SiteAssignment,
    model: &LatencyModel,
    ixp_unmapped_prob: f64,
    rng: &mut R,
) -> Vec<TracerouteHop> {
    let total = assignment.path_km.max(1.0);
    let n = assignment.as_path.len();
    let mut hops = Vec::with_capacity(n);
    for (i, asn) in assignment.as_path.iter().enumerate() {
        // Approximate per-hop distance as a prefix of the full path.
        let frac = (i + 1) as f64 / n as f64;
        let profile = PathProfile {
            path_km: total * frac,
            hops: (i + 1) as u32,
            last_mile: crate::latency::LastMile::None,
        };
        let rtt = model.sample_rtt_ms(&profile, rng);
        // The first hop (the probe's own AS) always maps; border
        // interfaces deeper in may be IXP/unannounced space.
        let mapped = i == 0 || !rng.gen_bool(ixp_unmapped_prob);
        hops.push(TracerouteHop { asn: mapped.then_some(*asn), rtt_ms: rtt });
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LastMile;
    use geo::GeoPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assignment() -> SiteAssignment {
        SiteAssignment {
            site: topology::SiteId(0),
            as_path: vec![Asn(1), Asn(2), Asn(3)],
            hops: 4,
            path_km: 1100.0,
            entry: GeoPoint::new(0.0, 10.0),
        }
    }

    #[test]
    fn ping_returns_requested_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = LatencyModel::default();
        let p = PathProfile::direct(500.0, 3, LastMile::None);
        assert_eq!(ping(&model, &p, 7, &mut rng).len(), 7);
    }

    #[test]
    fn median_ping_is_the_upper_middle_of_the_same_draws() {
        let model = LatencyModel::default();
        let p = PathProfile::direct(500.0, 3, LastMile::None);
        for count in [1, 4, 15] {
            let mut samples = ping(&model, &p, count, &mut StdRng::seed_from_u64(5));
            samples.sort_by(f64::total_cmp);
            let median = median_ping_ms(&model, &p, count, &mut StdRng::seed_from_u64(5));
            assert_eq!(median.to_bits(), samples[count / 2].to_bits(), "count {count}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one RTT sample")]
    fn median_of_no_pings_panics() {
        let p = PathProfile::direct(1.0, 1, LastMile::None);
        median_ping_ms(&LatencyModel::default(), &p, 0, &mut StdRng::seed_from_u64(6));
    }

    #[test]
    fn traceroute_has_one_hop_per_as() {
        let mut rng = StdRng::seed_from_u64(2);
        let hops = traceroute(&assignment(), &LatencyModel::default(), 0.0, &mut rng);
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[0].asn, Some(Asn(1)));
        assert_eq!(hops[2].asn, Some(Asn(3)));
    }

    #[test]
    fn rtt_grows_along_the_path_in_expectation() {
        let model = LatencyModel { jitter_sigma: 0.0, spike_prob: 0.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let hops = traceroute(&assignment(), &model, 0.0, &mut rng);
        assert!(hops[0].rtt_ms < hops[1].rtt_ms);
        assert!(hops[1].rtt_ms < hops[2].rtt_ms);
    }

    #[test]
    fn unmapped_interfaces_appear_with_high_prob() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut unmapped = 0;
        for _ in 0..200 {
            let hops = traceroute(&assignment(), &LatencyModel::default(), 0.5, &mut rng);
            unmapped += hops.iter().filter(|h| h.asn.is_none()).count();
            assert!(hops[0].asn.is_some(), "probe's own AS always maps");
        }
        assert!(unmapped > 50, "expected many unmapped border hops, got {unmapped}");
    }
}
