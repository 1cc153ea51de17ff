//! Client-side measurements (the Odin-like system of §2.2).
//!
//! "The measurement system instructs clients using CDN services to issue
//! measurements to multiple rings, which enables us to remove biases in
//! latency patterns due to services hosted on different rings having
//! different client footprints." The defining property — and why Fig. 4b
//! uses this dataset rather than server logs — is that every user
//! location measures *every* ring, so ring-to-ring deltas hold the
//! population fixed. The client does not learn which front-end it hit.

use crate::rings::Cdn;
use geo::region::RegionId;
use netsim::LatencyModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topology::gen::Internet;
use topology::Asn;

/// One client-side measurement row: a ⟨region, AS⟩ location's fetch
/// latency to one ring. No front-end identity — clients can't see it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientMeasurement {
    /// Ring name.
    pub(crate) ring: String,
    /// User region.
    pub(crate) region: RegionId,
    /// User AS.
    pub(crate) asn: Asn,
    /// Median small-object fetch time, ms (DNS and TCP connect factored
    /// out, per §2.2 — effectively one RTT plus server time).
    pub(crate) median_fetch_ms: f64,
}

/// The collected client-side dataset.
#[derive(Debug, Clone, Default)]
pub struct ClientMeasurements {
    /// All rows.
    pub rows: Vec<ClientMeasurement>,
}

impl ClientMeasurements {
    /// Runs the measurement campaign: every user location fetches from
    /// every ring `samples` times.
    pub fn collect(
        internet: &Internet,
        cdn: &Cdn,
        model: &LatencyModel,
        samples: u32,
        seed: u64,
    ) -> Self {
        let span = obs::span!("cdn.client_measurements");
        // Small constant server-side processing for the object fetch.
        const SERVER_MS: f64 = 0.8;
        let mut rows = Vec::new();
        crate::ring_location_medians(
            internet,
            cdn,
            model,
            samples,
            seed ^ 0x0d1a_11ad_5afe_c0de,
            "cdn.client_unroutable",
            |ring, loc, _, median_rtt_ms| {
                // Adding a constant is monotone, so it commutes with
                // the median.
                let median_fetch_ms = median_rtt_ms + SERVER_MS;
                obs::record("cdn.client_fetch_ms", median_fetch_ms);
                rows.push(ClientMeasurement {
                    ring: ring.name.clone(),
                    region: loc.region,
                    asn: loc.asn,
                    median_fetch_ms,
                });
            },
        );
        span.add_items(rows.len() as u64);
        obs::counter_add("cdn.client_rows", rows.len() as u64);
        Self { rows }
    }

    /// Per-location latency change when moving from `small` ring to `big`
    /// ring: `latency(small) − latency(big)` (positive ⇒ the bigger ring
    /// is faster), the quantity Fig. 4b plots.
    pub fn ring_transition_deltas(&self, small: &str, big: &str) -> Vec<f64> {
        let index = |ring: &str| -> BTreeMap<(RegionId, Asn), f64> {
            self.rows
                .iter()
                .filter(|r| r.ring == ring)
                .map(|r| ((r.region, r.asn), r.median_fetch_ms))
                .collect()
        };
        let s = index(small);
        let b = index(big);
        let mut deltas: Vec<f64> = s
            .iter()
            .filter_map(|(k, sv)| b.get(k).map(|bv| sv - bv))
            .collect();
        deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rings::CdnConfig;
    use topology::{InternetGenerator, TopologyConfig};

    fn collect_small() -> (Cdn, ClientMeasurements) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(51));
        let cdn = Cdn::build(&mut net, &CdnConfig::small());
        let m = ClientMeasurements::collect(&net, &cdn, &LatencyModel::default(), 9, 3);
        (cdn, m)
    }

    #[test]
    fn every_location_measures_every_ring() {
        let (cdn, m) = collect_small();
        let per_ring: Vec<usize> =
            cdn.rings.iter().map(|r| m.rows.iter().filter(|x| x.ring == r.name).count()).collect();
        // All rings measured by the same number of locations (fixed
        // population — the whole point of the client-side system).
        assert!(per_ring.windows(2).all(|w| w[0] == w[1]), "{per_ring:?}");
        assert!(per_ring[0] > 0);
    }

    #[test]
    fn transitions_mostly_help_or_are_neutral() {
        let (cdn, m) = collect_small();
        let small = &cdn.rings[0].name;
        let big = &cdn.largest_ring().name;
        let deltas = m.ring_transition_deltas(small, big);
        assert!(!deltas.is_empty());
        let helped = deltas.iter().filter(|d| **d > -5.0).count();
        // Fig. 4b: ~90% of locations see at-most-a-few-ms regression.
        assert!(
            helped as f64 / deltas.len() as f64 > 0.8,
            "only {helped}/{} locations unharmed",
            deltas.len()
        );
    }

    #[test]
    fn deltas_are_sorted() {
        let (cdn, m) = collect_small();
        let deltas =
            m.ring_transition_deltas(&cdn.rings[0].name, &cdn.rings[1].name);
        for w in deltas.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
