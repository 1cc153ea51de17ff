//! Server-side connection logs.
//!
//! "Server-side logs at front-ends collect information about user TCP
//! connections, including the user IP address and TCP handshake RTT.
//! Using these RTTs as latency measurements, we compute median latencies
//! from users in a ⟨region, AS⟩ location to each front-end that serves
//! them" (§2.2). [`ServerSideLogs::collect`] reproduces exactly that
//! dataset over the simulated CDN: route each user location to its
//! front-end per ring, sample handshake RTTs, keep the median.

use crate::rings::Cdn;
use geo::region::RegionId;
use netsim::LatencyModel;
use serde::{Deserialize, Serialize};
use topology::gen::Internet;
use topology::{Asn, SiteId};

/// One aggregated log row: a ⟨region, AS⟩ location's connections to the
/// front-end serving it in one ring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerLogRecord {
    /// Ring name (`"R110"`).
    pub(crate) ring: String,
    /// User region.
    pub region: RegionId,
    /// User AS.
    pub asn: Asn,
    /// Front-end the users hit.
    pub front_end: SiteId,
    /// Median TCP handshake RTT, ms.
    pub median_rtt_ms: f64,
}

/// The collected server-side dataset.
#[derive(Debug, Clone, Default)]
pub struct ServerSideLogs {
    /// All rows.
    pub(crate) records: Vec<ServerLogRecord>,
}

impl ServerSideLogs {
    /// Collects logs for every ⟨region, AS⟩ location against every ring.
    ///
    /// `samples_per_location` handshakes are drawn per row; the paper
    /// requires ≥ 500 for 83% of its medians — tests use fewer.
    pub fn collect(
        internet: &Internet,
        cdn: &Cdn,
        model: &LatencyModel,
        samples_per_location: u32,
        seed: u64,
    ) -> Self {
        let span = obs::span!("cdn.server_logs");
        let mut records = Vec::new();
        crate::ring_location_medians(
            internet,
            cdn,
            model,
            samples_per_location,
            seed ^ 0x5e2e_51de_10c5_ab1e,
            "cdn.log_unroutable",
            |ring, loc, assignment, median_rtt_ms| {
                obs::record("cdn.log_rtt_ms", median_rtt_ms);
                records.push(ServerLogRecord {
                    ring: ring.name.clone(),
                    region: loc.region,
                    asn: loc.asn,
                    front_end: assignment.site,
                    median_rtt_ms,
                });
            },
        );
        span.add_items(records.len() as u64);
        obs::counter_add("cdn.log_records", records.len() as u64);
        Self { records }
    }

    /// Rows for one ring.
    pub fn ring<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ServerLogRecord> + 'a {
        self.records.iter().filter(move |r| r.ring == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no rows were collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rings::CdnConfig;
    use topology::{InternetGenerator, TopologyConfig};

    fn collect_small() -> (Internet, Cdn, ServerSideLogs) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(41));
        let cdn = Cdn::build(&mut net, &CdnConfig::small());
        let logs = ServerSideLogs::collect(&net, &cdn, &LatencyModel::default(), 9, 1);
        (net, cdn, logs)
    }

    #[test]
    fn covers_every_ring_and_most_locations() {
        let (net, cdn, logs) = collect_small();
        let n_locations = net.user_locations().len();
        for ring in &cdn.rings {
            let n = logs.ring(&ring.name).count();
            assert!(
                n as f64 > 0.95 * n_locations as f64,
                "{}: {n}/{n_locations}",
                ring.name
            );
        }
    }

    #[test]
    fn rtts_are_positive_and_bounded() {
        let (_, _, logs) = collect_small();
        for r in &logs.records {
            assert!(r.median_rtt_ms > 0.0 && r.median_rtt_ms < 2000.0);
        }
    }

    #[test]
    fn larger_rings_have_no_worse_median_latency() {
        let (_, cdn, logs) = collect_small();
        let med = |name: &str| {
            let mut v: Vec<f64> = logs.ring(name).map(|r| r.median_rtt_ms).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        };
        let smallest = med(&cdn.rings[0].name);
        let largest = med(&cdn.largest_ring().name);
        assert!(
            largest <= smallest + 1.0,
            "R-largest {largest} vs R-smallest {smallest}"
        );
    }

    #[test]
    fn collection_is_deterministic() {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(42));
        let cdn = Cdn::build(&mut net, &CdnConfig::small());
        let a = ServerSideLogs::collect(&net, &cdn, &LatencyModel::default(), 5, 7);
        let b = ServerSideLogs::collect(&net, &cdn, &LatencyModel::default(), 5, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.median_rtt_ms, y.median_rtt_ms);
            assert_eq!(x.front_end, y.front_end);
        }
    }
}
