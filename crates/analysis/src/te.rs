//! Selective-announcement traffic engineering (§7.1's last paragraph).
//!
//! "At smaller ring sizes, Microsoft can use traffic engineering (for
//! example, not announcing to particular ASes at particular peering
//! points) when it observes an AS making poor routing decisions." This
//! module implements that operator loop as a greedy optimizer: withhold
//! the anycast announcement from one neighbor AS at a time, keep the
//! withholding whenever it lowers user-weighted latency, stop when
//! nothing helps. In-model, the withheld AS's traffic re-enters through
//! alternative paths (tier-1s, other transits) whose interconnects may
//! sit closer to a usable site.

use crate::resilience::{latency_cdf, TrafficSource};
use crate::stats::WeightedCdf;
use netsim::LatencyModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::{AnycastDeployment, AsGraph, Asn, RouteCache};

/// Result of a TE optimization run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TeResult {
    /// Neighbor ASes the optimizer chose to withhold from, in order.
    pub withheld: Vec<Asn>,
    /// User-weighted latency before optimization, ms.
    pub before: WeightedCdf,
    /// User-weighted latency after, ms.
    pub after: WeightedCdf,
    /// Candidate evaluations performed.
    pub evaluations: usize,
}

/// Greedily withholds announcements from `candidates` (typically the
/// origin's transit neighbors), accepting each withholding that improves
/// user-weighted mean latency by at least `min_gain_ms`, up to
/// `max_withheld` ASes.
///
/// Unreachability guard: a variant that strands users (serves less
/// weight than the baseline) is rejected regardless of its mean.
pub fn optimize_withholds(
    graph: &AsGraph,
    deployment: &AnycastDeployment,
    model: &LatencyModel,
    users: &[TrafficSource],
    candidates: &[Asn],
    max_withheld: usize,
    min_gain_ms: f64,
) -> TeResult {
    let mut cache = RouteCache::new();
    let before = latency_cdf(graph, Arc::new(deployment.clone()), model, users, &mut cache);
    let baseline_weight = before.total_weight();

    let mut current = deployment.clone();
    let mut current_cdf = before.clone();
    let mut withheld = Vec::new();
    let mut evaluations = 0;

    loop {
        if withheld.len() >= max_withheld {
            break;
        }
        let mut best: Option<(Asn, WeightedCdf)> = None;
        for &cand in candidates {
            if current.withhold.contains(&cand) {
                continue;
            }
            let mut variant = current.clone();
            variant.withhold.push(cand);
            let cdf = latency_cdf(graph, Arc::new(variant), model, users, &mut cache);
            evaluations += 1;
            if cdf.total_weight() + 1e-9 < baseline_weight {
                continue; // stranded users — never acceptable
            }
            let gain = current_cdf.mean() - cdf.mean();
            if gain >= min_gain_ms
                && best
                    .as_ref()
                    .map(|(_, b)| cdf.mean() < b.mean())
                    .unwrap_or(true)
            {
                best = Some((cand, cdf));
            }
        }
        match best {
            Some((cand, cdf)) => {
                current.withhold.push(cand);
                withheld.push(cand);
                current_cdf = cdf;
            }
            None => break,
        }
    }

    TeResult { withheld, before, after: current_cdf, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LastMile, PathProfile};
    use topology::{
        AnycastSite, AsKind, AsNode, ExportScope, InternetGenerator, OrgId, SiteId,
        TopologyConfig,
    };

    #[test]
    fn optimizer_never_makes_things_worse() {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(121));
        let hosts = net.sample_hosters(3);
        let sites: Vec<AnycastSite> = hosts
            .iter()
            .enumerate()
            .map(|(i, h)| AnycastSite {
                id: SiteId(i as u32),
                name: format!("s{i}"),
                host: *h,
                location: net.graph.node(*h).pops[0],
                scope: ExportScope::Global,
            })
            .collect();
        let dep = AnycastDeployment::new("te-test", sites, vec![]);
        let users: Vec<TrafficSource> = net
            .user_locations()
            .iter()
            .map(|l| TrafficSource {
                asn: l.asn,
                location: net.world.region(l.region).center,
                load: 1.0,
            })
            .collect();
        let result = optimize_withholds(
            &net.graph,
            &dep,
            &LatencyModel::default(),
            &users,
            &net.transits.clone(),
            3,
            0.1,
        );
        assert!(result.after.mean() <= result.before.mean() + 1e-9);
        assert!(result.withheld.len() <= 3);
        assert!(result.evaluations > 0);
        // No users stranded.
        assert!(result.after.total_weight() + 1e-9 >= result.before.total_weight());
    }

    /// Hand-built scenario where TE provably helps: an eyeball's only
    /// provider T interconnects with the origin at a far-away point, but
    /// a second path through T2 enters right next to the site.
    #[test]
    fn withholding_reroutes_a_poorly_served_neighbor() {
        use geo::GeoPoint;
        let p = |lon: f64| GeoPoint::new(0.0, lon);
        let node = |asn: u32, kind: AsKind, pops: Vec<GeoPoint>| AsNode {
            asn: Asn(asn),
            kind,
            org: OrgId(asn),
            name: format!("as{asn}"),
            pops,
            prefixes: vec![],
        };
        let mut g = topology::AsGraph::new();
        g.add_as(node(100, AsKind::Content, vec![p(0.0), p(80.0)])); // origin, site at 0
        g.add_as(node(1, AsKind::Eyeball, vec![p(2.0)]));
        g.add_as(node(10, AsKind::Transit, vec![p(2.0), p(80.0)]));
        g.add_as(node(20, AsKind::Transit, vec![p(2.0), p(1.0)]));
        g.add_provider_link(Asn(10), Asn(1), vec![p(2.0)]);
        g.add_provider_link(Asn(20), Asn(1), vec![p(2.0)]);
        // T10 hands off to the origin ONLY at lon 80 (bad interconnect);
        // T20 hands off at lon 1 (good).
        g.add_peer_link(Asn(10), Asn(100), vec![p(80.0)]);
        g.add_peer_link(Asn(20), Asn(100), vec![p(1.0)]);
        let dep = AnycastDeployment::new(
            "te-fixture",
            vec![AnycastSite {
                id: SiteId(0),
                name: "s0".into(),
                host: Asn(100),
                location: p(0.0),
                scope: ExportScope::Global,
            }],
            vec![],
        );
        let users = vec![TrafficSource { asn: Asn(1), location: p(2.0), load: 1.0 }];
        // Both provider routes tie on (class, length); the early-exit
        // tie-break compares the eyeball's OWN first-hop interconnects,
        // which are both at lon 2 — so BGP may pick the bad transit whose
        // ONWARD handoff detours via lon 80. TE fixes what the local
        // decision can't see.
        let result = optimize_withholds(
            &g,
            &dep,
            &LatencyModel::default(),
            &users,
            &[Asn(10), Asn(20)],
            2,
            0.1,
        );
        // Whichever transit the tie-break picked, after optimization the
        // user must travel (nearly) directly.
        let direct = LatencyModel::default().median_rtt_ms(&PathProfile::direct(
            p(2.0).distance_km(&p(0.0)),
            4,
            LastMile::Broadband,
        ));
        assert!(
            result.after.mean() < direct * 2.6,
            "after {} vs direct {direct}",
            result.after.mean()
        );
    }
}
