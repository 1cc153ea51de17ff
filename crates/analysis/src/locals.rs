//! What local (NO_EXPORT) sites buy — the question §2.1 sets aside.
//!
//! Eq. 1 deliberately ignores local sites ("we do not know which
//! recursives can reach local sites"), and the paper notes this may
//! *under*-estimate inflation. The simulation knows its own ground
//! truth, so this study answers the set-aside question directly: which
//! users actually land on local sites, and what would their latency be
//! if the local sites vanished (the global-only counterfactual)?

use crate::resilience::TrafficSource;
use crate::stats::WeightedCdf;
use netsim::{LastMile, LatencyModel, PathProfile};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::{AnycastDeployment, AsGraph, Catchment, ExportScope, RouteCache};

/// Outcome of the local-sites study for one deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalSiteStudy {
    /// Fraction of user weight served by local sites.
    pub locally_served_fraction: f64,
    /// Latency of locally-served users, with local sites present.
    pub latency_with_locals: WeightedCdf,
    /// Latency of the same users in the global-only counterfactual.
    pub latency_without_locals: WeightedCdf,
}

impl LocalSiteStudy {
    /// Median latency saved by local sites for their users, ms.
    pub fn median_saving_ms(&self) -> f64 {
        if self.latency_with_locals.is_empty() || self.latency_without_locals.is_empty() {
            return 0.0;
        }
        self.latency_without_locals.median() - self.latency_with_locals.median()
    }
}

/// Runs the study.
pub fn local_site_study(
    graph: &AsGraph,
    deployment: &AnycastDeployment,
    model: &LatencyModel,
    users: &[TrafficSource],
) -> LocalSiteStudy {
    let mut cache = RouteCache::new();
    let full = Catchment::compute(graph, Arc::new(deployment.clone()), &mut cache);

    // Global-only counterfactual: every local site withdrawn.
    let mut global_only = deployment.clone();
    global_only.withdrawn =
        deployment.sites.iter().filter(|s| s.scope == ExportScope::Local).map(|s| s.id).collect();
    let counter_catchment = Catchment::compute(graph, Arc::new(global_only), &mut cache);

    let mut local_weight = 0.0;
    let mut total_weight = 0.0;
    let mut with_pts = Vec::new();
    let mut without_pts = Vec::new();
    for u in users {
        let Some(a) = full.assign(u.asn, &u.location) else { continue };
        total_weight += u.load;
        if deployment.site(a.site).scope != ExportScope::Local {
            continue;
        }
        local_weight += u.load;
        let ms = model.median_rtt_ms(&PathProfile::from_assignment(&a, LastMile::Broadband));
        with_pts.push((ms, u.load));
        if let Some(ca) = counter_catchment.assign(u.asn, &u.location) {
            let cms = model.median_rtt_ms(&PathProfile::from_assignment(&ca, LastMile::Broadband));
            without_pts.push((cms, u.load));
        }
    }

    LocalSiteStudy {
        locally_served_fraction: if total_weight > 0.0 { local_weight / total_weight } else { 0.0 },
        latency_with_locals: WeightedCdf::from_points(with_pts),
        latency_without_locals: WeightedCdf::from_points(without_pts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::GeoPoint;
    use topology::{AnycastSite, AsKind, AsNode, Asn, OrgId, SiteId};

    /// One global site far away, one local site next door announced only
    /// to the neighborhood: the neighbor must be served locally and lose
    /// badly in the counterfactual.
    #[test]
    fn local_site_serves_and_saves_its_neighborhood() {
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
        g.add_as(node(10, AsKind::Hoster, vec![p(0.5)])); // local host
        g.add_as(node(11, AsKind::Hoster, vec![p(60.0)])); // global host
        g.add_as(node(1, AsKind::Eyeball, vec![p(0.0)])); // neighbor
        g.add_as(node(30, AsKind::Transit, vec![p(0.0), p(60.0)]));
        g.add_provider_link(Asn(30), Asn(1), vec![p(0.0)]);
        g.add_provider_link(Asn(30), Asn(10), vec![p(0.5)]);
        g.add_provider_link(Asn(30), Asn(11), vec![p(60.0)]);
        // The eyeball peers directly with the local host (IXP).
        g.add_peer_link(Asn(1), Asn(10), vec![p(0.2)]);
        let dep = AnycastDeployment::new(
            "locals-test",
            vec![
                AnycastSite {
                    id: SiteId(0),
                    name: "global".into(),
                    host: Asn(11),
                    location: p(60.0),
                    scope: ExportScope::Global,
                },
                AnycastSite {
                    id: SiteId(1),
                    name: "local".into(),
                    host: Asn(10),
                    location: p(0.5),
                    scope: ExportScope::Local,
                },
            ],
            vec![],
        );
        let users = vec![TrafficSource { asn: Asn(1), location: p(0.0), load: 5.0 }];
        let study = local_site_study(&g, &dep, &LatencyModel::default(), &users);
        assert!((study.locally_served_fraction - 1.0).abs() < 1e-9);
        assert!(study.median_saving_ms() > 50.0, "saving {}", study.median_saving_ms());
    }

    #[test]
    fn deployment_without_locals_reports_zero() {
        let p = GeoPoint::new(0.0, 0.0);
        let mut g = topology::AsGraph::new();
        g.add_as(AsNode {
            asn: Asn(1),
            kind: AsKind::Hoster,
            org: OrgId(1),
            name: "h".into(),
            pops: vec![p],
            prefixes: vec![],
        });
        let dep = AnycastDeployment::new(
            "globals-only",
            vec![AnycastSite {
                id: SiteId(0),
                name: "g".into(),
                host: Asn(1),
                location: p,
                scope: ExportScope::Global,
            }],
            vec![],
        );
        let users = vec![TrafficSource { asn: Asn(1), location: p, load: 1.0 }];
        let study = local_site_study(&g, &dep, &LatencyModel::default(), &users);
        assert_eq!(study.locally_served_fraction, 0.0);
        assert!(study.latency_with_locals.is_empty());
    }

    /// A deployment of local sites only leaves nothing in the
    /// global-only counterfactual: every site withdrawn, no user
    /// routed there, and no saving to report.
    #[test]
    fn locals_only_deployment_has_an_empty_counterfactual() {
        let p = GeoPoint::new(0.0, 0.0);
        let mut g = topology::AsGraph::new();
        for asn in [1, 2] {
            g.add_as(AsNode {
                asn: Asn(asn),
                kind: AsKind::Hoster,
                org: OrgId(asn),
                name: format!("h{asn}"),
                pops: vec![p],
                prefixes: vec![],
            });
        }
        g.add_peer_link(Asn(1), Asn(2), vec![p]);
        let local = |id: u32, host: u32| AnycastSite {
            id: SiteId(id),
            name: format!("l{id}"),
            host: Asn(host),
            location: p,
            scope: ExportScope::Local,
        };
        let dep = AnycastDeployment::new("locals-only", vec![local(0, 1), local(1, 2)], vec![])
            .with_origin(Asn(2), vec![]);
        let users = vec![
            TrafficSource { asn: Asn(1), location: p, load: 1.0 },
            TrafficSource { asn: Asn(2), location: p, load: 2.0 },
        ];
        let study = local_site_study(&g, &dep, &LatencyModel::default(), &users);
        assert_eq!(study.locally_served_fraction, 1.0);
        assert_eq!(study.latency_with_locals.total_weight(), 3.0);
        assert!(study.latency_without_locals.is_empty());
        assert_eq!(study.median_saving_ms(), 0.0);
    }
}
