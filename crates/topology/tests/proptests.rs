//! Property tests for routing: Gao–Rexford invariants and catchment
//! geometry over randomly generated Internets.

use anycast_topology::bgp::{ExportScope, RouteComputer};
use anycast_topology::gen::{InternetGenerator, TopologyConfig};
use anycast_topology::{
    AnycastDeployment, AnycastSite, Catchment, RouteCache, RouteClass, SiteId,
};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routes selected under the three-spread model are valley-free:
    /// reconstructing any source's path and re-deriving the per-hop
    /// relationships never shows a provider/peer edge followed by
    /// another non-customer edge (when read in export direction).
    #[test]
    fn selected_paths_are_valley_free(seed in 0u64..500) {
        let net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let g = &net.graph;
        let origin = net.hosters[seed as usize % net.hosters.len()];
        let routes = RouteComputer::new(g).routes_from_origin(origin, ExportScope::Global, &[]);
        for idx in 0..g.len() {
            let Some(route) = routes.route_at(idx) else { continue };
            if route.class == RouteClass::Origin {
                continue;
            }
            let (nodes, _links) = routes
                .path_via(idx, route.first_hops[0])
                .expect("routable nodes have paths");
            // Walk from the source toward the origin. In a valley-free
            // path, once the walk takes a step that is not "toward a
            // customer" (i.e. not downhill), every earlier step must have
            // been downhill. Equivalently, read from origin outward:
            // uphill (customer→provider) steps, at most one peer step,
            // then downhill steps. Verify by scanning from the origin.
            let mut phase = 0; // 0 = uphill, 1 = peered, 2 = downhill
            for pair in nodes.windows(2).rev() {
                // pair[1] is closer to the origin; the announcement went
                // pair[1] → pair[0].
                let receiver = g.node_at(pair[0]).asn;
                let sender = g.node_at(pair[1]).asn;
                let rel = g
                    .adjacency(g.idx(sender))
                    .iter()
                    .find(|a| g.node_at(a.neighbor).asn == receiver)
                    .map(|a| a.rel)
                    .expect("consecutive path nodes are adjacent");
                use anycast_topology::Relationship;
                match rel {
                    // Sender exported to its provider: only legal while
                    // still in the uphill phase.
                    Relationship::Provider => prop_assert_eq!(phase, 0, "uphill after turn"),
                    Relationship::Peer => {
                        prop_assert!(phase <= 1, "peer step after downhill");
                        phase = 2; // at most one peer crossing
                    }
                    Relationship::Customer => phase = 2,
                }
            }
        }
    }

    /// The route cache's key rule: routes from an origin depend on a
    /// withhold list only through its intersection with the origin's
    /// adjacency, under both export scopes.
    #[test]
    fn withhold_matters_only_through_the_origins_neighbors(
        seed in 0u64..500,
        picks in proptest::collection::vec(0usize..10_000, 0..8),
    ) {
        let net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let g = &net.graph;
        let origin = net.hosters[seed as usize % net.hosters.len()];
        let oi = g.idx(origin);
        let neighbors: Vec<usize> = g.adjacency(oi).iter().map(|a| a.neighbor).collect();
        if neighbors.is_empty() {
            return Ok(());
        }
        // Even picks draw from the origin's neighbors, odd ones from the
        // whole graph, so lists mix adjacent and remote ASes.
        let withhold: Vec<_> = picks
            .iter()
            .map(|&k| {
                let i = if k % 2 == 0 {
                    neighbors[k / 2 % neighbors.len()]
                } else {
                    k / 2 % g.len()
                };
                g.node_at(i).asn
            })
            .collect();
        let cut: Vec<_> = withhold
            .iter()
            .copied()
            .filter(|a| neighbors.contains(&g.idx(*a)))
            .collect();
        let rc = RouteComputer::new(g);
        for scope in [ExportScope::Global, ExportScope::Local] {
            prop_assert_eq!(
                rc.routes_from_origin(origin, scope, &withhold),
                rc.routes_from_origin(origin, scope, &cut),
                "{:?} withhold {:?} vs its cut {:?}", scope, withhold, cut
            );
        }
    }

    /// Path length bookkeeping: the reconstructed AS path has exactly
    /// `path_len` nodes and starts/ends correctly.
    #[test]
    fn path_len_matches_reconstruction(seed in 0u64..500) {
        let net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let g = &net.graph;
        let origin = net.transits[seed as usize % net.transits.len()];
        let routes = RouteComputer::new(g).routes_from_origin(origin, ExportScope::Global, &[]);
        for idx in 0..g.len() {
            let Some(route) = routes.route_at(idx) else { continue };
            if route.class == RouteClass::Origin {
                continue;
            }
            let (nodes, links) = routes
                .path_via(idx, route.first_hops[0])
                .expect("routable");
            prop_assert_eq!(nodes.len() as u32, route.path_len);
            prop_assert_eq!(links.len() + 1, nodes.len());
            prop_assert_eq!(nodes[0], idx);
            prop_assert_eq!(g.node_at(*nodes.last().expect("non-empty")).asn, origin);
        }
    }

    /// Catchment geometry: the routed path is never shorter than the
    /// great-circle to the chosen site, and inflation relative to the
    /// nearest site is non-negative by construction.
    #[test]
    fn routed_paths_respect_geometry(seed in 0u64..500) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let hosts = net.sample_hosters(4);
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
        let dep = Arc::new(AnycastDeployment::new("prop", sites, vec![]));
        let mut cache = RouteCache::new();
        let catchment = Catchment::compute(&net.graph, Arc::clone(&dep), &mut cache);
        for loc in net.user_locations().iter().take(30) {
            let point = net.world.region(loc.region).center;
            let Some(a) = catchment.assign(loc.asn, &point) else { continue };
            let direct = point.distance_km(&dep.site(a.site).location);
            prop_assert!(a.path_km + 1e-6 >= direct, "path {} < direct {}", a.path_km, direct);
            prop_assert!(!a.as_path.is_empty());
            prop_assert_eq!(a.as_path[0], loc.asn);
            // No origin AS: one link between successive path ASes.
            prop_assert_eq!(a.hops as usize, a.as_path.len() + 1);
        }
    }
}
