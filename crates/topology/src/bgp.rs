//! BGP-style route computation under Gao–Rexford policies.
//!
//! For one announced origin, [`RouteComputer::routes_from_origin`] computes
//! the route every AS in the graph would select, using the standard
//! three-phase propagation model:
//!
//! 1. **Customer routes** travel "up": an AS exports routes learned from
//!    customers (and its own) to providers, peers, and customers, so a BFS
//!    along customer→provider edges finds shortest customer-class routes.
//! 2. **Peer routes** travel one peering hop: an AS with a customer-class
//!    route (or the origin) exports it to peers, who may only re-export to
//!    their customers.
//! 3. **Provider routes** travel "down": every AS exports its best route
//!    to its customers, so a shortest-path pass along provider→customer
//!    edges fills in the rest.
//!
//! Selection at each AS is BGP's decision process restricted to what the
//! model represents: local preference (customer ≻ peer ≻ provider),
//! then shortest AS path. *All* equally-best first hops are retained so
//! the anycast layer can apply the early-exit IGP tie-break per user
//! location (§7.1: "the decision will usually fall to lowest IGP cost,
//! choosing the nearest egress").

use crate::asn::Asn;
use crate::graph::{AsGraph, Relationship};
use serde::{Deserialize, Serialize};

/// Preference class of a route, ordered worst to best so `Ord` matches
/// BGP local preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RouteClass {
    /// Learned from a provider (costs money).
    Provider,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a customer (earns money).
    Customer,
    /// The AS originates the prefix itself.
    Origin,
}

/// How far an announcement is allowed to propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExportScope {
    /// Normal announcement: propagates per Gao–Rexford export rules.
    Global,
    /// NO_EXPORT-style announcement used for *local* anycast sites
    /// (§2.1: "local sites serve small geographic areas or certain ASes
    /// \[by\] restricting the propagation of the anycast BGP announcement"):
    /// only the origin's direct neighbors learn the route.
    Local,
}

/// One equally-best first hop of a node's selected route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirstHop {
    /// Link index in the graph (carries the interconnect locations).
    pub(crate) link: usize,
    /// Dense node index of the neighbor the route was learned from.
    pub(crate) via: usize,
}

/// The route a node selected toward one origin.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRoute {
    /// Local-preference class.
    pub class: RouteClass,
    /// Number of ASes on the path, including both this AS and the origin
    /// (so a route to a directly-connected origin has length 2, matching
    /// how Fig. 6a counts "2 ASes").
    pub path_len: u32,
    /// All equally-preferred first hops (same class and length), sorted by
    /// neighbor ASN for determinism.
    pub first_hops: Vec<FirstHop>,
}

/// Routes from every AS toward one origin.
#[derive(Debug, Clone, PartialEq)]
pub struct OriginRoutes {
    origin: Asn,
    origin_idx: usize,
    per_node: Vec<Option<NodeRoute>>,
}

impl OriginRoutes {
    /// The selected route at dense node index `idx`, if the node can reach
    /// the origin at all.
    pub fn route_at(&self, idx: usize) -> Option<&NodeRoute> {
        self.per_node[idx].as_ref()
    }

    /// Reconstructs the AS-level path from node `idx` to the origin by
    /// following each AS's (deterministically) first-ranked choice, with
    /// an explicit first hop chosen by the caller (the early-exit
    /// tie-break happens only at the source).
    ///
    /// Returns the node-index path `[idx, ..., origin]` and the link index
    /// crossed at each hop. Returns `None` if `idx` has no route.
    pub fn path_via(&self, idx: usize, first: FirstHop) -> Option<(Vec<usize>, Vec<usize>)> {
        self.per_node[idx].as_ref()?;
        let mut nodes = vec![idx];
        let mut links = vec![first.link];
        let mut cur = first.via;
        // Path lengths strictly decrease along pred chains, so this
        // terminates; the bound is a belt-and-braces guard.
        for _ in 0..self.per_node.len() + 1 {
            nodes.push(cur);
            if cur == self.origin_idx {
                return Some((nodes, links));
            }
            let route = self.per_node[cur]
                .as_ref()
                .expect("pred chain must stay routable");
            let hop = route.first_hops[0];
            links.push(hop.link);
            cur = hop.via;
        }
        panic!("cycle in BGP pred chain toward {}", self.origin);
    }
}

/// Computes per-origin routing outcomes over an [`AsGraph`].
#[derive(Debug, Clone, Copy)]
pub struct RouteComputer<'g> {
    graph: &'g AsGraph,
}

impl<'g> RouteComputer<'g> {
    /// Creates a computer over `graph`.
    pub fn new(graph: &'g AsGraph) -> Self {
        Self { graph }
    }

    /// Computes the route every AS selects toward `origin`.
    ///
    /// `withhold` lists neighbor ASes the origin does *not* announce to —
    /// the selective-announcement traffic engineering of §7.1. Withheld
    /// neighbors can still reach the origin through other ASes. Only
    /// entries adjacent to `origin` have any effect; entries that are
    /// not neighbors, or not in the graph at all, are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the graph.
    pub fn routes_from_origin(
        &self,
        origin: Asn,
        scope: ExportScope,
        withhold: &[Asn],
    ) -> OriginRoutes {
        let g = self.graph;
        let n = g.len();
        let oi = g.idx(origin);
        let mut withheld: Vec<usize> = withhold.iter().filter_map(|a| g.try_idx(*a)).collect();
        withheld.sort_unstable();
        let blocked =
            |from: usize, to: usize| from == oi && withheld.binary_search(&to).is_ok();

        let mut per_node: Vec<Option<NodeRoute>> = vec![None; n];
        per_node[oi] = Some(NodeRoute { class: RouteClass::Origin, path_len: 1, first_hops: vec![] });

        if scope == ExportScope::Local {
            // NO_EXPORT: only direct neighbors learn the route.
            for adj in g.adjacency(oi) {
                if blocked(oi, adj.neighbor) {
                    continue;
                }
                // The neighbor learned the route from `origin`; its class is
                // determined by what origin is *to the neighbor*, i.e. the
                // inverse of the stored relationship-of-neighbor-to-origin.
                let class = match adj.rel {
                    Relationship::Customer => RouteClass::Provider, // neighbor is origin's customer ⇒ neighbor learned from its provider
                    Relationship::Peer => RouteClass::Peer,
                    Relationship::Provider => RouteClass::Customer, // neighbor is origin's provider ⇒ neighbor learned from its customer
                };
                let slot = &mut per_node[adj.neighbor];
                let fh = FirstHop { link: adj.link, via: oi };
                match slot {
                    None => {
                        *slot = Some(NodeRoute { class, path_len: 2, first_hops: vec![fh] })
                    }
                    Some(r) if class > r.class => {
                        *slot = Some(NodeRoute { class, path_len: 2, first_hops: vec![fh] })
                    }
                    Some(r) if class == r.class => r.first_hops.push(fh),
                    Some(_) => {}
                }
            }
            self.finish(origin, oi, per_node)
        } else {
            // Phase 1: customer-class routes, BFS "up" from the origin.
            let mut cust_len: Vec<Option<u32>> = vec![None; n];
            let mut cust_hops: Vec<Vec<FirstHop>> = vec![Vec::new(); n];
            cust_len[oi] = Some(1);
            let mut frontier = vec![oi];
            let mut depth = 1u32;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &u in &frontier {
                    for adj in g.adjacency(u) {
                        // u exports to its providers; the provider learns a
                        // customer-class route. adj.rel is the neighbor's
                        // relationship to u: Provider ⇒ neighbor is u's provider.
                        if adj.rel != Relationship::Provider || blocked(u, adj.neighbor) {
                            continue;
                        }
                        let v = adj.neighbor;
                        let fh = FirstHop { link: adj.link, via: u };
                        match cust_len[v] {
                            None => {
                                cust_len[v] = Some(depth + 1);
                                cust_hops[v].push(fh);
                                next.push(v);
                            }
                            Some(l) if l == depth + 1 => cust_hops[v].push(fh),
                            Some(_) => {}
                        }
                    }
                }
                frontier = next;
                depth += 1;
            }

            // Phase 2: one peering hop. Peers of any AS holding a
            // customer-class route (incl. the origin) learn a peer route.
            let mut peer_len: Vec<Option<u32>> = vec![None; n];
            let mut peer_hops: Vec<Vec<FirstHop>> = vec![Vec::new(); n];
            for u in 0..n {
                let Some(ul) = cust_len[u] else { continue };
                for adj in g.adjacency(u) {
                    if adj.rel != Relationship::Peer || blocked(u, adj.neighbor) {
                        continue;
                    }
                    let v = adj.neighbor;
                    if cust_len[v].is_some() {
                        continue; // customer route dominates
                    }
                    let cand = ul + 1;
                    let fh = FirstHop { link: adj.link, via: u };
                    match peer_len[v] {
                        None => {
                            peer_len[v] = Some(cand);
                            peer_hops[v].push(fh);
                        }
                        Some(l) if cand < l => {
                            peer_len[v] = Some(cand);
                            peer_hops[v] = vec![fh];
                        }
                        Some(l) if cand == l => peer_hops[v].push(fh),
                        Some(_) => {}
                    }
                }
            }

            // Phase 3: provider-class routes travel "down". Every AS
            // exports its best route to customers; bucketed shortest-path.
            let best_len_12 = |v: usize| cust_len[v].or(peer_len[v]);
            let mut prov_len: Vec<Option<u32>> = vec![None; n];
            let mut prov_hops: Vec<Vec<FirstHop>> = vec![Vec::new(); n];
            let max_bucket = 4 * (n as u32 + 2);
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_bucket as usize];
            // Seed: customers of ASes that already have routes.
            let seed = |u: usize,
                            buckets: &mut Vec<Vec<usize>>,
                            prov_len: &mut Vec<Option<u32>>,
                            prov_hops: &mut Vec<Vec<FirstHop>>| {
                let Some(ul) = best_len_12(u) else { return };
                for adj in g.adjacency(u) {
                    if adj.rel != Relationship::Customer || blocked(u, adj.neighbor) {
                        continue;
                    }
                    let v = adj.neighbor;
                    if cust_len[v].is_some() || peer_len[v].is_some() {
                        continue;
                    }
                    let cand = ul + 1;
                    let fh = FirstHop { link: adj.link, via: u };
                    match prov_len[v] {
                        None => {
                            prov_len[v] = Some(cand);
                            prov_hops[v] = vec![fh];
                            buckets[cand as usize].push(v);
                        }
                        Some(l) if cand < l => {
                            prov_len[v] = Some(cand);
                            prov_hops[v] = vec![fh];
                            buckets[cand as usize].push(v);
                        }
                        Some(l) if cand == l => prov_hops[v].push(fh),
                        Some(_) => {}
                    }
                }
            };
            for u in 0..n {
                seed(u, &mut buckets, &mut prov_len, &mut prov_hops);
            }
            // Relax: provider routes re-export to customers.
            for d in 0..max_bucket {
                let mut i = 0;
                while i < buckets[d as usize].len() {
                    let u = buckets[d as usize][i];
                    i += 1;
                    if prov_len[u] != Some(d) {
                        continue; // stale entry
                    }
                    for adj in g.adjacency(u) {
                        if adj.rel != Relationship::Customer || blocked(u, adj.neighbor) {
                            continue;
                        }
                        let v = adj.neighbor;
                        if cust_len[v].is_some() || peer_len[v].is_some() {
                            continue;
                        }
                        let cand = d + 1;
                        let fh = FirstHop { link: adj.link, via: u };
                        match prov_len[v] {
                            None => {
                                prov_len[v] = Some(cand);
                                prov_hops[v] = vec![fh];
                                buckets[cand as usize].push(v);
                            }
                            Some(l) if cand < l => {
                                prov_len[v] = Some(cand);
                                prov_hops[v] = vec![fh];
                                buckets[cand as usize].push(v);
                            }
                            Some(l) if cand == l => {
                                if !prov_hops[v].contains(&fh) {
                                    prov_hops[v].push(fh);
                                }
                            }
                            Some(_) => {}
                        }
                    }
                }
            }

            // Assemble: best class wins.
            for v in 0..n {
                if v == oi {
                    continue;
                }
                let (class, len, hops) = if let Some(l) = cust_len[v] {
                    (RouteClass::Customer, l, std::mem::take(&mut cust_hops[v]))
                } else if let Some(l) = peer_len[v] {
                    (RouteClass::Peer, l, std::mem::take(&mut peer_hops[v]))
                } else if let Some(l) = prov_len[v] {
                    (RouteClass::Provider, l, std::mem::take(&mut prov_hops[v]))
                } else {
                    continue;
                };
                per_node[v] = Some(NodeRoute { class, path_len: len, first_hops: hops });
            }
            self.finish(origin, oi, per_node)
        }
    }

    fn finish(
        &self,
        origin: Asn,
        origin_idx: usize,
        mut per_node: Vec<Option<NodeRoute>>,
    ) -> OriginRoutes {
        // Deterministic ordering of equally-best first hops, by neighbor ASN.
        for route in per_node.iter_mut().flatten() {
            route
                .first_hops
                .sort_by_key(|fh| self.graph.node_at(fh.via).asn);
            route.first_hops.dedup();
        }
        // Commutative counters only: this runs inside parallel prefill
        // workers, and sums are schedule-independent.
        obs::counter_add("bgp.origin_computations", 1);
        obs::counter_add(
            "bgp.routed_nodes",
            per_node.iter().filter(|r| r.is_some()).count() as u64,
        );
        OriginRoutes { origin, origin_idx, per_node }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsKind, OrgId};
    use crate::graph::AsNode;
    use crate::prefix::Prefix24;
    use geo::GeoPoint;

    fn node(asn: u32, kind: AsKind) -> AsNode {
        AsNode {
            asn: Asn(asn),
            kind,
            org: OrgId(asn),
            name: format!("as{asn}"),
            pops: vec![GeoPoint::new(0.0, (asn % 90) as f64)],
            prefixes: vec![Prefix24(asn)],
        }
    }

    fn x(lon: f64) -> Vec<GeoPoint> {
        vec![GeoPoint::new(0.0, lon)]
    }

    /// Classic shark-fin: origin O is customer of T1 and T2; T1-T2 peer;
    /// E is customer of T2. E must route via its provider T2 (not through
    /// the peering valley).
    fn sharkfin() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(node(10, AsKind::Transit)); // T1
        g.add_as(node(20, AsKind::Transit)); // T2
        g.add_as(node(1, AsKind::Hoster)); // O
        g.add_as(node(2, AsKind::Eyeball)); // E
        g.add_provider_link(Asn(10), Asn(1), x(0.0));
        g.add_provider_link(Asn(20), Asn(1), x(1.0));
        g.add_peer_link(Asn(10), Asn(20), x(2.0));
        g.add_provider_link(Asn(20), Asn(2), x(3.0));
        g
    }

    #[test]
    fn origin_route_is_origin_class_len_1() {
        let g = sharkfin();
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        let r = routes.route_at(g.idx(Asn(1))).unwrap();
        assert_eq!(r.class, RouteClass::Origin);
        assert_eq!(r.path_len, 1);
    }

    #[test]
    fn providers_get_customer_routes() {
        let g = sharkfin();
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        for t in [10, 20] {
            let r = routes.route_at(g.idx(Asn(t))).unwrap();
            assert_eq!(r.class, RouteClass::Customer, "AS{t}");
            assert_eq!(r.path_len, 2);
        }
    }

    #[test]
    fn eyeball_learns_from_provider_and_path_is_valley_free() {
        let g = sharkfin();
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        let e = g.idx(Asn(2));
        let r = routes.route_at(e).unwrap();
        assert_eq!(r.class, RouteClass::Provider);
        assert_eq!(r.path_len, 3); // E, T2, O
        let (nodes, links) = routes.path_via(e, r.first_hops[0]).unwrap();
        let asns: Vec<u32> = nodes.iter().map(|&i| g.node_at(i).asn.0).collect();
        assert_eq!(asns, vec![2, 20, 1]);
        assert_eq!(links.len(), 2);
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // V has customer route of len 3 and peer route of len 2; customer wins.
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Hoster)); // origin
        g.add_as(node(2, AsKind::Transit)); // V
        g.add_as(node(3, AsKind::Transit)); // mid customer chain
        g.add_provider_link(Asn(3), Asn(1), x(0.0)); // 3 provider of 1
        g.add_provider_link(Asn(2), Asn(3), x(1.0)); // 2 provider of 3
        g.add_peer_link(Asn(2), Asn(1), x(2.0)); // direct peer: len 2
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        let r = routes.route_at(g.idx(Asn(2))).unwrap();
        assert_eq!(r.class, RouteClass::Customer);
        assert_eq!(r.path_len, 3);
    }

    #[test]
    fn peer_routes_do_not_transit() {
        // P peers with origin; Q is P's peer. Q must NOT learn the route
        // through P (peer routes only export to customers).
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Hoster));
        g.add_as(node(2, AsKind::Transit)); // P
        g.add_as(node(3, AsKind::Transit)); // Q
        g.add_peer_link(Asn(2), Asn(1), x(0.0));
        g.add_peer_link(Asn(3), Asn(2), x(1.0));
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        assert!(routes.route_at(g.idx(Asn(3))).is_none());
    }

    #[test]
    fn peer_route_exports_to_customers() {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Hoster));
        g.add_as(node(2, AsKind::Transit)); // peer of origin
        g.add_as(node(3, AsKind::Eyeball)); // customer of 2
        g.add_peer_link(Asn(2), Asn(1), x(0.0));
        g.add_provider_link(Asn(2), Asn(3), x(1.0));
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        let r = routes.route_at(g.idx(Asn(3))).unwrap();
        assert_eq!(r.class, RouteClass::Provider);
        assert_eq!(r.path_len, 3);
    }

    #[test]
    fn equal_cost_first_hops_are_all_kept() {
        // Diamond: E has two providers, both customers of... both provide
        // equal-length paths to origin.
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Hoster));
        g.add_as(node(2, AsKind::Transit));
        g.add_as(node(3, AsKind::Transit));
        g.add_as(node(4, AsKind::Eyeball));
        g.add_provider_link(Asn(2), Asn(1), x(0.0));
        g.add_provider_link(Asn(3), Asn(1), x(1.0));
        g.add_provider_link(Asn(2), Asn(4), x(2.0));
        g.add_provider_link(Asn(3), Asn(4), x(3.0));
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        let r = routes.route_at(g.idx(Asn(4))).unwrap();
        assert_eq!(r.first_hops.len(), 2);
        // Sorted by neighbor ASN.
        assert_eq!(g.node_at(r.first_hops[0].via).asn, Asn(2));
    }

    #[test]
    fn local_scope_reaches_only_neighbors() {
        let g = sharkfin();
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Local, &[]);
        assert!(routes.route_at(g.idx(Asn(10))).is_some());
        assert!(routes.route_at(g.idx(Asn(20))).is_some());
        assert!(routes.route_at(g.idx(Asn(2))).is_none(), "must not propagate past neighbors");
    }

    #[test]
    fn withholding_forces_longer_path() {
        // E peers directly with origin but the origin withholds the
        // announcement from E; E must fall back to its provider path.
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Content));
        g.add_as(node(2, AsKind::Eyeball));
        g.add_as(node(3, AsKind::Transit));
        g.add_peer_link(Asn(2), Asn(1), x(0.0));
        g.add_provider_link(Asn(3), Asn(2), x(1.0));
        g.add_peer_link(Asn(3), Asn(1), x(2.0));
        let rc = RouteComputer::new(&g);
        let normal = rc.routes_from_origin(Asn(1), ExportScope::Global, &[]);
        assert_eq!(normal.route_at(g.idx(Asn(2))).unwrap().path_len, 2);
        let te = rc.routes_from_origin(Asn(1), ExportScope::Global, &[Asn(2)]);
        let r = te.route_at(g.idx(Asn(2))).unwrap();
        assert_eq!(r.path_len, 3);
        assert_eq!(r.class, RouteClass::Provider);
    }

    #[test]
    fn disconnected_as_has_no_route() {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Hoster));
        g.add_as(node(2, AsKind::Eyeball));
        let routes = RouteComputer::new(&g).routes_from_origin(Asn(1), ExportScope::Global, &[]);
        assert!(routes.route_at(g.idx(Asn(2))).is_none());
    }

    #[test]
    fn route_class_ordering_matches_local_pref() {
        assert!(RouteClass::Origin > RouteClass::Customer);
        assert!(RouteClass::Customer > RouteClass::Peer);
        assert!(RouteClass::Peer > RouteClass::Provider);
    }
}
