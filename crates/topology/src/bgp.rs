//! BGP-style route computation under Gao–Rexford policies.
//!
//! For one announced origin, [`RouteComputer::routes_from_origin`] computes
//! the route every AS selects by one rule: an AS offered a route keeps the
//! better of the offer and its own, by local preference (customer ≻ peer ≻
//! provider) and then shorter AS path, and keeps *every* equally-best first
//! hop, so the anycast layer can apply the early-exit IGP tie-break per user
//! location (§7.1: "the decision will usually fall to lowest IGP cost,
//! choosing the nearest egress"). Routes are offered per Gao–Rexford export:
//!
//! | route held                | offered to                     |
//! |---------------------------|--------------------------------|
//! | own or customer-learned   | providers, peers and customers |
//! | peer- or provider-learned | customers only                 |
//!
//! A global announcement applies the rule in three *spreads*, each across
//! one kind of edge, in path-length order:
//!
//! 1. **Customer routes** go up provider edges from the origin, re-exported.
//! 2. **Peer routes** go one hop across peering edges from every AS holding
//!    its own or a customer route, not re-exported.
//! 3. **Provider routes**: every selected route goes down customer edges,
//!    re-exported.
//!
//! Each spread builds only on routes the earlier ones settled and offers no
//! class that beats them, so the three reach the routing game's fixed point
//! (a proptest checks them against best-response rounds run from scratch).
//! A NO_EXPORT announcement ([`ExportScope::Local`]) is the same three
//! spreads cut to one hop from the origin.

use crate::asn::Asn;
use crate::graph::{AsGraph, Relationship};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
        use Relationship::{Customer, Peer, Provider};
        let g = self.graph;
        let oi = g.idx(origin);
        let mut withheld: Vec<usize> = withhold.iter().filter_map(|a| g.try_idx(*a)).collect();
        withheld.sort_unstable();
        let mut t = Tables { graph: g, origin: oi, withheld, routes: vec![None; g.len()] };
        let own = NodeRoute { class: RouteClass::Origin, path_len: 1, first_hops: vec![] };
        t.routes[oi] = Some(own);
        match scope {
            ExportScope::Global => {
                t.spread(vec![oi], Provider, RouteClass::Customer, true);
                let own_or_customer = t.routed(|r| r.class >= RouteClass::Customer);
                t.spread(own_or_customer, Peer, RouteClass::Peer, false);
                let every = t.routed(|_| true);
                t.spread(every, Customer, RouteClass::Provider, true);
            }
            ExportScope::Local => {
                t.spread(vec![oi], Provider, RouteClass::Customer, false);
                t.spread(vec![oi], Peer, RouteClass::Peer, false);
                t.spread(vec![oi], Customer, RouteClass::Provider, false);
            }
        }
        // Deterministic ordering of equally-best first hops, by neighbor ASN.
        for route in t.routes.iter_mut().flatten() {
            route.first_hops.sort_by_key(|fh| g.node_at(fh.via).asn);
        }
        // Commutative counters only: this runs inside parallel prefill
        // workers, and sums are schedule-independent.
        obs::counter_add("bgp.origin_computations", 1);
        obs::counter_add(
            "bgp.routed_nodes",
            t.routes.iter().filter(|r| r.is_some()).count() as u64,
        );
        OriginRoutes { origin, origin_idx: oi, per_node: t.routes }
    }
}

/// The route tables toward one origin while they are being built.
struct Tables<'g> {
    graph: &'g AsGraph,
    origin: usize,
    /// Sorted indices of the origin's neighbors it does not announce to.
    withheld: Vec<usize>,
    routes: Vec<Option<NodeRoute>>,
}

impl Tables<'_> {
    /// Every AS whose route passes `keep`, in index order.
    fn routed(&self, keep: impl Fn(&NodeRoute) -> bool) -> Vec<usize> {
        (0..self.routes.len()).filter(|&u| self.routes[u].as_ref().is_some_and(&keep)).collect()
    }

    /// The path length of routed AS `u`.
    fn path_len(&self, u: usize) -> u32 {
        self.routes[u].as_ref().expect("sources are routed").path_len
    }

    /// Offers each source's route, one AS longer and of class `learned`,
    /// to every neighbor that is the source's `edge`. The neighbor keeps
    /// the better of its route and the offer by class, then shorter path,
    /// and every equally-best first hop. With `reexport`, an AS whose
    /// route improves offers it on across its own `edge` links; sources
    /// then go in path-length order, so a route is final before it is
    /// offered on and each AS improves at most once.
    fn spread(
        &mut self,
        sources: Vec<usize>,
        edge: Relationship,
        learned: RouteClass,
        reexport: bool,
    ) {
        // A bucket per path length; without re-export, one of all sources.
        let mut queue: Vec<Vec<usize>> = Vec::new();
        if reexport {
            for u in sources {
                enqueue(&mut queue, self.path_len(u), u);
            }
        } else {
            queue.push(sources);
        }
        let mut next = 0;
        while next < queue.len() {
            for u in std::mem::take(&mut queue[next]) {
                let len = self.path_len(u) + 1;
                let offer = (learned, Reverse(len));
                for adj in self.graph.adjacency(u) {
                    let v = adj.neighbor;
                    let withheld = u == self.origin && self.withheld.binary_search(&v).is_ok();
                    if adj.rel != edge || withheld {
                        continue;
                    }
                    let hop = FirstHop { link: adj.link, via: u };
                    match &mut self.routes[v] {
                        Some(r) if (r.class, Reverse(r.path_len)) > offer => {}
                        Some(r) if (r.class, Reverse(r.path_len)) == offer => {
                            r.first_hops.push(hop)
                        }
                        slot => {
                            let first_hops = vec![hop];
                            *slot = Some(NodeRoute { class: learned, path_len: len, first_hops });
                            if reexport {
                                enqueue(&mut queue, len, v);
                            }
                        }
                    }
                }
            }
            next += 1;
        }
    }
}

/// Appends `u` to the bucket for path length `len`.
fn enqueue(queue: &mut Vec<Vec<usize>>, len: u32, u: usize) {
    let len = len as usize;
    if queue.len() <= len {
        queue.resize_with(len + 1, Vec::new);
    }
    queue[len].push(u);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsKind, OrgId};
    use crate::graph::AsNode;
    use crate::prefix::Prefix24;
    use geo::GeoPoint;
    use proptest::prelude::*;

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

    /// A route in the reference: class, path length and the sorted
    /// first-hop neighbours.
    type RefRoute = Option<(RouteClass, u32, Vec<usize>)>;

    /// The routing game solved from scratch: starting with only the
    /// origin routed, every other AS repeatedly re-selects the best
    /// (class, then shorter path) among the offers its neighbours'
    /// current routes make, in synchronous rounds, until a round changes
    /// nothing. Own and customer-learned routes are offered to every
    /// neighbour, peer- and provider-learned ones only to customers;
    /// under NO_EXPORT only the origin offers, and a withheld neighbour
    /// hears nothing from the origin.
    fn fixed_point(g: &AsGraph, oi: usize, scope: ExportScope, withheld: &[usize]) -> Vec<RefRoute> {
        let mut routes: Vec<RefRoute> = vec![None; g.len()];
        routes[oi] = Some((RouteClass::Origin, 1, vec![]));
        for _ in 0..=g.len() + 1 {
            let next: Vec<RefRoute> = (0..g.len())
                .map(|v| {
                    if v == oi {
                        return routes[oi].clone();
                    }
                    let mut best: RefRoute = None;
                    for adj in g.adjacency(v) {
                        let u = adj.neighbor;
                        let Some((class, len, _)) = &routes[u] else { continue };
                        let exports = *class >= RouteClass::Customer || adj.rel == Relationship::Provider;
                        let announces = u == oi || scope == ExportScope::Global;
                        if !exports || !announces || (u == oi && withheld.contains(&v)) {
                            continue;
                        }
                        // `adj.rel` is u's relationship to v: v learns a
                        // customer route from its customer, and so on.
                        let offer = match adj.rel {
                            Relationship::Customer => RouteClass::Customer,
                            Relationship::Peer => RouteClass::Peer,
                            Relationship::Provider => RouteClass::Provider,
                        };
                        let key = (offer, std::cmp::Reverse(len + 1));
                        match &mut best {
                            Some((c, l, vias)) if key == (*c, std::cmp::Reverse(*l)) => vias.push(u),
                            Some((c, l, _)) if key < (*c, std::cmp::Reverse(*l)) => {}
                            _ => best = Some((offer, len + 1, vec![u])),
                        }
                    }
                    if let Some((_, _, vias)) = &mut best {
                        vias.sort_unstable();
                    }
                    best
                })
                .collect();
            if next == routes {
                return routes;
            }
            routes = next;
        }
        panic!("no fixed point toward AS index {oi}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every AS's selected class, path length and set of first-hop
        /// neighbours equal the routing game's fixed point, in both
        /// scopes, with a random subset of the origin's neighbours
        /// withheld.
        #[test]
        fn routes_are_the_routing_games_fixed_point(
            seed in 0u64..500,
            pick in 0u64..u64::MAX,
            withhold_bits in 0u64..u64::MAX,
        ) {
            use crate::gen::{InternetGenerator, TopologyConfig};
            let net = InternetGenerator::generate(&TopologyConfig::small(seed));
            let g = &net.graph;
            let origins: Vec<Asn> = net.hosters.iter().chain(&net.transits).copied().collect();
            let origin = origins[(pick % origins.len() as u64) as usize];
            let oi = g.idx(origin);
            let withheld: Vec<usize> = g
                .adjacency(oi)
                .iter()
                .enumerate()
                .filter(|(i, _)| withhold_bits >> (i % 64) & 1 == 1)
                .map(|(_, adj)| adj.neighbor)
                .collect();
            let withhold: Vec<Asn> = withheld.iter().map(|&i| g.node_at(i).asn).collect();
            for scope in [ExportScope::Global, ExportScope::Local] {
                let routes = RouteComputer::new(g).routes_from_origin(origin, scope, &withhold);
                let reference = fixed_point(g, oi, scope, &withheld);
                for (v, want) in reference.iter().enumerate() {
                    let got = routes.route_at(v).map(|r| {
                        let mut vias: Vec<usize> = r.first_hops.iter().map(|fh| fh.via).collect();
                        vias.sort_unstable();
                        (r.class, r.path_len, vias)
                    });
                    prop_assert_eq!(&got, want, "AS index {} toward {} ({:?})", v, origin, scope);
                }
            }
        }
    }
}
