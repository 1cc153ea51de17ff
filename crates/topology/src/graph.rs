//! The AS-level graph: nodes, Gao–Rexford relationships, and geographic
//! interconnection points.
//!
//! Links carry the *locations* where the two ASes interconnect. This is
//! what lets the path walk ([`crate::waypoints`]) model hot-potato
//! routing: an AS hands traffic to the next AS at one of the link's
//! interconnect points, chosen early-exit, and sparse interconnection is
//! precisely what makes paths through transit providers geographically
//! circuitous (§7.1).

use crate::asn::{AsKind, Asn, OrgId};
use crate::prefix::Prefix24;
use geo::GeoPoint;
use par::DetHashMap;
use serde::{Deserialize, Serialize};

/// Relationship of a neighbor *to* the local AS.
///
/// `Customer` means "the neighbor is my customer" — routes learned from a
/// customer are most preferred (they earn money), then routes from peers
/// (free), then routes from providers (they cost money). This ordering is
/// BGP local preference in the Gao–Rexford model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Relationship {
    /// Neighbor pays the local AS for transit.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// The local AS pays the neighbor for transit.
    Provider,
}

impl Relationship {
    /// The same link seen from the other end.
    pub(crate) fn inverse(&self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
        }
    }
}

/// A node in the AS graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsNode {
    /// The AS number.
    pub asn: Asn,
    /// Behavioural class.
    pub kind: AsKind,
    /// Owning organization (siblings share one).
    pub org: OrgId,
    /// Human-readable name for rendered output.
    pub name: String,
    /// Points of presence. Eyeballs have one or a few in their home metro;
    /// tier-1s are global. Must be non-empty.
    pub pops: Vec<GeoPoint>,
    /// /24 prefixes originated by this AS.
    pub prefixes: Vec<Prefix24>,
}

/// One interdomain link with its physical interconnection points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub(crate) a: Asn,
    /// Other endpoint.
    pub(crate) b: Asn,
    /// Relationship of `b` to `a` (i.e. `Customer` ⇒ b is a's customer).
    pub(crate) rel_of_b_to_a: Relationship,
    /// Locations where the two ASes interconnect (non-empty).
    pub(crate) interconnects: Vec<GeoPoint>,
}

/// Adjacency entry stored per node.
#[derive(Debug, Clone, Copy)]
pub struct Adjacency {
    /// Dense index of the neighbor node.
    pub neighbor: usize,
    /// Relationship of the neighbor to this node.
    pub rel: Relationship,
    /// Index into [`AsGraph::links`].
    pub(crate) link: usize,
}

/// The AS-level Internet graph.
///
/// Node storage is dense (stable insertion-order indices) so BGP
/// computations can use `Vec`-indexed state; the public API is keyed by
/// [`Asn`].
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    nodes: Vec<AsNode>,
    index: DetHashMap<Asn, usize>,
    links: Vec<Link>,
    adj: Vec<Vec<Adjacency>>,
}

impl AsGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics if the ASN is already present or the node has no PoPs — both
    /// indicate generator bugs and would silently corrupt routing later.
    pub fn add_as(&mut self, node: AsNode) {
        assert!(!node.pops.is_empty(), "{} has no PoPs", node.asn);
        assert!(
            !self.index.contains_key(&node.asn),
            "duplicate {}",
            node.asn
        );
        self.index.insert(node.asn, self.nodes.len());
        self.nodes.push(node);
        self.adj.push(Vec::new());
    }

    /// Adds a provider→customer link (`provider` sells transit to
    /// `customer`) interconnecting at `interconnects`.
    pub fn add_provider_link(&mut self, provider: Asn, customer: Asn, interconnects: Vec<GeoPoint>) {
        self.add_link(provider, customer, Relationship::Customer, interconnects);
    }

    /// Adds a settlement-free peering link.
    pub fn add_peer_link(&mut self, a: Asn, b: Asn, interconnects: Vec<GeoPoint>) {
        self.add_link(a, b, Relationship::Peer, interconnects);
    }

    fn add_link(&mut self, a: Asn, b: Asn, rel_of_b_to_a: Relationship, interconnects: Vec<GeoPoint>) {
        assert!(a != b, "self-link on {a}");
        assert!(!interconnects.is_empty(), "link {a}-{b} has no interconnects");
        let ia = self.idx(a);
        let ib = self.idx(b);
        assert!(
            !self.adj[ia].iter().any(|adj| adj.neighbor == ib),
            "duplicate link {a}-{b}"
        );
        let link = self.links.len();
        self.links.push(Link { a, b, rel_of_b_to_a, interconnects });
        self.adj[ia].push(Adjacency { neighbor: ib, rel: rel_of_b_to_a, link });
        self.adj[ib].push(Adjacency { neighbor: ia, rel: rel_of_b_to_a.inverse(), link });
    }

    /// Whether the two ASes are directly connected.
    pub fn connected(&self, a: Asn, b: Asn) -> bool {
        let (Some(&ia), Some(&ib)) = (self.index.get(&a), self.index.get(&b)) else {
            return false;
        };
        self.adj[ia].iter().any(|adj| adj.neighbor == ib)
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> &[AsNode] {
        &self.nodes
    }

    /// All links in insertion order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node lookup by ASN.
    ///
    /// # Panics
    ///
    /// Panics if the ASN is unknown.
    pub fn node(&self, asn: Asn) -> &AsNode {
        &self.nodes[self.idx(asn)]
    }

    /// Node lookup by ASN, returning `None` for unknown ASNs.
    pub fn get(&self, asn: Asn) -> Option<&AsNode> {
        self.index.get(&asn).map(|&i| &self.nodes[i])
    }

    /// Dense index of an ASN.
    ///
    /// # Panics
    ///
    /// Panics if the ASN is unknown.
    pub fn idx(&self, asn: Asn) -> usize {
        self.try_idx(asn).unwrap_or_else(|| panic!("unknown {asn}"))
    }

    /// Dense index of an ASN, `None` for unknown ASNs.
    pub(crate) fn try_idx(&self, asn: Asn) -> Option<usize> {
        self.index.get(&asn).copied()
    }

    /// Node by dense index.
    pub fn node_at(&self, idx: usize) -> &AsNode {
        &self.nodes[idx]
    }

    /// Adjacency list of a node by dense index.
    pub fn adjacency(&self, idx: usize) -> &[Adjacency] {
        &self.adj[idx]
    }

    /// Link by index.
    #[cfg(test)]
    pub(crate) fn link(&self, idx: usize) -> &Link {
        &self.links[idx]
    }

    /// The PoP of `asn` nearest to `point` — the "serving PoP" used for
    /// IGP early-exit decisions and as the first handoff of a path.
    pub fn serving_pop(&self, asn: Asn, point: &GeoPoint) -> GeoPoint {
        let pops = self.node(asn).pops.iter().copied();
        nearest(pops, |p| p.distance_km(point)).expect("nodes always have PoPs").0
    }

    /// The interconnect point on `link` nearest to `from` — hot-potato
    /// exit selection — and its distance from `from` in km.
    pub(crate) fn nearest_interconnect(&self, link: usize, from: &GeoPoint) -> (GeoPoint, f64) {
        nearest(self.links[link].interconnects.iter().copied(), |p| p.distance_km(from))
            .expect("links always have interconnects")
    }

    /// Ground-truth origin allocation of every /24, for building the
    /// [`crate::prefix::IpToAsnService`].
    pub fn prefix_allocations(&self) -> Vec<(Prefix24, Asn)> {
        self.nodes
            .iter()
            .flat_map(|n| n.prefixes.iter().map(move |p| (*p, n.asn)))
            .collect()
    }
}

/// The item of `items` whose `dist` is least, with that distance, or
/// `None` when `items` is empty. Each distance is evaluated once, where
/// `Iterator::min_by` over `dist(a).partial_cmp(&dist(b))` evaluates two
/// per comparison; the pick is the same: the first minimum wins, and a
/// NaN distance compares equal to everything (`unwrap_or(Equal)`).
pub fn nearest<T>(
    items: impl IntoIterator<Item = T>,
    mut dist: impl FnMut(&T) -> f64,
) -> Option<(T, f64)> {
    let mut best: Option<(T, f64)> = None;
    for item in items {
        let d = dist(&item);
        // `min_by` keeps the current minimum unless it compares Greater.
        let replaces = best.as_ref().is_none_or(|(_, b)| {
            b.partial_cmp(&d).unwrap_or(std::cmp::Ordering::Equal) == std::cmp::Ordering::Greater
        });
        if replaces {
            best = Some((item, d));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(asn: u32, kind: AsKind) -> AsNode {
        AsNode {
            asn: Asn(asn),
            kind,
            org: OrgId(asn),
            name: format!("as{asn}"),
            pops: vec![GeoPoint::new(0.0, asn as f64)],
            prefixes: vec![Prefix24(asn)],
        }
    }

    #[test]
    fn relationship_inverse() {
        assert_eq!(Relationship::Customer.inverse(), Relationship::Provider);
        assert_eq!(Relationship::Provider.inverse(), Relationship::Customer);
        assert_eq!(Relationship::Peer.inverse(), Relationship::Peer);
    }

    #[test]
    fn links_are_bidirectional_with_inverse_rel() {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Transit));
        g.add_as(node(2, AsKind::Eyeball));
        g.add_provider_link(Asn(1), Asn(2), vec![GeoPoint::new(0.0, 0.0)]);
        let i1 = g.idx(Asn(1));
        let i2 = g.idx(Asn(2));
        assert_eq!(g.adjacency(i1)[0].rel, Relationship::Customer);
        assert_eq!(g.adjacency(i2)[0].rel, Relationship::Provider);
        assert!(g.connected(Asn(1), Asn(2)));
        assert!(g.connected(Asn(2), Asn(1)));
        assert!(!g.connected(Asn(1), Asn(3)));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Transit));
        g.add_as(node(2, AsKind::Eyeball));
        g.add_peer_link(Asn(1), Asn(2), vec![GeoPoint::new(0.0, 0.0)]);
        g.add_peer_link(Asn(2), Asn(1), vec![GeoPoint::new(0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate AS")]
    fn duplicate_as_panics() {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Transit));
        g.add_as(node(1, AsKind::Transit));
    }

    #[test]
    #[should_panic(expected = "no PoPs")]
    fn popless_as_panics() {
        let mut g = AsGraph::new();
        let mut n = node(1, AsKind::Transit);
        n.pops.clear();
        g.add_as(n);
    }

    #[test]
    fn serving_pop_picks_nearest() {
        let mut g = AsGraph::new();
        let mut n = node(1, AsKind::Tier1);
        n.pops = vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(0.0, 90.0)];
        g.add_as(n);
        let near_east = GeoPoint::new(1.0, 85.0);
        let pop = g.serving_pop(Asn(1), &near_east);
        assert!((pop.lon() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn nearest_interconnect_is_hot_potato() {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Transit));
        g.add_as(node(2, AsKind::Transit));
        g.add_peer_link(
            Asn(1),
            Asn(2),
            vec![GeoPoint::new(0.0, -60.0), GeoPoint::new(0.0, 60.0)],
        );
        let (x, km) = g.nearest_interconnect(0, &GeoPoint::new(0.0, 50.0));
        assert!((x.lon() - 60.0).abs() < 1e-9);
        assert_eq!(km, x.distance_km(&GeoPoint::new(0.0, 50.0)));
    }

    #[test]
    fn prefix_allocations_cover_all_nodes() {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Eyeball));
        g.add_as(node(2, AsKind::Eyeball));
        let allocs = g.prefix_allocations();
        assert_eq!(allocs.len(), 2);
        assert!(allocs.contains(&(Prefix24(1), Asn(1))));
    }
}
