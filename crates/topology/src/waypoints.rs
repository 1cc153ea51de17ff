//! Hot-potato resolution of AS-level paths into geography.
//!
//! Latency in the reproduction is driven by *where packets physically
//! travel*. Given the AS-level path BGP selected, each AS hands traffic to
//! the next at an interconnection point, chosen hot-potato (the link's
//! interconnect nearest to where the traffic currently is). Sparse
//! interconnection between distant ASes therefore yields circuitous
//! geographic paths — the mechanism behind "shorter AS paths tend to have
//! lower inflation" (Fig. 6b).

use crate::graph::AsGraph;
use geo::GeoPoint;

/// Walks a path's hot-potato handoffs from `user_loc` through `serving`
/// (the source AS's serving PoP, [`AsGraph::serving_pop`]) and across
/// each of `links` at its interconnect nearest to where the traffic
/// currently is. Returns the last point reached and the walk's
/// great-circle length in km.
///
/// `links` is the AS-level path's link sequence as produced by
/// [`crate::bgp::OriginRoutes::path_via`]. The last point is where the
/// path enters the final AS, from which the caller picks the
/// destination site and adds that last segment to the length.
/// A hop's segment length is the distance its selection computed,
/// measured from the hop rather than to it (haversine is symmetric bit
/// for bit; `tests/nearest.rs` pins that), so no distance is evaluated
/// twice. The length sums the segments in path order.
pub(crate) fn walk(
    graph: &AsGraph,
    links: &[usize],
    user_loc: &GeoPoint,
    serving: GeoPoint,
) -> (GeoPoint, f64) {
    let mut km = user_loc.distance_km(&serving);
    let mut cur = serving;
    for &link in links {
        let (hop, hop_km) = graph.nearest_interconnect(link, &cur);
        km += hop_km;
        cur = hop;
    }
    (cur, km)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsKind, Asn, OrgId};
    use crate::graph::AsNode;

    fn node(asn: u32, pops: Vec<GeoPoint>) -> AsNode {
        AsNode {
            asn: Asn(asn),
            kind: AsKind::Transit,
            org: OrgId(asn),
            name: format!("as{asn}"),
            pops,
            prefixes: vec![],
        }
    }

    fn simple_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(node(1, vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(0.0, 40.0)]));
        g.add_as(node(2, vec![GeoPoint::new(0.0, 50.0)]));
        g.add_peer_link(
            Asn(1),
            Asn(2),
            vec![GeoPoint::new(0.0, 45.0), GeoPoint::new(30.0, 10.0)],
        );
        g
    }

    #[test]
    fn walk_passes_serving_pop_then_interconnects() {
        let g = simple_graph();
        let user = GeoPoint::new(1.0, 38.0);
        let serving = g.serving_pop(Asn(1), &user);
        assert!((serving.lon() - 40.0).abs() < 1e-9, "nearest PoP is lon 40");
        let (entry, km) = walk(&g, &[0], &user, serving);
        assert!((entry.lon() - 45.0).abs() < 1e-9, "hot-potato interconnect");
        let segments = user.distance_km(&serving) + serving.distance_km(&entry);
        assert_eq!(km.to_bits(), segments.to_bits());
    }

    #[test]
    fn single_as_path_has_no_interconnects() {
        let g = simple_graph();
        let user = GeoPoint::new(0.0, 1.0);
        let serving = g.serving_pop(Asn(1), &user);
        let (entry, km) = walk(&g, &[], &user, serving);
        assert_eq!(entry, serving);
        assert_eq!(km, user.distance_km(&serving));
    }
}
