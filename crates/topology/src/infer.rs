//! AS-relationship inference from observed paths (Gao's algorithm).
//!
//! The paper's public-data methodology leans on inferred datasets —
//! CAIDA's AS-to-organization mapping for Fig. 6's sibling merge, and
//! implicitly on relationship inference behind every "AS path length"
//! claim — while §7.1 cautions that "publicly available data cannot
//! capture all of Microsoft's optimizations". This module reproduces the
//! instrument itself: Gao's classic valley-free inference over a set of
//! observed AS paths, so the reproduction can *measure how good inferred
//! relationships are* against its own ground truth (`extinfer`).
//!
//! Algorithm (Gao 2001, simplified):
//! 1. the highest-degree AS on each path is its **top provider**;
//! 2. edges before the top vote *uphill* (left side is the customer),
//!    edges after vote *downhill*;
//! 3. edges with votes in only one direction become provider→customer;
//!    edges with conflicting votes become peers (the valley-free model
//!    allows at most one peer edge, adjacent to the top).

use crate::asn::Asn;
use par::DetHashMap;
use serde::{Deserialize, Serialize};

/// An inferred relationship for an (unordered) AS pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum InferredRel {
    /// The first AS of the (canonically ordered) pair provides transit to
    /// the second.
    ProviderOf,
    /// The second provides transit to the first.
    CustomerOf,
    /// Settlement-free peers.
    Peer,
}

/// Inference output: per (canonically ordered: smaller ASN first) pair.
#[derive(Debug, Clone, Default)]
pub struct InferredRelationships {
    /// The classified pairs.
    pub(crate) pairs: DetHashMap<(Asn, Asn), InferredRel>,
}

impl InferredRelationships {
    /// Looks up the inferred relationship of `a` toward `b`:
    /// `ProviderOf` means *a provides transit to b*.
    pub(crate) fn relation(&self, a: Asn, b: Asn) -> Option<InferredRel> {
        let (key, flipped) = canonical(a, b);
        self.pairs.get(&key).map(|r| {
            if !flipped {
                *r
            } else {
                match r {
                    InferredRel::ProviderOf => InferredRel::CustomerOf,
                    InferredRel::CustomerOf => InferredRel::ProviderOf,
                    InferredRel::Peer => InferredRel::Peer,
                }
            }
        })
    }
}

fn canonical(a: Asn, b: Asn) -> ((Asn, Asn), bool) {
    if a <= b {
        ((a, b), false)
    } else {
        ((b, a), true)
    }
}

/// Runs Gao-style inference over observed AS paths.
///
/// `peer_vote_ratio` controls peer classification: a pair is a peer when
/// its minority vote direction carries at least this fraction of its
/// votes (Gao's L-threshold, inverted).
pub fn infer_relationships(paths: &[Vec<Asn>], peer_vote_ratio: f64) -> InferredRelationships {
    // Degrees from the observed paths themselves (as Gao does — the
    // inference has no oracle access to the real graph).
    let mut degree: DetHashMap<Asn, usize> = DetHashMap::default();
    {
        let mut neighbors: DetHashMap<Asn, par::DetHashSet<Asn>> = DetHashMap::default();
        for path in paths {
            for w in path.windows(2) {
                neighbors.entry(w[0]).or_default().insert(w[1]);
                neighbors.entry(w[1]).or_default().insert(w[0]);
            }
        }
        for (asn, n) in neighbors {
            degree.insert(asn, n.len());
        }
    }

    // Votes per canonical pair: (first-provides-second, second-provides-first).
    let mut votes: DetHashMap<(Asn, Asn), (u32, u32)> = DetHashMap::default();
    for path in paths {
        if path.len() < 2 {
            continue;
        }
        // Top provider: highest degree on the path.
        let top = path
            .iter()
            .enumerate()
            .max_by_key(|(_, asn)| degree.get(asn).copied().unwrap_or(0))
            .map(|(i, _)| i)
            .expect("non-empty path");
        for (i, w) in path.windows(2).enumerate() {
            let (left, right) = (w[0], w[1]);
            if left == right {
                continue;
            }
            // Before the top: right provides left (uphill).
            // At/after the top: left provides right (downhill).
            let left_provides_right = i >= top;
            let ((a, b), flipped) = canonical(left, right);
            let first_provides_second = left_provides_right != flipped;
            let e = votes.entry((a, b)).or_default();
            if first_provides_second {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }

    let mut pairs = DetHashMap::default();
    for ((a, b), (fwd, rev)) in votes {
        let total = (fwd + rev) as f64;
        let minority = fwd.min(rev) as f64;
        let rel = if total > 0.0 && minority / total >= peer_vote_ratio {
            InferredRel::Peer
        } else if fwd >= rev {
            InferredRel::ProviderOf
        } else {
            InferredRel::CustomerOf
        };
        pairs.insert((a, b), rel);
    }
    InferredRelationships { pairs }
}

/// Validation of inferred relationships against a ground-truth graph.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InferenceAccuracy {
    /// Links both observed and classified.
    pub classified: usize,
    /// Fraction of true provider/customer links inferred with the right
    /// direction.
    pub transit_accuracy: f64,
    /// Fraction of true peer links inferred as peers.
    pub peer_recall: f64,
    /// Fraction of inferred peers that really are peers.
    pub peer_precision: f64,
    /// Fraction of the graph's links that were observed at all.
    pub link_coverage: f64,
}

/// Scores an inference against the graph it was (unknowingly) run over.
pub fn score_inference(
    graph: &crate::graph::AsGraph,
    inferred: &InferredRelationships,
) -> InferenceAccuracy {
    use crate::graph::Relationship;
    let mut transit_total = 0usize;
    let mut transit_right = 0usize;
    let mut peer_total = 0usize;
    let mut peer_right = 0usize;
    let mut inferred_peers = 0usize;
    let mut inferred_peers_right = 0usize;
    let mut observed_links = 0usize;
    for link in graph.links() {
        let Some(rel) = inferred.relation(link.a, link.b) else {
            continue;
        };
        observed_links += 1;
        match link.rel_of_b_to_a {
            Relationship::Peer => {
                peer_total += 1;
                if rel == InferredRel::Peer {
                    peer_right += 1;
                }
            }
            // b is a's customer ⇒ ground truth: a provides b.
            Relationship::Customer => {
                transit_total += 1;
                if rel == InferredRel::ProviderOf {
                    transit_right += 1;
                }
            }
            Relationship::Provider => {
                transit_total += 1;
                if rel == InferredRel::CustomerOf {
                    transit_right += 1;
                }
            }
        }
        if rel == InferredRel::Peer {
            inferred_peers += 1;
            if link.rel_of_b_to_a == Relationship::Peer {
                inferred_peers_right += 1;
            }
        }
    }
    InferenceAccuracy {
        classified: observed_links,
        transit_accuracy: ratio(transit_right, transit_total),
        peer_recall: ratio(peer_right, peer_total),
        peer_precision: ratio(inferred_peers_right, inferred_peers),
        link_coverage: ratio(observed_links, graph.links().len()),
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{ExportScope, RouteComputer};
    use crate::gen::{InternetGenerator, TopologyConfig};

    #[test]
    fn textbook_paths_infer_correctly() {
        // Paths through a hub: 1-10-2, 3-10-4, 5-10-1 — AS10 is the
        // high-degree top; every edge votes toward it.
        let paths = vec![
            vec![Asn(1), Asn(10), Asn(2)],
            vec![Asn(3), Asn(10), Asn(4)],
            vec![Asn(5), Asn(10), Asn(1)],
        ];
        let inf = infer_relationships(&paths, 0.34);
        assert_eq!(inf.relation(Asn(10), Asn(1)), Some(InferredRel::ProviderOf));
        assert_eq!(inf.relation(Asn(1), Asn(10)), Some(InferredRel::CustomerOf));
        assert_eq!(inf.relation(Asn(10), Asn(3)), Some(InferredRel::ProviderOf));
    }

    #[test]
    fn conflicting_votes_become_peers() {
        // The 7–8 edge appears uphill in one path and downhill in another
        // (both 7 and 8 top their respective paths via degree ties broken
        // by position — give them equal degree and make the votes clash).
        let paths = vec![
            vec![Asn(1), Asn(7), Asn(8), Asn(2)],
            vec![Asn(3), Asn(8), Asn(7), Asn(4)],
        ];
        let inf = infer_relationships(&paths, 0.34);
        assert_eq!(inf.relation(Asn(7), Asn(8)), Some(InferredRel::Peer));
    }

    #[test]
    fn relation_lookup_is_direction_consistent() {
        let paths = vec![vec![Asn(1), Asn(2)]; 3];
        let inf = infer_relationships(&paths, 0.34);
        let ab = inf.relation(Asn(1), Asn(2)).expect("classified");
        let ba = inf.relation(Asn(2), Asn(1)).expect("classified");
        match (ab, ba) {
            (InferredRel::ProviderOf, InferredRel::CustomerOf)
            | (InferredRel::CustomerOf, InferredRel::ProviderOf)
            | (InferredRel::Peer, InferredRel::Peer) => {}
            other => panic!("inconsistent directions: {other:?}"),
        }
    }

    /// End-to-end: run BGP over a generated Internet, collect the
    /// selected paths toward many origins, infer, and score. Transit
    /// edges should come out mostly right — and coverage far below 100%,
    /// the real-world caveat the paper inherits from public datasets.
    #[test]
    fn inference_over_bgp_paths_recovers_most_transit_edges() {
        let net = InternetGenerator::generate(&TopologyConfig::small(151));
        let rc = RouteComputer::new(&net.graph);
        let mut paths: Vec<Vec<Asn>> = Vec::new();
        for &origin in net.hosters.iter().chain(net.transits.iter()).take(20) {
            let routes = rc.routes_from_origin(origin, ExportScope::Global, &[]);
            for idx in 0..net.graph.len() {
                let Some(route) = routes.route_at(idx) else { continue };
                if route.first_hops.is_empty() {
                    continue;
                }
                if let Some((nodes, _)) = routes.path_via(idx, route.first_hops[0]) {
                    paths.push(nodes.iter().map(|&i| net.graph.node_at(i).asn).collect());
                }
            }
        }
        let inf = infer_relationships(&paths, 0.34);
        let score = score_inference(&net.graph, &inf);
        assert!(score.classified > 50, "too few classified: {}", score.classified);
        assert!(
            score.transit_accuracy > 0.7,
            "transit accuracy {}",
            score.transit_accuracy
        );
        assert!(
            score.link_coverage < 1.0,
            "observed paths cannot cover every backup link"
        );
    }
}
