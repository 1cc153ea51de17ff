//! AS path lengths and their relation to inflation (§7.1, Fig. 6).
//!
//! Fig. 6's pipeline: traceroute from probes, map interfaces to ASes
//! (dropping private/IXP/unannounced space), merge AS siblings into
//! organizations, count organizations on the path, group by
//! ⟨region, AS⟩ location — then correlate with the geographic inflation
//! computed elsewhere.

use crate::stats::{BoxStats, WeightedCdf};
use netsim::TracerouteHop;
use serde::{Deserialize, Serialize};
use par::DetHashMap as HashMap;
use topology::{AsGraph, OrgId};

/// Path lengths are reported as 2, 3, 4, or "5+" ASes in Fig. 6a and
/// 2, 3, "4+" in Fig. 6b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PathLenClass {
    /// Direct: probe AS and destination AS only.
    Two,
    /// One intermediary.
    Three,
    /// Two intermediaries.
    Four,
    /// Longer.
    FivePlus,
}

impl PathLenClass {
    /// Classifies an organization count.
    pub(crate) fn of(len: usize) -> PathLenClass {
        match len {
            0..=2 => PathLenClass::Two,
            3 => PathLenClass::Three,
            4 => PathLenClass::Four,
            _ => PathLenClass::FivePlus,
        }
    }

    /// Label used in rendered tables.
    pub fn label(&self) -> &'static str {
        match self {
            PathLenClass::Two => "2 ASes",
            PathLenClass::Three => "3 ASes",
            PathLenClass::Four => "4 ASes",
            PathLenClass::FivePlus => "5+ ASes",
        }
    }

    /// All classes in order.
    pub(crate) const ALL: [PathLenClass; 4] =
        [PathLenClass::Two, PathLenClass::Three, PathLenClass::Four, PathLenClass::FivePlus];
}

/// Counts the organizations on a traceroute path: unmapped hops are
/// removed (IXP/private interfaces), then AS siblings merge into one
/// organization, then consecutive duplicates collapse.
pub fn org_path_length(hops: &[TracerouteHop], graph: &AsGraph) -> usize {
    let mut orgs: Vec<OrgId> = Vec::new();
    for hop in hops {
        let Some(asn) = hop.asn else { continue };
        let Some(node) = graph.get(asn) else { continue };
        if orgs.last() != Some(&node.org) {
            push_if_new_run(&mut orgs, node.org);
        }
    }
    orgs.len()
}

fn push_if_new_run(orgs: &mut Vec<OrgId>, org: OrgId) {
    // A path may revisit an org non-consecutively only via routing
    // anomalies; the paper's methodology collapses consecutive runs.
    orgs.push(org);
}

/// Distribution of path-length classes over (weighted) observations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathLengthDist {
    /// Fraction of weight per class, in [`PathLenClass`] declaration
    /// order (2, 3, 4, 5+ ASes).
    pub fractions: [f64; 4],
}

impl PathLengthDist {
    /// Builds from `(length, weight)` observations.
    pub fn from_observations(obs: impl IntoIterator<Item = (usize, f64)>) -> Self {
        let mut acc = [0.0f64; 4];
        let mut total = 0.0;
        for (len, w) in obs {
            if w <= 0.0 {
                continue;
            }
            let idx = PathLenClass::ALL
                .iter()
                .position(|c| *c == PathLenClass::of(len))
                .expect("class covers all lengths");
            acc[idx] += w;
            total += w;
        }
        let fractions = if total > 0.0 {
            [acc[0] / total, acc[1] / total, acc[2] / total, acc[3] / total]
        } else {
            [0.0; 4]
        };
        Self { fractions }
    }

    /// Fraction of direct (2-AS) paths — §7.1's headline comparison
    /// (69% for the CDN vs 5–44% for letters).
    pub fn direct_fraction(&self) -> f64 {
        self.fractions[0]
    }

    /// Fraction of paths with four or more ASes.
    pub fn four_plus_fraction(&self) -> f64 {
        self.fractions[2] + self.fractions[3]
    }
}

/// Fig. 6b: inflation grouped by path-length class.
///
/// Input observations are `(length, inflation_ms, weight)` per
/// ⟨region, AS⟩ location; output is a box summary per class (classes 4
/// and 5+ merge into "4+", as in the figure).
pub fn inflation_by_path_length(
    obs: impl IntoIterator<Item = (usize, f64, f64)>,
) -> HashMap<PathLenClass, BoxStats> {
    let mut groups: HashMap<PathLenClass, Vec<(f64, f64)>> = HashMap::default();
    for (len, infl, w) in obs {
        let mut class = PathLenClass::of(len);
        if class == PathLenClass::FivePlus {
            class = PathLenClass::Four; // Fig. 6b's "4+" bucket
        }
        groups.entry(class).or_default().push((infl, w));
    }
    groups
        .into_iter()
        .filter_map(|(c, pts)| BoxStats::of(&WeightedCdf::from_points(pts)).map(|b| (c, b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::GeoPoint;
    use topology::{AsKind, AsNode, Asn};

    fn graph_with_orgs(org_of: &[(u32, u32)]) -> AsGraph {
        let mut g = AsGraph::new();
        for (asn, org) in org_of {
            g.add_as(AsNode {
                asn: Asn(*asn),
                kind: AsKind::Transit,
                org: OrgId(*org),
                name: format!("as{asn}"),
                pops: vec![GeoPoint::new(0.0, 0.0)],
                prefixes: vec![],
            });
        }
        g
    }

    fn hop(asn: Option<u32>) -> TracerouteHop {
        TracerouteHop { asn: asn.map(Asn), rtt_ms: 1.0 }
    }

    #[test]
    fn org_merge_collapses_siblings() {
        let g = graph_with_orgs(&[(1, 10), (2, 10), (3, 30)]);
        // AS1 and AS2 are siblings: path 1→2→3 is two organizations.
        let hops = vec![hop(Some(1)), hop(Some(2)), hop(Some(3))];
        assert_eq!(org_path_length(&hops, &g), 2);
    }

    #[test]
    fn unmapped_hops_are_dropped() {
        let g = graph_with_orgs(&[(1, 10), (3, 30)]);
        let hops = vec![hop(Some(1)), hop(None), hop(Some(3))];
        assert_eq!(org_path_length(&hops, &g), 2);
    }

    #[test]
    fn classes_partition_lengths() {
        assert_eq!(PathLenClass::of(2), PathLenClass::Two);
        assert_eq!(PathLenClass::of(3), PathLenClass::Three);
        assert_eq!(PathLenClass::of(4), PathLenClass::Four);
        assert_eq!(PathLenClass::of(7), PathLenClass::FivePlus);
    }

    #[test]
    fn distribution_fractions_sum_to_one() {
        let d = PathLengthDist::from_observations(vec![
            (2, 3.0),
            (3, 2.0),
            (4, 1.0),
            (6, 1.0),
        ]);
        let sum: f64 = d.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((d.direct_fraction() - 3.0 / 7.0).abs() < 1e-9);
        assert!((d.four_plus_fraction() - 2.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn inflation_grouping_merges_long_paths() {
        let groups = inflation_by_path_length(vec![
            (2, 1.0, 1.0),
            (4, 10.0, 1.0),
            (6, 20.0, 1.0),
        ]);
        assert!(groups.contains_key(&PathLenClass::Two));
        let four = &groups[&PathLenClass::Four];
        assert_eq!(four.min, 10.0);
        assert_eq!(four.max, 20.0);
        assert!(!groups.contains_key(&PathLenClass::FivePlus));
    }

    #[test]
    fn empty_distribution() {
        let d = PathLengthDist::from_observations(vec![]);
        assert_eq!(d.fractions, [0.0; 4]);
    }
}
