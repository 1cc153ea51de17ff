//! Deterministic generation of a tiered synthetic Internet.
//!
//! The generator builds the three-tier AS structure the paper's routing
//! story depends on:
//!
//! * a clique of global **tier-1** backbones,
//! * per-continent **transit** providers (customers of tier-1s, peering
//!   regionally),
//! * **eyeball** access networks serving one metro cluster each (customers
//!   of 1–2 transits, sometimes peering at IXPs),
//! * **hoster** ASes — the colocation providers that volunteer to host
//!   root DNS sites under open hosting policies (§7.3),
//! * optional **content hypergiants** attached later via
//!   [`Internet::add_content_as`] — this is how the CDN crate builds the
//!   Microsoft-like AS with front-ends collocated at all peering PoPs.
//!
//! All randomness flows from the config seed; two runs with the same
//! config produce byte-identical topologies.

use crate::asn::{AsKind, Asn, OrgId};
use crate::graph::{nearest, AsGraph, AsNode};
use crate::prefix::Prefix24;
use geo::region::RegionId;
use geo::{GeoPoint, WorldMap};
use par::DetHashMap;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Master seed; all topology randomness derives from it.
    pub seed: u64,
    /// World-map scale in `(0, 1]` (1.0 = the paper's 508 regions).
    pub world_scale: f64,
    /// Number of tier-1 backbones.
    pub n_tier1: usize,
    /// Transit providers per continent (Antarctica gets 1).
    pub transits_per_continent: usize,
    /// Hoster ASes per continent.
    pub hosters_per_continent: usize,
    /// How many of the most-populous regions host an IXP.
    pub ixp_region_count: usize,
}

impl TopologyConfig {
    /// Full-scale configuration used by the reproduction binary.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            world_scale: 1.0,
            n_tier1: 9,
            transits_per_continent: 5,
            hosters_per_continent: 26,
            ixp_region_count: 40,
        }
    }

    /// Reduced configuration for unit/integration tests: ~10% of the
    /// world, same structure.
    pub fn small(seed: u64) -> Self {
        Self {
            world_scale: 0.12,
            n_tier1: 4,
            transits_per_continent: 2,
            hosters_per_continent: 4,
            ixp_region_count: 8,
            ..Self::full(seed)
        }
    }
}

/// Specification for a content hypergiant attached with
/// [`Internet::add_content_as`].
#[derive(Debug, Clone)]
pub struct ContentAsSpec {
    /// AS name.
    pub name: String,
    /// Regions where the AS builds PoPs.
    pub pop_regions: Vec<RegionId>,
    /// Peer with every tier-1 (interconnect at shared metros).
    pub peer_all_tier1: bool,
    /// Peer with every transit provider.
    pub peer_all_transit: bool,
    /// Probability of peering directly with each eyeball AS — the
    /// "extensive peering" knob (§7.1). The peering ablation test varies this.
    pub eyeball_peering_prob: f64,
    /// Probability of peering with each hoster AS.
    pub hoster_peering_prob: f64,
    /// Number of /24 prefixes to originate.
    pub prefixes: usize,
}

/// A ⟨region, AS⟩ user location (§2.2's reporting granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserLocation {
    /// The metro region.
    pub region: RegionId,
    /// The serving eyeball AS.
    pub asn: Asn,
}

/// The generated Internet: graph plus the bookkeeping other crates need.
#[derive(Debug)]
pub struct Internet {
    /// The AS graph.
    pub graph: AsGraph,
    /// The world map the topology was laid over.
    pub world: WorldMap,
    /// Tier-1 ASNs.
    pub(crate) tier1s: Vec<Asn>,
    /// Transit ASNs.
    pub transits: Vec<Asn>,
    /// Hoster ASNs.
    pub hosters: Vec<Asn>,
    /// Content ASNs added via [`Internet::add_content_as`].
    pub(crate) content: Vec<Asn>,
    /// Eyeball ASes and the regions they cover.
    pub eyeballs: Vec<(Asn, Vec<RegionId>)>,
    /// IXP locations (region, point).
    pub ixps: Vec<(RegionId, GeoPoint)>,
    rng: StdRng,
    next_prefix: u32,
    next_content_asn: u32,
    next_org: u32,
}

impl Internet {
    /// All ⟨region, AS⟩ user locations (one per eyeball-covered region).
    pub fn user_locations(&self) -> Vec<UserLocation> {
        let mut out = Vec::new();
        for (asn, regions) in &self.eyeballs {
            for r in regions {
                out.push(UserLocation { region: *r, asn: *asn });
            }
        }
        out
    }

    /// Attaches a content hypergiant per `spec` and returns its ASN.
    ///
    /// Peering interconnects are placed at the content AS's own PoPs —
    /// modeling §7.1's "Microsoft collocates anycast sites with all its
    /// peering locations": every place a peer hands traffic over *is* a
    /// content PoP.
    pub fn add_content_as(&mut self, spec: &ContentAsSpec) -> Asn {
        assert!(!spec.pop_regions.is_empty(), "content AS needs PoPs");
        let asn = Asn(self.next_content_asn);
        self.next_content_asn += 1;
        let org = OrgId(self.next_org);
        self.next_org += 1;
        let pops: Vec<GeoPoint> =
            spec.pop_regions.iter().map(|r| self.world.region(*r).center).collect();
        let prefixes = alloc_prefixes(&mut self.next_prefix, spec.prefixes);
        self.graph.add_as(AsNode {
            asn,
            kind: AsKind::Content,
            org,
            name: spec.name.clone(),
            pops: pops.clone(),
            prefixes,
        });

        // Helper: the content PoPs nearest another AS's PoPs. Hot-potato
        // needs several interconnects for big peers, one for eyeballs.
        let near_pops = |graph: &AsGraph, other: Asn, k: usize| -> Vec<GeoPoint> {
            let other_pops = graph.node(other).pops.clone();
            let mut picked: Vec<GeoPoint> = Vec::new();
            for op in other_pops.iter().take(k.max(1)) {
                let (best, _) = nearest(pops.iter().copied(), |a| a.distance_km(op))
                    .expect("content AS has PoPs");
                if !picked.iter().any(|p| p.distance_km(&best) < 1.0) {
                    picked.push(best);
                }
            }
            picked
        };

        if spec.peer_all_tier1 {
            for t in self.tier1s.clone() {
                let x = near_pops(&self.graph, t, 8);
                self.graph.add_peer_link(asn, t, x);
            }
        }
        if spec.peer_all_transit {
            for t in self.transits.clone() {
                let x = near_pops(&self.graph, t, 4);
                self.graph.add_peer_link(asn, t, x);
            }
        }
        for (eb, _) in self.eyeballs.clone() {
            if self.rng.gen_bool(spec.eyeball_peering_prob) {
                let x = near_pops(&self.graph, eb, 1);
                self.graph.add_peer_link(asn, eb, x);
            }
        }
        for h in self.hosters.clone() {
            if self.rng.gen_bool(spec.hoster_peering_prob) {
                let x = near_pops(&self.graph, h, 1);
                self.graph.add_peer_link(asn, h, x);
            }
        }
        self.content.push(asn);
        asn
    }

    /// Adds a bare operator AS (e.g. a root letter's own AS) with PoPs at
    /// the given points and no links; callers wire its peering sessions
    /// via [`AsGraph::add_peer_link`].
    pub fn add_operator_as(&mut self, name: impl Into<String>, pops: Vec<GeoPoint>) -> Asn {
        let asn = Asn(self.next_content_asn);
        self.next_content_asn += 1;
        let org = OrgId(self.next_org);
        self.next_org += 1;
        let prefixes = alloc_prefixes(&mut self.next_prefix, 1);
        self.graph.add_as(AsNode {
            asn,
            kind: AsKind::Content,
            org,
            name: name.into(),
            pops,
            prefixes,
        });
        asn
    }

    /// Deterministically samples `n` hoster ASes (weighted toward none —
    /// plain uniform without replacement), for placing root letter sites.
    pub fn sample_hosters(&mut self, n: usize) -> Vec<Asn> {
        let mut hs = self.hosters.clone();
        hs.shuffle(&mut self.rng);
        hs.truncate(n);
        hs
    }

    /// A fresh RNG stream derived from the topology seed, for downstream
    /// generators that want independent but reproducible randomness.
    pub fn derive_rng(&mut self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.rng.gen::<u64>() ^ salt)
    }
}

fn alloc_prefixes(next: &mut u32, n: usize) -> Vec<Prefix24> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = Prefix24(*next);
        *next += 1;
        if !p.is_private() {
            out.push(p);
        }
    }
    out
}

/// Generates [`Internet`]s from [`TopologyConfig`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct InternetGenerator;

/// Expected eyeball ASes per region.
const EYEBALLS_PER_REGION: f64 = 2.5;
/// Probability an eyeball buys transit from a second provider.
const EYEBALL_MULTIHOME_PROB: f64 = 0.35;
/// Probability two IXP-present ASes peer at that IXP.
const IXP_PEERING_PROB: f64 = 0.10;
/// Probability an eyeball AS is a sibling of the previous one
/// (same organization, for Fig. 6's org merge).
const SIBLING_PROB: f64 = 0.08;

impl InternetGenerator {
    /// Generates the Internet described by `config`.
    pub fn generate(config: &TopologyConfig) -> Internet {
        let world = WorldMap::generate_scaled(config.seed, config.world_scale);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x51ca_2cdb_90a1_77d3);
        let mut graph = AsGraph::new();
        // Address plan starts at 5.0.0.0/24 to dodge special-purpose space.
        let mut next_prefix: u32 = 5 << 16;
        let mut next_org: u32 = 1;

        // ---- Tier-1 clique -------------------------------------------------
        // Global PoPs at the most populous regions.
        let top_regions: Vec<RegionId> = world
            .top_regions_by_population(world.regions().len().min(60))
            .iter()
            .map(|r| r.id)
            .collect();
        let tier1s: Vec<Asn> = (0..config.n_tier1).map(|i| Asn(100 + i as u32)).collect();
        for (i, &asn) in tier1s.iter().enumerate() {
            // Each tier-1 covers a large, partially-overlapping subset of
            // top regions (they differ, so early-exit options differ).
            let mut pops: Vec<GeoPoint> = top_regions
                .iter()
                .enumerate()
                .filter(|(j, _)| (j + i) % 3 != 0 || *j < 8)
                .map(|(_, r)| world.region(*r).center)
                .collect();
            if pops.is_empty() {
                pops.push(world.region(top_regions[0]).center);
            }
            let prefixes = alloc_prefixes(&mut next_prefix, 2);
            graph.add_as(AsNode {
                asn,
                kind: AsKind::Tier1,
                org: OrgId(next_org),
                name: format!("tier1-{i}"),
                pops,
                prefixes,
            });
            next_org += 1;
        }
        for i in 0..tier1s.len() {
            for j in (i + 1)..tier1s.len() {
                // Tier-1s interconnect wherever both are present (≈ shared
                // top-region metros).
                let a = graph.node(tier1s[i]).pops.clone();
                let b = graph.node(tier1s[j]).pops.clone();
                let shared: Vec<GeoPoint> = a
                    .iter()
                    .filter(|p| b.iter().any(|q| p.distance_km(q) < 1.0))
                    .copied()
                    .collect();
                let x = if shared.is_empty() { vec![a[0]] } else { shared };
                graph.add_peer_link(tier1s[i], tier1s[j], x);
            }
        }

        // ---- Transit providers ---------------------------------------------
        let mut transits: Vec<Asn> = Vec::new();
        let mut transit_continent: DetHashMap<Asn, geo::Continent> = DetHashMap::default();
        let mut next_transit_asn = 1000u32;
        for continent in geo::Continent::ALL {
            let regions: Vec<&geo::Region> =
                world.regions().iter().filter(|r| r.continent == continent).collect();
            if regions.is_empty() {
                continue;
            }
            let n = if continent == geo::Continent::Antarctica {
                1
            } else {
                config.transits_per_continent
            };
            for t in 0..n {
                let asn = Asn(next_transit_asn);
                next_transit_asn += 1;
                // PoPs at a random 40–70% of the continent's regions.
                let frac = rng.gen_range(0.4..0.7);
                let mut covered: Vec<&&geo::Region> = regions
                    .iter()
                    .filter(|_| rng.gen_bool(frac))
                    .collect();
                if covered.is_empty() {
                    covered.push(&regions[0]);
                }
                let pops: Vec<GeoPoint> = covered.iter().map(|r| r.center).collect();
                let prefixes = alloc_prefixes(&mut next_prefix, 2);
                graph.add_as(AsNode {
                    asn,
                    kind: AsKind::Transit,
                    org: OrgId(next_org),
                    name: format!("transit-{}-{}", continent.name(), t),
                    pops: pops.clone(),
                    prefixes,
                });
                next_org += 1;
                // Customer of 2–3 tier-1s; interconnect near 3 of its PoPs.
                let mut t1s = tier1s.clone();
                t1s.shuffle(&mut rng);
                let n_up = rng.gen_range(2..=3.min(t1s.len()));
                for &up in t1s.iter().take(n_up) {
                    let x: Vec<GeoPoint> = pops.iter().take(3).copied().collect();
                    graph.add_provider_link(up, asn, x);
                }
                transits.push(asn);
                transit_continent.insert(asn, continent);
            }
        }
        // Same-continent transit peering (dense) + sparse cross-continent.
        for i in 0..transits.len() {
            for j in (i + 1)..transits.len() {
                let (a, b) = (transits[i], transits[j]);
                let same = transit_continent[&a] == transit_continent[&b];
                let p = if same { 0.6 } else { 0.08 };
                if rng.gen_bool(p) {
                    let pa = graph.node(a).pops.clone();
                    let pb = graph.node(b).pops.clone();
                    // Interconnect at a's PoP nearest b's first PoP, plus
                    // b's PoP nearest a's first — two handoff options.
                    let x1 = *pa
                        .iter()
                        .min_by(|p, q| {
                            p.distance_km(&pb[0])
                                .partial_cmp(&q.distance_km(&pb[0]))
                                .unwrap()
                        })
                        .expect("pops non-empty");
                    let x2 = *pb
                        .iter()
                        .min_by(|p, q| {
                            p.distance_km(&pa[0])
                                .partial_cmp(&q.distance_km(&pa[0]))
                                .unwrap()
                        })
                        .expect("pops non-empty");
                    graph.add_peer_link(a, b, vec![x1, x2]);
                }
            }
        }

        // ---- IXPs ----------------------------------------------------------
        let ixps: Vec<(RegionId, GeoPoint)> = world
            .top_regions_by_population(config.ixp_region_count)
            .iter()
            .map(|r| (r.id, r.center))
            .collect();

        // ---- Eyeballs ------------------------------------------------------
        let mut eyeballs: Vec<(Asn, Vec<RegionId>)> = Vec::new();
        let mut next_eyeball_asn = 10_000u32;
        let mut last_org: Option<OrgId> = None;
        for region in world.regions() {
            // Heavier regions host more eyeball ASes.
            let weight_boost = (region.population_weight / 20.0).min(2.0);
            let lambda = EYEBALLS_PER_REGION * (0.5 + weight_boost);
            let n = poisson_like(&mut rng, lambda).max(1);
            for _ in 0..n {
                let asn = Asn(next_eyeball_asn);
                next_eyeball_asn += 1;
                // Sibling orgs: occasionally reuse the previous org.
                let org = if rng.gen_bool(SIBLING_PROB) && last_org.is_some() {
                    last_org.expect("checked")
                } else {
                    let o = OrgId(next_org);
                    next_org += 1;
                    o
                };
                last_org = Some(org);
                // Covers its home region, sometimes 1–2 nearby ones.
                let mut covered = vec![region.id];
                if rng.gen_bool(0.3) {
                    let mut near: Vec<&geo::Region> = world
                        .regions()
                        .iter()
                        .filter(|r| {
                            r.id != region.id
                                && r.continent == region.continent
                                && r.center.distance_km(&region.center) < 1500.0
                        })
                        .collect();
                    near.sort_by(|a, b| {
                        a.center
                            .distance_km(&region.center)
                            .partial_cmp(&b.center.distance_km(&region.center))
                            .unwrap()
                    });
                    for r in near.iter().take(rng.gen_range(1..=2)) {
                        covered.push(r.id);
                    }
                }
                let pops: Vec<GeoPoint> = covered
                    .iter()
                    .map(|r| {
                        let c = world.region(*r).center;
                        GeoPoint::new(
                            c.lat() + rng.gen_range(-0.3..0.3),
                            c.lon() + rng.gen_range(-0.3..0.3),
                        )
                    })
                    .collect();
                // /24 count scales with covered population.
                let pop_w: f64 =
                    covered.iter().map(|r| world.region(*r).population_weight).sum();
                let n_prefixes = (1.0 + pop_w.sqrt()).round().clamp(1.0, 12.0) as usize;
                let prefixes = alloc_prefixes(&mut next_prefix, n_prefixes);
                graph.add_as(AsNode {
                    asn,
                    kind: AsKind::Eyeball,
                    org,
                    name: format!("eyeball-{}", region.name),
                    pops: pops.clone(),
                    prefixes,
                });
                // Transit from 1–2 same-continent providers (nearest PoP
                // interconnects).
                let mut local_transits: Vec<Asn> = transits
                    .iter()
                    .copied()
                    .filter(|t| transit_continent[t] == region.continent)
                    .collect();
                if local_transits.is_empty() {
                    local_transits = transits.clone();
                }
                local_transits.shuffle(&mut rng);
                let n_up = if rng.gen_bool(EYEBALL_MULTIHOME_PROB) { 2 } else { 1 };
                for &up in local_transits.iter().take(n_up.min(local_transits.len())) {
                    let x = graph.serving_pop(up, &pops[0]);
                    graph.add_provider_link(up, asn, vec![x]);
                }
                eyeballs.push((asn, covered));
            }
        }

        // ---- Hosters -------------------------------------------------------
        let mut hosters: Vec<Asn> = Vec::new();
        let mut next_hoster_asn = 5000u32;
        for continent in geo::Continent::ALL {
            let regions: Vec<&geo::Region> =
                world.regions().iter().filter(|r| r.continent == continent).collect();
            if regions.is_empty() || continent == geo::Continent::Antarctica {
                continue;
            }
            for h in 0..config.hosters_per_continent {
                let asn = Asn(next_hoster_asn);
                next_hoster_asn += 1;
                let home = regions[rng.gen_range(0..regions.len())];
                let pops = vec![GeoPoint::new(
                    home.center.lat() + rng.gen_range(-0.2..0.2),
                    home.center.lon() + rng.gen_range(-0.2..0.2),
                )];
                let prefixes = alloc_prefixes(&mut next_prefix, 2);
                graph.add_as(AsNode {
                    asn,
                    kind: AsKind::Hoster,
                    org: OrgId(next_org),
                    name: format!("hoster-{}-{}", continent.name(), h),
                    pops: pops.clone(),
                    prefixes,
                });
                next_org += 1;
                let mut local_transits: Vec<Asn> = transits
                    .iter()
                    .copied()
                    .filter(|t| transit_continent[t] == continent)
                    .collect();
                if local_transits.is_empty() {
                    local_transits = transits.clone();
                }
                local_transits.shuffle(&mut rng);
                for &up in local_transits.iter().take(rng.gen_range(1..=2).min(local_transits.len())) {
                    let x = graph.serving_pop(up, &pops[0]);
                    graph.add_provider_link(up, asn, vec![x]);
                }
                hosters.push(asn);
            }
        }

        // ---- IXP peering ---------------------------------------------------
        // ASes with a PoP near an IXP may peer pairwise there. Restricted
        // to (eyeball|hoster) × (eyeball|hoster|transit) — tier-1s don't
        // peer openly.
        for (_, loc) in &ixps {
            let mut present: Vec<Asn> = graph
                .nodes()
                .iter()
                .filter(|n| {
                    matches!(n.kind, AsKind::Eyeball | AsKind::Hoster | AsKind::Transit)
                        && n.pops.iter().any(|p| p.distance_km(loc) < 300.0)
                })
                .map(|n| n.asn)
                .collect();
            present.sort();
            // Cap the candidate pairs at IXPs in dense metros.
            present.truncate(24);
            for i in 0..present.len() {
                for j in (i + 1)..present.len() {
                    let (a, b) = (present[i], present[j]);
                    let ka = graph.node(a).kind;
                    let kb = graph.node(b).kind;
                    if ka == AsKind::Transit && kb == AsKind::Transit {
                        continue;
                    }
                    if graph.connected(a, b) {
                        continue;
                    }
                    if rng.gen_bool(IXP_PEERING_PROB) {
                        graph.add_peer_link(a, b, vec![*loc]);
                    }
                }
            }
        }

        Internet {
            graph,
            world,
            tier1s,
            transits,
            hosters,
            content: Vec::new(),
            eyeballs,
            ixps,
            rng: StdRng::seed_from_u64(config.seed ^ 0x0ddc_0ffe_e0dd_f00d),
            next_prefix,
            next_content_asn: 200,
            next_org,
        }
    }
}

/// Small integer sample with mean `lambda` (sum of Bernoulli halves —
/// close enough to Poisson for AS-count purposes and cheap/deterministic).
fn poisson_like(rng: &mut StdRng, lambda: f64) -> usize {
    let floor = lambda.floor() as usize;
    let frac = lambda - lambda.floor();
    let mut n = 0;
    for _ in 0..floor * 2 {
        if rng.gen_bool(0.5) {
            n += 1;
        }
    }
    if frac > 0.0 && rng.gen_bool(frac) {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{ExportScope, RouteComputer};

    fn small_internet() -> Internet {
        InternetGenerator::generate(&TopologyConfig::small(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = InternetGenerator::generate(&TopologyConfig::small(5));
        let b = InternetGenerator::generate(&TopologyConfig::small(5));
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(a.graph.links().len(), b.graph.links().len());
        for (na, nb) in a.graph.nodes().iter().zip(b.graph.nodes()) {
            assert_eq!(na.asn, nb.asn);
            assert_eq!(na.prefixes, nb.prefixes);
        }
    }

    #[test]
    fn every_region_has_an_eyeball() {
        let net = small_internet();
        for region in net.world.regions() {
            assert!(
                net.eyeballs.iter().any(|(_, rs)| rs.contains(&region.id)),
                "region {} uncovered",
                region.name
            );
        }
    }

    #[test]
    fn every_eyeball_reaches_every_tier1() {
        let net = small_internet();
        let rc = RouteComputer::new(&net.graph);
        for &t1 in &net.tier1s {
            let routes = rc.routes_from_origin(t1, ExportScope::Global, &[]);
            for (eb, _) in &net.eyeballs {
                assert!(
                    routes.route_at(net.graph.idx(*eb)).is_some(),
                    "{eb} cannot reach {t1}"
                );
            }
        }
    }

    #[test]
    fn every_eyeball_reaches_every_hoster() {
        let net = small_internet();
        let rc = RouteComputer::new(&net.graph);
        for &h in &net.hosters {
            let routes = rc.routes_from_origin(h, ExportScope::Global, &[]);
            for (eb, _) in &net.eyeballs {
                assert!(routes.route_at(net.graph.idx(*eb)).is_some());
            }
        }
    }

    #[test]
    fn no_private_prefixes_allocated() {
        let net = small_internet();
        for node in net.graph.nodes() {
            for p in &node.prefixes {
                assert!(!p.is_private(), "{p} is private");
            }
        }
    }

    #[test]
    fn prefixes_are_globally_unique() {
        let net = small_internet();
        let mut all: Vec<Prefix24> =
            net.graph.nodes().iter().flat_map(|n| n.prefixes.clone()).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn content_as_peers_widely_and_is_reachable() {
        let mut net = small_internet();
        let pops: Vec<RegionId> =
            net.world.top_regions_by_population(10).iter().map(|r| r.id).collect();
        let asn = net.add_content_as(&ContentAsSpec {
            name: "cdn".into(),
            pop_regions: pops,
            peer_all_tier1: true,
            peer_all_transit: true,
            eyeball_peering_prob: 0.7,
            hoster_peering_prob: 0.1,
            prefixes: 8,
        });
        let rc = RouteComputer::new(&net.graph);
        let routes = rc.routes_from_origin(asn, ExportScope::Global, &[]);
        let mut direct = 0usize;
        for (eb, _) in &net.eyeballs {
            let r = routes.route_at(net.graph.idx(*eb)).expect("reachable");
            if r.path_len == 2 {
                direct += 1;
            }
        }
        let frac = direct as f64 / net.eyeballs.len() as f64;
        assert!(frac > 0.5, "direct-path fraction {frac}");
    }

    #[test]
    fn sibling_orgs_exist() {
        let net = InternetGenerator::generate(&TopologyConfig::small(11));
        let mut orgs: DetHashMap<OrgId, usize> = DetHashMap::default();
        for n in net.graph.nodes() {
            *orgs.entry(n.org).or_default() += 1;
        }
        assert!(orgs.values().any(|&c| c > 1), "no sibling organizations generated");
    }

    #[test]
    fn sample_hosters_is_bounded_and_unique() {
        let mut net = small_internet();
        let hs = net.sample_hosters(5);
        assert_eq!(hs.len(), 5.min(net.hosters.len()));
        let mut sorted = hs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), hs.len());
    }

    #[test]
    fn poisson_like_mean_is_roughly_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4000;
        let total: usize = (0..n).map(|_| poisson_like(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.2, "mean {mean}");
    }
}
