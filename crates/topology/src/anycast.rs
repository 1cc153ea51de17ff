//! Anycast deployments and catchment computation.
//!
//! An [`AnycastDeployment`] is a set of [`AnycastSite`]s announcing one
//! shared prefix — a root letter (sites scattered across many host ASes)
//! or a CDN ring (sites inside one content AS, collocated with its
//! peering PoPs). [`Catchment`] computes, for any traffic source, which
//! site BGP delivers it to and along which geographic path.
//!
//! The decision process mirrors §7.1: local preference, then AS-path
//! length — both geography-blind — and only then the early-exit IGP
//! tie-break, which is the *only* place geography enters. That asymmetry
//! is what makes root-letter routing inflated (ties break on topology)
//! while a densely-peered CDN stays flat (the 2-AS direct route wins and
//! its early exit lands at a front-end).
//!
//! Per-origin route computations are memoized in a [`RouteCache`] because
//! hoster ASes routinely host sites for several letters.

use crate::asn::Asn;
use crate::bgp::{ExportScope, OriginRoutes, RouteClass, RouteComputer};
use crate::graph::{nearest, AsGraph};
use crate::waypoints;
use geo::GeoPoint;
use par::DetHashMap;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::sync::Arc;

/// Identifier of a site within one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteId(pub u32);

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site-{}", self.0)
    }
}

/// Whether a site's announcement is globally visible or NO_EXPORT-scoped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteScope {
    /// Globally reachable site.
    Global,
    /// Local site: only the host AS's direct neighbors learn the route
    /// (§2.1 — "local sites serve small geographic areas or certain ASes").
    Local,
}

/// One anycast site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnycastSite {
    /// Identifier, unique within the deployment.
    pub id: SiteId,
    /// Human-readable name.
    pub name: String,
    /// AS originating this site's announcement.
    pub host: Asn,
    /// Physical location of the site.
    pub location: GeoPoint,
    /// Announcement scope.
    pub scope: SiteScope,
}

/// One site's staged withhold set: the neighbor sessions this site no
/// longer serves while it is being drained.
///
/// A gradual maintenance drain withdraws a site session by session
/// rather than all at once: traffic whose path enters the host AS
/// through a withheld neighbor is steered to the next-best site (the
/// nearest non-drained sibling in the same origin group, or the next
/// candidate group entirely), while every other session keeps landing
/// on the site. Escalating `withheld` over successive stages hands the
/// catchment off in bounded slices — the mechanism behind
/// `dynamics`' load-aware drains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteDrain {
    /// The site being drained.
    pub site: SiteId,
    /// Host-adjacent neighbor ASes whose traffic the site no longer
    /// accepts. Sorted ascending (a set).
    pub withheld: Vec<Asn>,
}

/// A set of sites announcing one anycast prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnycastDeployment {
    /// Deployment name (e.g. `"C-root"`, `"R95"`).
    pub name: String,
    /// The sites.
    pub sites: Vec<AnycastSite>,
    /// Neighbor ASes each host AS withholds the announcement from —
    /// selective-announcement traffic engineering (§7.1).
    pub withhold: Vec<Asn>,
    /// Sites in the middle of a gradual drain, with their staged
    /// withhold sets (see [`SiteDrain`]). Empty in steady state.
    pub site_drains: Vec<SiteDrain>,
    /// The service's own origin AS, if it has one (root letters do; CDN
    /// rings originate from the CDN AS directly). When set, AS paths
    /// through upstream *hosts* gain this final hop, and — if the origin
    /// AS has its own adjacencies (IXP peering) — it also announces all
    /// sites directly.
    pub origin_as: Option<Asn>,
    /// Hosts that announce the prefix as their own origin (e.g. a CDN
    /// partner announcing a root letter's prefix from its
    /// infrastructure): no origin-AS hop is appended behind these.
    pub direct_hosts: Vec<Asn>,
}

impl AnycastDeployment {
    /// Creates a deployment.
    ///
    /// # Panics
    ///
    /// Panics if empty or if site ids are not dense `0..n` (catchment
    /// bookkeeping indexes by site id).
    pub fn new(name: impl Into<String>, sites: Vec<AnycastSite>, withhold: Vec<Asn>) -> Self {
        assert!(!sites.is_empty(), "deployment with no sites");
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i, "site ids must be dense");
        }
        Self {
            name: name.into(),
            sites,
            withhold,
            site_drains: vec![],
            origin_as: None,
            direct_hosts: vec![],
        }
    }

    /// The staged withhold set of `site`, if it is currently draining.
    pub(crate) fn drain_of(&self, site: SiteId) -> Option<&SiteDrain> {
        self.site_drains.iter().find(|d| d.site == site)
    }

    /// Declares the deployment's own origin AS (see
    /// [`AnycastDeployment::origin_as`]).
    pub fn with_origin(mut self, origin_as: Asn, direct_hosts: Vec<Asn>) -> Self {
        self.origin_as = Some(origin_as);
        self.direct_hosts = direct_hosts;
        self
    }

    /// The deployment as announced by the sites `keep` accepts alone —
    /// the one way every "what if only these sites announce?" variant
    /// is built. Kept sites stay in their original order, re-id'd
    /// densely from 0; name, withhold list, origin AS and direct hosts
    /// are copied, and no site is draining. The second element maps
    /// each new id to its original id (ascending). `None` when `keep`
    /// accepts no site.
    pub fn restricted(
        &self,
        keep: impl Fn(&AnycastSite) -> bool,
    ) -> Option<(AnycastDeployment, Vec<SiteId>)> {
        let (orig, sites): (Vec<SiteId>, Vec<AnycastSite>) = self
            .sites
            .iter()
            .filter(|s| keep(s))
            .enumerate()
            .map(|(i, s)| (s.id, AnycastSite { id: SiteId(i as u32), ..s.clone() }))
            .unzip();
        if sites.is_empty() {
            return None;
        }
        let dep = AnycastDeployment {
            origin_as: self.origin_as,
            direct_hosts: self.direct_hosts.clone(),
            ..AnycastDeployment::new(self.name.clone(), sites, self.withhold.clone())
        };
        Some((dep, orig))
    }

    /// Sites with global scope — the set Eq. 1/2 minimize over ("we only
    /// consider global sites, since we do not know which recursives can
    /// reach local sites").
    pub fn global_sites(&self) -> impl Iterator<Item = &AnycastSite> {
        self.sites.iter().filter(|s| s.scope == SiteScope::Global)
    }

    /// Number of global sites (the counts in Fig. 2's legend).
    pub fn global_site_count(&self) -> usize {
        self.global_sites().count()
    }

    /// Total site count, global and local (the `T` counts of Fig. 10).
    pub fn total_site_count(&self) -> usize {
        self.sites.len()
    }

    /// Site lookup.
    pub fn site(&self, id: SiteId) -> &AnycastSite {
        &self.sites[id.0 as usize]
    }

    /// Distance from `loc` to the nearest *global* site, in km — the
    /// minuend of Eq. 1 and the "coverage" measure of Fig. 7b.
    pub fn nearest_global_site_km(&self, loc: &GeoPoint) -> f64 {
        self.global_sites()
            .map(|s| s.location.distance_km(loc))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Where one source's traffic to the deployment lands.
#[derive(Debug, Clone)]
pub struct SiteAssignment {
    /// The selected site.
    pub site: SiteId,
    /// Local-preference class of the selected route at the source.
    pub class: RouteClass,
    /// AS path, source first, announcement origin last.
    pub as_path: Vec<Asn>,
    /// Geographic waypoints from the user to the site.
    pub waypoints: Vec<GeoPoint>,
    /// Total great-circle length of `waypoints` in km.
    pub path_km: f64,
    /// Entry point into the origin AS on this path: the last
    /// interconnect crossed, or the source's serving PoP when the
    /// source sits inside the origin. Intra-origin site selection is
    /// "nearest eligible hosted site to this point" — incremental
    /// layers store it so they can re-evaluate the nearest-site choice
    /// against a changed site set without re-materializing the path.
    pub entry: GeoPoint,
}

/// Memoizes per-origin BGP computations across deployments.
///
/// An entry is keyed by `(origin, scope, W ∩ adj(origin))`: the
/// withhold list cut down to the origin's own neighbors.
/// [`RouteComputer::routes_from_origin`] consults the list only when
/// the origin offers its own route to a neighbor in `W`, so entries that
/// are not adjacent to the origin cannot change its routes. A withhold
/// change toward one neighbor therefore misses the cache only for the
/// origins adjacent to it; every other origin keeps its `Arc`, which
/// incremental layers read as "routes unchanged".
///
/// The cut lists are interned once as canonical sorted sets, so
/// permutations and duplicates share one entry and a lookup allocates
/// nothing when the list is empty or wholly adjacent. Routes are
/// behind `Arc` so catchments can cross thread boundaries in the
/// deterministic parallel layer.
#[derive(Debug, Default)]
pub struct RouteCache {
    /// Canonical (sorted, deduplicated) withhold list → interned key.
    withhold_keys: DetHashMap<Box<[Asn]>, u32>,
    /// Interned key → canonical withhold list (for cache misses).
    withhold_lists: Vec<Arc<[Asn]>>,
    map: DetHashMap<(Asn, ExportScope, u32), Arc<OriginRoutes>>,
}

impl RouteCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache key of `(origin, scope, withhold)`: `withhold` cut to
    /// the origin's neighbors and interned under its canonical sorted
    /// form (sound because a withhold list is a *set* of neighbors).
    fn key(
        &mut self,
        graph: &AsGraph,
        origin: Asn,
        scope: ExportScope,
        withhold: &[Asn],
    ) -> (Asn, ExportScope, u32) {
        let mut cut: Cow<'_, [Asn]> = Cow::Borrowed(withhold);
        if let Some(oi) = graph.try_idx(origin) {
            let adj = graph.adjacency(oi);
            let adjacent = |a: &Asn| {
                graph.try_idx(*a).is_some_and(|ai| adj.iter().any(|x| x.neighbor == ai))
            };
            if !withhold.iter().all(adjacent) {
                cut = Cow::Owned(withhold.iter().copied().filter(adjacent).collect());
            }
        }
        if !cut.windows(2).all(|w| w[0] < w[1]) {
            let v = cut.to_mut();
            v.sort_unstable();
            v.dedup();
        }
        let wk = match self.withhold_keys.get(cut.as_ref()) {
            Some(&k) => k,
            None => {
                let k = self.withhold_lists.len() as u32;
                self.withhold_lists.push(Arc::from(cut.as_ref()));
                self.withhold_keys.insert(cut.into_owned().into_boxed_slice(), k);
                k
            }
        };
        (origin, scope, wk)
    }

    fn get(
        &mut self,
        graph: &AsGraph,
        origin: Asn,
        scope: ExportScope,
        withhold: &[Asn],
    ) -> Arc<OriginRoutes> {
        let key = self.key(graph, origin, scope, withhold);
        if let Some(r) = self.map.get(&key) {
            obs::counter_add("route_cache.hit", 1);
            return Arc::clone(r);
        }
        obs::counter_add("route_cache.miss", 1);
        let canonical = Arc::clone(&self.withhold_lists[key.2 as usize]);
        if !canonical.is_empty() {
            obs::counter_add("route_cache.withheld_recompute", 1);
        }
        let routes =
            Arc::new(RouteComputer::new(graph).routes_from_origin(origin, scope, &canonical));
        self.map.insert(key, Arc::clone(&routes));
        routes
    }

    /// Computes any missing origin-route tables among `keys` on the
    /// deterministic parallel layer ([`par::ordered_map`]). Results are
    /// identical to issuing the same lookups sequentially — only the
    /// wall-clock changes — so callers may prefill across whole
    /// letter/ring sets before assigning catchments.
    pub(crate) fn prefill<'w>(
        &mut self,
        graph: &AsGraph,
        keys: impl IntoIterator<Item = (Asn, ExportScope, &'w [Asn])>,
    ) {
        let mut requested = 0u64;
        let mut missing: Vec<(Asn, ExportScope, u32)> = Vec::new();
        for (origin, scope, withhold) in keys {
            requested += 1;
            let key = self.key(graph, origin, scope, withhold);
            if !self.map.contains_key(&key) && !missing.contains(&key) {
                missing.push(key);
            }
        }
        obs::counter_add("route_cache.prefill.requested", requested);
        if missing.is_empty() {
            return;
        }
        // The span wraps the parallel fan-out from the orchestrating
        // thread; the workers only bump commutative counters (inside
        // `routes_from_origin`), so nesting stays schedule-independent.
        let span = obs::span!("route_cache.prefill");
        span.add_items(missing.len() as u64);
        obs::counter_add("route_cache.prefill.computed", missing.len() as u64);
        obs::counter_add(
            "route_cache.withheld_recompute",
            missing
                .iter()
                .filter(|(_, _, wk)| !self.withhold_lists[*wk as usize].is_empty())
                .count() as u64,
        );
        let lists = &self.withhold_lists;
        let computed = par::ordered_map(&missing, |_, &(origin, scope, wk)| {
            RouteComputer::new(graph).routes_from_origin(origin, scope, &lists[wk as usize])
        });
        for (key, routes) in missing.into_iter().zip(computed) {
            self.map.insert(key, Arc::new(routes));
        }
    }

    /// Prefills origin routes for several deployments at once: the
    /// union of their missing ⟨host, scope⟩ origins fans out over one
    /// deterministic parallel map, so a whole letter set or ring
    /// ladder is computed with maximal width before any catchment is
    /// assigned.
    pub fn prefill_deployments<'d>(
        &mut self,
        graph: &AsGraph,
        deployments: impl IntoIterator<Item = &'d AnycastDeployment>,
    ) {
        let mut keys: Vec<(Asn, ExportScope, &'d [Asn])> = Vec::new();
        for dep in deployments {
            let mut origins: Vec<(Asn, ExportScope)> = dep
                .sites
                .iter()
                .map(|s| {
                    let scope = match s.scope {
                        SiteScope::Global => ExportScope::Global,
                        SiteScope::Local => ExportScope::Local,
                    };
                    (s.host, scope)
                })
                .collect();
            if let Some(origin) = dep.origin_as {
                if graph.get(origin).is_some() {
                    origins.push((origin, ExportScope::Global));
                }
            }
            origins.sort_by_key(|(a, s)| (*a, matches!(s, ExportScope::Local)));
            origins.dedup();
            keys.extend(origins.into_iter().map(|(a, s)| (a, s, dep.withhold.as_slice())));
        }
        self.prefill(graph, keys);
    }

    /// Number of memoized origin computations.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Per-origin state inside a catchment: the routes toward one host AS and
/// the deployment sites that AS hosts (split by scope).
#[derive(Debug, Clone)]
struct OriginGroup {
    host: Asn,
    scope: ExportScope,
    routes: Arc<OriginRoutes>,
    /// Sites announced by this origin under this scope.
    sites: Vec<SiteId>,
}

/// The BGP decision key of one candidate origin group for one source:
/// everything the decision process compares *before* any path is
/// materialized. Computing keys is cheap (no waypoint resolution), so
/// incremental layers use them to decide whether a routing change can
/// possibly move a source before paying for a full reassignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateKey {
    /// Local-preference class of the group's route at the source.
    pub(crate) class: RouteClass,
    /// AS-path length of that route (source and origin included).
    pub(crate) path_len: u32,
    /// Early-exit cost: km from the source's serving PoP to the chosen
    /// first-hop interconnect (0 when the source is the origin).
    pub(crate) exit_km: f64,
    /// Host AS of the candidate group.
    pub(crate) host: Asn,
    /// Announcement scope of the candidate group.
    pub(crate) scope: ExportScope,
}

impl CandidateKey {
    /// Whether a challenger route of `(class, path_len)` could beat or
    /// tie this key in the BGP decision process. Geography-blind on
    /// purpose: class and length decide first, and a tie on both falls
    /// to the early-exit comparison — which requires a full reassignment
    /// anyway. Used as a sound pre-filter: `false` guarantees the
    /// challenger loses.
    pub fn challenged_by(&self, class: RouteClass, path_len: u32) -> bool {
        class > self.class || (class == self.class && path_len <= self.path_len)
    }

    /// The `(host, scope)` origin-group key this candidate belongs to —
    /// the granularity incremental layers index their users by.
    pub fn group(&self) -> (Asn, ExportScope) {
        (self.host, self.scope)
    }
}

/// One ranked candidate during the decision process: a group, the
/// comparison key, and the first hop the early-exit tie-break selected.
#[derive(Clone, Copy)]
struct Cand<'a> {
    group: &'a OriginGroup,
    class: RouteClass,
    len: u32,
    exit_km: f64,
    first: Option<crate::bgp::FirstHop>,
}

impl Cand<'_> {
    /// The decision key incremental layers store for this candidate.
    fn key(&self) -> CandidateKey {
        CandidateKey {
            class: self.class,
            path_len: self.len,
            exit_km: self.exit_km,
            host: self.group.host,
            scope: self.group.scope,
        }
    }
}

/// Computed catchments of one deployment over one graph. `Send + Sync`:
/// the deterministic parallel layer shards assignment work across
/// threads against one shared catchment.
#[derive(Debug)]
pub struct Catchment<'g> {
    graph: &'g AsGraph,
    deployment: Arc<AnycastDeployment>,
    groups: Vec<OriginGroup>,
}

impl<'g> Catchment<'g> {
    /// Computes catchments for `deployment`, memoizing origin routes in
    /// `cache`. Convenience wrapper over [`Catchment::compute_shared`]
    /// for callers holding a plain reference.
    pub fn compute(
        graph: &'g AsGraph,
        deployment: &AnycastDeployment,
        cache: &mut RouteCache,
    ) -> Self {
        Self::compute_shared(graph, Arc::new(deployment.clone()), cache)
    }

    /// Computes catchments for a shared `deployment` without cloning it.
    /// Any origin routes missing from `cache` are computed on the
    /// deterministic parallel layer.
    pub fn compute_shared(
        graph: &'g AsGraph,
        deployment: Arc<AnycastDeployment>,
        cache: &mut RouteCache,
    ) -> Self {
        // Group sites by (host, scope): one BGP computation per group.
        let mut grouped: DetHashMap<(Asn, ExportScope), Vec<SiteId>> = DetHashMap::default();
        for site in &deployment.sites {
            let scope = match site.scope {
                SiteScope::Global => ExportScope::Global,
                SiteScope::Local => ExportScope::Local,
            };
            grouped.entry((site.host, scope)).or_default().push(site.id);
        }
        let mut keys: Vec<_> = grouped.keys().copied().collect();
        keys.sort_by_key(|(a, s)| (*a, matches!(s, ExportScope::Local)));
        // One parallel fan-out over every missing origin, then all the
        // `get` calls below are cache hits.
        cache.prefill(
            graph,
            keys.iter().map(|&(host, scope)| (host, scope, deployment.withhold.as_slice())),
        );
        let mut groups: Vec<OriginGroup> = keys
            .into_iter()
            .map(|(host, scope)| OriginGroup {
                host,
                scope,
                routes: cache.get(graph, host, scope, &deployment.withhold),
                sites: std::mem::take(grouped.get_mut(&(host, scope)).expect("grouped key")),
            })
            .collect();
        // The origin AS itself announces every site over its own
        // adjacencies (IXP peering sessions), when it exists in the graph
        // and isn't already a host.
        if let Some(origin) = deployment.origin_as {
            if graph.get(origin).is_some() && !groups.iter().any(|g| g.host == origin) {
                groups.push(OriginGroup {
                    host: origin,
                    scope: ExportScope::Global,
                    routes: cache.get(graph, origin, ExportScope::Global, &deployment.withhold),
                    sites: deployment.sites.iter().map(|s| s.id).collect(),
                });
            }
        }
        Self { graph, deployment, groups }
    }

    /// The deployment this catchment was computed for.
    pub fn deployment(&self) -> &AnycastDeployment {
        &self.deployment
    }

    /// The site BGP selects for traffic from AS `src` at `user_loc`, or
    /// `None` if the source cannot reach any site.
    pub fn assign(&self, src: Asn, user_loc: &GeoPoint) -> Option<SiteAssignment> {
        self.ranked_top(src, user_loc, 1).into_iter().next()
    }

    /// The first `k` reachable candidates for traffic from `src` at
    /// `user_loc`, ranked by the BGP decision process (best first).
    /// Entry 0 is the steady-state choice; callers model transient
    /// load-balancing across intermediate ASes (Appendix B.2) by
    /// occasionally taking entry 1. Only as many (class, length) tiers
    /// are ranked, and only as many candidates materialized, as it takes
    /// to fill `k`: the early-exit ranking was most of an assignment's
    /// cost, and campaign generators only need the top one or two.
    pub fn ranked_top(&self, src: Asn, user_loc: &GeoPoint, k: usize) -> Vec<SiteAssignment> {
        let mut out = Vec::new();
        if k == 0 {
            return out;
        }
        let src_idx = self.graph.idx(src);
        let serving = self.graph.serving_pop(src, user_loc);
        // A candidate that fails to materialize (every hosted site
        // drained for this path's entry session) falls through to the
        // next-ranked group instead of truncating the result — matching
        // `assign_with_key`.
        self.walk_ranked(src_idx, &serving, |c| {
            out.extend(self.materialize(src_idx, user_loc, &serving, c.group, c.first));
            out.len() == k
        });
        out
    }

    /// The best assignment together with its [`CandidateKey`], in one
    /// ranking pass. Incremental layers store the key alongside the
    /// assignment so later routing changes can be pre-filtered with
    /// [`CandidateKey::challenged_by`] instead of re-ranking every source.
    pub fn assign_with_key(
        &self,
        src: Asn,
        user_loc: &GeoPoint,
    ) -> Option<(SiteAssignment, CandidateKey)> {
        let src_idx = self.graph.idx(src);
        let serving = self.graph.serving_pop(src, user_loc);
        let mut best = None;
        self.walk_ranked(src_idx, &serving, |c| {
            best = self
                .materialize(src_idx, user_loc, &serving, c.group, c.first)
                .map(|a| (a, c.key()));
            best.is_some()
        });
        best
    }

    /// The origin groups of this catchment, as `(host, scope)` keys in
    /// their internal (deterministic) order. One BGP computation backs
    /// each group; incremental layers diff successive catchments at this
    /// granularity.
    pub fn group_keys(&self) -> Vec<(Asn, ExportScope)> {
        self.groups.iter().map(|g| (g.host, g.scope)).collect()
    }

    /// Shared handle to the origin routes backing group `(host, scope)`,
    /// if such a group exists. `Arc::ptr_eq` on two catchments' handles
    /// proves the underlying BGP computation was reused unchanged.
    pub fn group_routes(&self, host: Asn, scope: ExportScope) -> Option<Arc<OriginRoutes>> {
        self.groups
            .iter()
            .find(|g| g.host == host && g.scope == scope)
            .map(|g| Arc::clone(&g.routes))
    }

    /// The sites announced by group `(host, scope)`, if such a group
    /// exists.
    pub fn group_sites(&self, host: Asn, scope: ExportScope) -> Option<&[SiteId]> {
        self.groups
            .iter()
            .find(|g| g.host == host && g.scope == scope)
            .map(|g| g.sites.as_slice())
    }

    /// Hands the reachable candidate groups for one source to `visit` in
    /// BGP decision order — class desc, then AS-path length asc, then
    /// early-exit distance asc, then host ASN — until `visit` returns
    /// `true`: the shared core of [`Catchment::ranked_top`] and
    /// [`Catchment::assign_with_key`].
    ///
    /// Class and length need no geometry, so the groups are first sorted
    /// into (class, length) tiers, and early exit is computed one tier at
    /// a time, best tier first. A walk that stops in the first tier never
    /// prices the others. The order is the one stable sort over the
    /// whole comparator would give: the comparator is lexicographic, and
    /// both sorts keep group order among equals.
    fn walk_ranked<'s>(
        &'s self,
        src_idx: usize,
        serving: &GeoPoint,
        mut visit: impl FnMut(Cand<'s>) -> bool,
    ) {
        let mut reach: Vec<(Reverse<RouteClass>, u32, usize)> = self
            .groups
            .iter()
            .enumerate()
            .filter_map(|(i, g)| {
                let r = g.routes.route_at(src_idx)?;
                Some((Reverse(r.class), r.path_len, i))
            })
            .collect();
        // Group indices are distinct, so this is the stable sort by
        // (class desc, length asc) over group order.
        reach.sort_unstable();
        let mut tier: Vec<Cand<'s>> = Vec::new();
        for same in reach.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            tier.clear();
            tier.extend(
                same.iter().filter_map(|&(.., i)| self.early_exit(&self.groups[i], src_idx, serving)),
            );
            tier.sort_by(|a, b| {
                a.exit_km
                    .partial_cmp(&b.exit_km)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.group.host.cmp(&b.group.host))
            });
            for &c in &tier {
                if visit(c) {
                    return;
                }
            }
        }
    }

    /// `group` as a candidate for the source at `src_idx`: its route and
    /// the early-exit first hop, or `None` when the group is unreachable.
    fn early_exit<'s>(
        &self,
        group: &'s OriginGroup,
        src_idx: usize,
        serving: &GeoPoint,
    ) -> Option<Cand<'s>> {
        let route = group.routes.route_at(src_idx)?;
        if route.class == RouteClass::Origin {
            return Some(Cand { group, class: route.class, len: route.path_len, exit_km: 0.0, first: None });
        }
        // Early-exit: among equally-best first hops, the source picks
        // the one whose interconnect is nearest its serving PoP.
        // Haversine distances are symmetric bit for bit, so the
        // interconnect's distance from `serving` is the exit cost.
        let (fh, exit_km) = nearest(route.first_hops.iter().copied(), |fh| {
            self.graph.nearest_interconnect(fh.link, serving).1
        })?;
        Some(Cand { group, class: route.class, len: route.path_len, exit_km, first: Some(fh) })
    }

    /// The eager ranking [`Catchment::walk_ranked`] replaced, kept as its
    /// reference: early exit for every reachable group, then one sort.
    #[cfg(test)]
    fn candidates(&self, src_idx: usize, serving: &GeoPoint) -> Vec<Cand<'_>> {
        let mut cands: Vec<Cand<'_>> = Vec::new();
        for group in &self.groups {
            let Some(route) = group.routes.route_at(src_idx) else {
                continue;
            };
            if route.class == RouteClass::Origin {
                cands.push(Cand { group, class: route.class, len: route.path_len, exit_km: 0.0, first: None });
                continue;
            }
            let best = nearest(route.first_hops.iter().copied(), |fh| {
                self.graph.nearest_interconnect(fh.link, serving).1
            });
            if let Some((fh, exit_km)) = best {
                cands.push(Cand { group, class: route.class, len: route.path_len, exit_km, first: Some(fh) });
            }
        }
        // BGP decision: class desc, then path length asc, then early-exit
        // distance asc, then host ASN for stability.
        cands.sort_by(|a, b| {
            b.class
                .cmp(&a.class)
                .then(a.len.cmp(&b.len))
                .then(a.exit_km.partial_cmp(&b.exit_km).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.group.host.cmp(&b.group.host))
        });
        cands
    }

    /// Builds the full assignment for one candidate group: reconstruct the
    /// AS path, pick the intra-origin site nearest the entry point (the
    /// host's internal anycast/early-exit — for a CDN this is "ingress PoP
    /// to nearest front-end in the ring"), and resolve waypoints. Sites
    /// mid-drain ([`AnycastDeployment::site_drains`]) are skipped for
    /// paths entering through a withheld neighbor session; returns `None`
    /// when that leaves the group with no eligible site (the caller falls
    /// through to the next-ranked candidate).
    fn materialize(
        &self,
        src_idx: usize,
        user_loc: &GeoPoint,
        serving: &GeoPoint,
        group: &OriginGroup,
        first: Option<crate::bgp::FirstHop>,
    ) -> Option<SiteAssignment> {
        let (nodes, links) = match first {
            Some(fh) => group.routes.path_via(src_idx, fh)?,
            None => (vec![src_idx], vec![]), // src is the origin
        };
        // The host-adjacent neighbor this path enters the origin AS
        // through — the session a staged drain withholds. None when the
        // source sits inside the host AS (no interdomain session).
        let via: Option<Asn> = nodes
            .len()
            .checked_sub(2)
            .map(|p| self.graph.node_at(nodes[p]).asn);
        // One hot-potato walk: its last point is the entry into the
        // origin AS (the user's serving PoP when the user sits inside it).
        let (mut points, walked_km) = waypoints::walk(self.graph, &links, user_loc, *serving);
        let entry = *points.last().expect("the walk starts at the user");
        // Intra-origin site selection: nearest *eligible* hosted site to
        // the entry. A site is ineligible when its staged drain withholds
        // this path's entry session. Group sites are in ascending id
        // order, so the first nearest site is the lowest id among ties.
        let eligible = |s: SiteId| match (via, self.deployment.drain_of(s)) {
            (Some(v), Some(d)) => d.withheld.binary_search(&v).is_err(),
            _ => true,
        };
        let (site_id, site_km) = nearest(
            group
                .sites
                .iter()
                .copied()
                .filter(|&s| self.deployment.site_drains.is_empty() || eligible(s)),
            |&s| self.deployment.site(s).location.distance_km(&entry),
        )?;
        points.push(self.deployment.site(site_id).location);
        let path_km = walked_km + site_km;
        let mut as_path: Vec<Asn> =
            nodes.iter().map(|&i| self.graph.node_at(i).asn).collect();
        // Upstream hosts hand off to the service's own AS at the site.
        if let Some(origin) = self.deployment.origin_as {
            let last = *as_path.last().expect("paths are non-empty");
            if last != origin && !self.deployment.direct_hosts.contains(&last) {
                as_path.push(origin);
            }
        }
        let class = match first {
            None => RouteClass::Origin,
            Some(_) => group.routes.route_at(src_idx).expect("had route").class,
        };
        Some(SiteAssignment { site: site_id, class, as_path, waypoints: points, path_km, entry })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsKind, OrgId};
    use crate::gen::{Internet, InternetGenerator, TopologyConfig};
    use crate::graph::AsNode;
    use crate::Relationship;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn node(asn: u32, kind: AsKind, pops: Vec<GeoPoint>) -> AsNode {
        AsNode {
            asn: Asn(asn),
            kind,
            org: OrgId(asn),
            name: format!("as{asn}"),
            pops,
            prefixes: vec![],
        }
    }

    fn p(lon: f64) -> GeoPoint {
        GeoPoint::new(0.0, lon)
    }

    fn site(id: u32, host: u32, lon: f64, scope: SiteScope) -> AnycastSite {
        AnycastSite {
            id: SiteId(id),
            name: format!("site{id}"),
            host: Asn(host),
            location: p(lon),
            scope,
        }
    }

    /// Eyeball E (AS1, lon 0) has two providers: H1 (AS10) hosting site A
    /// at lon 10 via a 2-AS path, and a chain H2 (AS20→AS21) hosting site
    /// B at lon 1 (geographically much closer) via a 3-AS path. BGP must
    /// pick the *shorter AS path* to the far site — textbook inflation.
    fn inflation_world() -> (AsGraph, AnycastDeployment) {
        let mut g = AsGraph::new();
        g.add_as(node(1, AsKind::Eyeball, vec![p(0.0)]));
        g.add_as(node(10, AsKind::Hoster, vec![p(10.0)]));
        g.add_as(node(20, AsKind::Transit, vec![p(0.5)]));
        g.add_as(node(21, AsKind::Hoster, vec![p(1.0)]));
        g.add_provider_link(Asn(10), Asn(1), vec![p(5.0)]);
        g.add_provider_link(Asn(20), Asn(1), vec![p(0.2)]);
        g.add_provider_link(Asn(20), Asn(21), vec![p(0.8)]);
        let dep = AnycastDeployment::new(
            "letter",
            vec![
                site(0, 10, 10.0, SiteScope::Global),
                site(1, 21, 1.0, SiteScope::Global),
            ],
            vec![],
        );
        (g, dep)
    }

    #[test]
    fn withholding_a_non_neighbor_keeps_the_cached_routes() {
        let (g, _) = inflation_world();
        let mut cache = RouteCache::new();
        let g21 = ExportScope::Global;
        let plain = cache.get(&g, Asn(21), g21, &[]);
        // AS1 is not adjacent to AS21: the same cache entry answers.
        assert!(Arc::ptr_eq(&plain, &cache.get(&g, Asn(21), g21, &[Asn(1)])));
        // AS20 is AS21's only neighbor: withholding it is a new entry,
        // and permutations and duplicates of the list share that entry.
        let cut = cache.get(&g, Asn(21), g21, &[Asn(20), Asn(1)]);
        assert!(!Arc::ptr_eq(&plain, &cut));
        assert!(Arc::ptr_eq(&cut, &cache.get(&g, Asn(21), g21, &[Asn(1), Asn(20), Asn(20)])));
        // AS1 *is* adjacent to AS10, so there the withhold bites.
        let h10 = cache.get(&g, Asn(10), g21, &[]);
        assert!(!Arc::ptr_eq(&h10, &cache.get(&g, Asn(10), g21, &[Asn(1)])));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn withholding_an_as_absent_from_the_graph_is_inert() {
        let (g, mut dep) = inflation_world();
        let mut cache = RouteCache::new();
        let plain = cache.get(&g, Asn(10), ExportScope::Global, &[]);
        let ghost = cache.get(&g, Asn(10), ExportScope::Global, &[Asn(999)]);
        assert!(Arc::ptr_eq(&plain, &ghost));
        let direct =
            RouteComputer::new(&g).routes_from_origin(Asn(10), ExportScope::Global, &[Asn(999)]);
        assert_eq!(*plain, direct);
        dep.withhold = vec![Asn(999)];
        let catchment = Catchment::compute(&g, &dep, &mut cache);
        assert_eq!(catchment.assign(Asn(1), &p(0.0)).unwrap().site, SiteId(0));
    }

    #[test]
    fn shorter_as_path_beats_geography() {
        let (g, dep) = inflation_world();
        let mut cache = RouteCache::new();
        let catchment = Catchment::compute(&g, &dep, &mut cache);
        let a = catchment.assign(Asn(1), &p(0.0)).unwrap();
        assert_eq!(a.site, SiteId(0), "2-AS path to far site must win");
        assert_eq!(a.as_path, vec![Asn(1), Asn(10)]);
        // The user is inflated: nearest global site is 1 degree away but
        // traffic goes 10 degrees away.
        let nearest = dep.nearest_global_site_km(&p(0.0));
        assert!(a.path_km > 2.0 * nearest);
    }

    #[test]
    fn ranked_returns_both_candidates_in_order() {
        let (g, dep) = inflation_world();
        let mut cache = RouteCache::new();
        let catchment = Catchment::compute(&g, &dep, &mut cache);
        let ranked = catchment.ranked_top(Asn(1), &p(0.0), usize::MAX);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].site, SiteId(0));
        assert_eq!(ranked[1].site, SiteId(1));
        assert_eq!(ranked[1].as_path, vec![Asn(1), Asn(20), Asn(21)]);
        // A truncated ranking keeps the head, and the decision key the
        // incremental layers store describes that same candidate.
        let top = catchment.ranked_top(Asn(1), &p(0.0), 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].as_path, ranked[0].as_path);
        let (_, key) = catchment.assign_with_key(Asn(1), &p(0.0)).unwrap();
        assert_eq!(key.class, ranked[0].class);
        assert_eq!(key.path_len as usize, ranked[0].as_path.len());
        assert!(key.path_len < ranked[1].as_path.len() as u32);
    }

    #[test]
    fn local_site_only_serves_neighbors() {
        // Site hosted locally at AS10; AS1 (customer of 10) sees it, AS2
        // (customer of AS20 only) cannot reach it at all.
        let mut g = AsGraph::new();
        g.add_as(node(10, AsKind::Hoster, vec![p(0.0)]));
        g.add_as(node(20, AsKind::Transit, vec![p(5.0)]));
        g.add_as(node(1, AsKind::Eyeball, vec![p(0.1)]));
        g.add_as(node(2, AsKind::Eyeball, vec![p(5.1)]));
        g.add_provider_link(Asn(10), Asn(1), vec![p(0.05)]);
        g.add_provider_link(Asn(20), Asn(2), vec![p(5.05)]);
        g.add_peer_link(Asn(10), Asn(20), vec![p(2.5)]);
        let dep = AnycastDeployment::new(
            "local-only",
            vec![site(0, 10, 0.0, SiteScope::Local)],
            vec![],
        );
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        assert!(c.assign(Asn(1), &p(0.1)).is_some());
        assert!(
            c.assign(Asn(2), &p(5.1)).is_none(),
            "NO_EXPORT announcement must not transit AS20"
        );
    }

    #[test]
    fn single_origin_early_exit_picks_site_near_ingress() {
        // CDN AS 100 with PoPs at lon 0 and lon 60, front-ends at both.
        // Eyeball at lon 58 peers with the CDN at lon 60 → lands on the
        // lon-60 site. Eyeball at lon 2 peers at lon 0 → lon-0 site.
        let mut g = AsGraph::new();
        g.add_as(node(100, AsKind::Content, vec![p(0.0), p(60.0)]));
        g.add_as(node(1, AsKind::Eyeball, vec![p(58.0)]));
        g.add_as(node(2, AsKind::Eyeball, vec![p(2.0)]));
        g.add_peer_link(Asn(1), Asn(100), vec![p(60.0), p(0.0)]);
        g.add_peer_link(Asn(2), Asn(100), vec![p(0.0), p(60.0)]);
        let dep = AnycastDeployment::new(
            "ring",
            vec![
                site(0, 100, 0.0, SiteScope::Global),
                site(1, 100, 60.0, SiteScope::Global),
            ],
            vec![],
        );
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        assert_eq!(c.assign(Asn(1), &p(58.0)).unwrap().site, SiteId(1));
        assert_eq!(c.assign(Asn(2), &p(2.0)).unwrap().site, SiteId(0));
    }

    #[test]
    fn smaller_ring_routes_ingress_to_remaining_site() {
        // Same CDN but the "small ring" only has the lon-0 front-end: the
        // lon-58 eyeball still ingresses at lon 60 (same PoP/peering) and
        // then rides the WAN to lon 0.
        let mut g = AsGraph::new();
        g.add_as(node(100, AsKind::Content, vec![p(0.0), p(60.0)]));
        g.add_as(node(1, AsKind::Eyeball, vec![p(58.0)]));
        g.add_peer_link(Asn(1), Asn(100), vec![p(60.0), p(0.0)]);
        let dep = AnycastDeployment::new(
            "small-ring",
            vec![site(0, 100, 0.0, SiteScope::Global)],
            vec![],
        );
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        let a = c.assign(Asn(1), &p(58.0)).unwrap();
        assert_eq!(a.site, SiteId(0));
        // Path: user(58) → pop(58) → interconnect(60) → site(0): the
        // ingress detour makes it longer than the direct distance.
        let direct = p(58.0).distance_km(&p(0.0));
        assert!(a.path_km > direct);
    }

    #[test]
    fn source_inside_origin_as_gets_origin_class() {
        let mut g = AsGraph::new();
        g.add_as(node(100, AsKind::Content, vec![p(0.0), p(30.0)]));
        let dep = AnycastDeployment::new(
            "ring",
            vec![site(0, 100, 0.0, SiteScope::Global), site(1, 100, 30.0, SiteScope::Global)],
            vec![],
        );
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        let a = c.assign(Asn(100), &p(29.0)).unwrap();
        assert_eq!(a.class, RouteClass::Origin);
        assert_eq!(a.site, SiteId(1));
        assert_eq!(a.as_path, vec![Asn(100)]);
    }

    #[test]
    fn route_cache_is_shared_across_deployments() {
        let (g, dep) = inflation_world();
        let mut cache = RouteCache::new();
        let _c1 = Catchment::compute(&g, &dep, &mut cache);
        let n = cache.len();
        let _c2 = Catchment::compute(&g, &dep, &mut cache);
        assert_eq!(cache.len(), n, "second deployment reuses cached origins");
    }

    #[test]
    fn unreachable_source_gets_none() {
        let (mut g, dep) = inflation_world();
        g.add_as(node(99, AsKind::Eyeball, vec![p(-50.0)]));
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        assert!(c.assign(Asn(99), &p(-50.0)).is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_site_ids_panic() {
        AnycastDeployment::new("bad", vec![site(1, 10, 0.0, SiteScope::Global)], vec![]);
    }

    #[test]
    fn assign_with_key_matches_assign() {
        let (g, dep) = inflation_world();
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        let plain = c.assign(Asn(1), &p(0.0)).unwrap();
        let (a, key) = c.assign_with_key(Asn(1), &p(0.0)).unwrap();
        assert_eq!(a.site, plain.site);
        assert_eq!(a.as_path, plain.as_path);
        assert_eq!(key.host, Asn(10), "winning group is the 2-AS host");
        assert_eq!(key.class, a.class);
        assert_eq!(key.path_len, 2);
        assert_eq!(key.scope, ExportScope::Global);
    }

    #[test]
    fn challenged_by_is_a_sound_prefilter() {
        let key = CandidateKey {
            class: RouteClass::Peer,
            path_len: 3,
            exit_km: 10.0,
            host: Asn(10),
            scope: ExportScope::Global,
        };
        // Better class, or same class with same-or-shorter path: challenge.
        assert!(key.challenged_by(RouteClass::Customer, 9));
        assert!(key.challenged_by(RouteClass::Peer, 3));
        assert!(key.challenged_by(RouteClass::Peer, 2));
        // Strictly worse on (class, len): can never win.
        assert!(!key.challenged_by(RouteClass::Peer, 4));
        assert!(!key.challenged_by(RouteClass::Provider, 2));
    }

    #[test]
    fn staged_drain_steers_withheld_sessions_to_sibling_site() {
        // CDN AS 100 with front-ends at lon 0 and lon 60. The eyeball at
        // lon 58 peers at lon 60 and normally lands on site 1. Draining
        // site 1 for that eyeball's session steers it to site 0 without
        // touching the announcement.
        let mut g = AsGraph::new();
        g.add_as(node(100, AsKind::Content, vec![p(0.0), p(60.0)]));
        g.add_as(node(1, AsKind::Eyeball, vec![p(58.0)]));
        g.add_peer_link(Asn(1), Asn(100), vec![p(60.0), p(0.0)]);
        let mut dep = AnycastDeployment::new(
            "ring",
            vec![
                site(0, 100, 0.0, SiteScope::Global),
                site(1, 100, 60.0, SiteScope::Global),
            ],
            vec![],
        );
        let mut cache = RouteCache::new();
        let before = Catchment::compute(&g, &dep, &mut cache);
        assert_eq!(before.assign(Asn(1), &p(58.0)).unwrap().site, SiteId(1));

        dep.site_drains = vec![SiteDrain { site: SiteId(1), withheld: vec![Asn(1)] }];
        let during = Catchment::compute(&g, &dep, &mut cache);
        let a = during.assign(Asn(1), &p(58.0)).unwrap();
        assert_eq!(a.site, SiteId(0), "withheld session must fall to the sibling");

        // Sessions not in the withheld set are untouched.
        dep.site_drains = vec![SiteDrain { site: SiteId(1), withheld: vec![Asn(999)] }];
        let other = Catchment::compute(&g, &dep, &mut cache);
        assert_eq!(other.assign(Asn(1), &p(58.0)).unwrap().site, SiteId(1));
    }

    #[test]
    fn fully_drained_single_site_group_falls_to_next_candidate_group() {
        // Same shape as inflation_world: the winning 2-AS group hosts
        // one site. Draining it for the eyeball's session must fall
        // through to the 3-AS group, exactly like the full ranking's
        // entry 1.
        let (g, mut dep) = inflation_world();
        let mut cache = RouteCache::new();
        let baseline = Catchment::compute(&g, &dep, &mut cache);
        let ranked = baseline.ranked_top(Asn(1), &p(0.0), usize::MAX);
        assert_eq!(ranked[0].site, SiteId(0));

        dep.site_drains = vec![SiteDrain { site: SiteId(0), withheld: vec![Asn(1)] }];
        let drained = Catchment::compute(&g, &dep, &mut cache);
        let a = drained.assign(Asn(1), &p(0.0)).unwrap();
        assert_eq!(a.site, SiteId(1), "drained group must yield to the runner-up");
        assert_eq!(a.as_path, ranked[1].as_path);
        // assign_with_key falls through identically.
        let (ak, key) = drained.assign_with_key(Asn(1), &p(0.0)).unwrap();
        assert_eq!(ak.site, SiteId(1));
        assert_eq!(key.host, Asn(21));
        // ranked_top(…, 1) agrees with assign (the take-after-filter fix).
        let top = drained.ranked_top(Asn(1), &p(0.0), 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].site, SiteId(1));
    }

    #[test]
    fn drain_does_not_withhold_internal_traffic() {
        // A source inside the origin AS crosses no interdomain session,
        // so staged withholds never apply to it — only the final
        // withdrawal (site down) moves internal users.
        let mut g = AsGraph::new();
        g.add_as(node(100, AsKind::Content, vec![p(0.0), p(30.0)]));
        let mut dep = AnycastDeployment::new(
            "ring",
            vec![site(0, 100, 0.0, SiteScope::Global), site(1, 100, 30.0, SiteScope::Global)],
            vec![],
        );
        dep.site_drains = vec![SiteDrain { site: SiteId(1), withheld: vec![Asn(100)] }];
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        assert_eq!(c.assign(Asn(100), &p(29.0)).unwrap().site, SiteId(1));
    }

    #[test]
    fn group_accessors_expose_origin_groups() {
        let (g, dep) = inflation_world();
        let mut cache = RouteCache::new();
        let c = Catchment::compute(&g, &dep, &mut cache);
        let keys = c.group_keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&(Asn(10), ExportScope::Global)));
        assert!(keys.contains(&(Asn(21), ExportScope::Global)));
        assert_eq!(c.group_sites(Asn(10), ExportScope::Global).unwrap(), &[SiteId(0)]);
        assert!(c.group_routes(Asn(10), ExportScope::Global).is_some());
        assert!(c.group_routes(Asn(10), ExportScope::Local).is_none());
        // Recomputing over the same cache reuses the same routes Arc.
        let c2 = Catchment::compute(&g, &dep, &mut cache);
        assert!(Arc::ptr_eq(
            &c.group_routes(Asn(10), ExportScope::Global).unwrap(),
            &c2.group_routes(Asn(10), ExportScope::Global).unwrap()
        ));
    }

    /// Bit pattern of a point, so NaN-free points compare exactly.
    fn bits(p: &GeoPoint) -> (u64, u64) {
        (p.lat().to_bits(), p.lon().to_bits())
    }

    /// The point `Iterator::min_by` picked before [`nearest`]: two
    /// haversines per comparison.
    fn min_by_nearest(points: &[GeoPoint], from: &GeoPoint) -> GeoPoint {
        *points
            .iter()
            .min_by(|p, q| {
                p.distance_km(from)
                    .partial_cmp(&q.distance_km(from))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty")
    }

    /// The construction `materialize` replaced: walk the hops for the
    /// entry, pick the site by `min_by` (ties to the lower id), then walk
    /// the hops again from a recomputed serving PoP for the waypoints.
    /// Returns `(site, waypoints, path_km, entry)`.
    fn two_walk(
        c: &Catchment<'_>,
        src_idx: usize,
        user_loc: &GeoPoint,
        group: &OriginGroup,
        first: Option<crate::bgp::FirstHop>,
    ) -> Option<(SiteId, Vec<GeoPoint>, f64, GeoPoint)> {
        let g = c.graph;
        let (nodes, links) = match first {
            Some(fh) => group.routes.path_via(src_idx, fh)?,
            None => (vec![src_idx], vec![]),
        };
        let via = nodes.len().checked_sub(2).map(|p| g.node_at(nodes[p]).asn);
        let serving = min_by_nearest(&g.node_at(src_idx).pops, user_loc);
        let mut entry = serving;
        for &link in &links {
            entry = min_by_nearest(&g.link(link).interconnects, &entry);
        }
        let eligible = |s: SiteId| match (via, c.deployment.drain_of(s)) {
            (Some(v), Some(d)) => d.withheld.binary_search(&v).is_err(),
            _ => true,
        };
        let site = group.sites.iter().copied().filter(|&s| eligible(s)).min_by(|a, b| {
            let da = c.deployment.site(*a).location.distance_km(&entry);
            let db = c.deployment.site(*b).location.distance_km(&entry);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
        })?;
        let mut cur = min_by_nearest(&g.node(g.node_at(nodes[0]).asn).pops, user_loc);
        let mut points = vec![*user_loc, cur];
        for &link in &links {
            cur = min_by_nearest(&g.link(link).interconnects, &cur);
            points.push(cur);
        }
        points.push(c.deployment.site(site).location);
        let km = points.windows(2).map(|w| w[0].distance_km(&w[1])).sum();
        Some((site, points, km, entry))
    }

    /// `g` with every PoP and interconnect snapped to a `step`-degree
    /// grid, so that early-exit distances from different links tie.
    fn snapped(g: &AsGraph, step: f64) -> AsGraph {
        let snap = |p: &GeoPoint| {
            GeoPoint::new((p.lat() / step).round() * step, (p.lon() / step).round() * step)
        };
        let mut out = AsGraph::new();
        for n in g.nodes() {
            out.add_as(AsNode { pops: n.pops.iter().map(snap).collect(), ..n.clone() });
        }
        for l in g.links() {
            let points = l.interconnects.iter().map(snap).collect();
            match l.rel_of_b_to_a {
                Relationship::Customer => out.add_provider_link(l.a, l.b, points),
                Relationship::Provider => out.add_provider_link(l.b, l.a, points),
                Relationship::Peer => out.add_peer_link(l.a, l.b, points),
            }
        }
        out
    }

    /// Everything an assignment carries, floats as bits.
    type Summary = (SiteId, RouteClass, Vec<Asn>, Vec<(u64, u64)>, u64, (u64, u64));

    fn summary(a: &SiteAssignment) -> Summary {
        let points = a.waypoints.iter().map(bits).collect();
        (a.site, a.class, a.as_path.clone(), points, a.path_km.to_bits(), bits(&a.entry))
    }

    /// A deployment over `net` drawn from `rng`: two to six hosts with one
    /// to three sites each at the host's PoPs (collocated sites tie), a
    /// Global or Local scope per site so that some hosts announce both,
    /// staged drains withholding random host neighbors, and sometimes an
    /// origin AS whose group sorts after hosts with higher ASNs.
    fn random_deployment(net: &mut Internet, g: &AsGraph, rng: &mut StdRng) -> AnycastDeployment {
        let n_hosts = rng.gen_range(2..=6);
        let hosts = net.sample_hosters(n_hosts);
        let mut sites = Vec::new();
        for &host in &hosts {
            let pops = &g.node(host).pops;
            for _ in 0..rng.gen_range(1..=3) {
                sites.push(AnycastSite {
                    id: SiteId(sites.len() as u32),
                    name: format!("s{}", sites.len()),
                    host,
                    location: pops[rng.gen_range(0..pops.len())],
                    scope: if rng.gen_bool(0.3) { SiteScope::Local } else { SiteScope::Global },
                });
            }
        }
        let mut dep = AnycastDeployment::new("ranked", sites, vec![]);
        for s in &dep.sites {
            if !rng.gen_bool(0.3) {
                continue;
            }
            let mut withheld: Vec<Asn> = g
                .adjacency(g.idx(s.host))
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .map(|a| g.node_at(a.neighbor).asn)
                .collect();
            withheld.sort();
            dep.site_drains.push(SiteDrain { site: s.id, withheld });
        }
        if rng.gen_bool(0.5) {
            let origins: Vec<Asn> = net.tier1s.iter().chain(&net.transits).copied().collect();
            let origin = origins[rng.gen_range(0..origins.len())];
            let direct = hosts.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            dep = dep.with_origin(origin, direct);
        }
        dep
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The tier-by-tier walk ranks exactly as the eager reference:
        /// every `ranked_top(k)` and every `assign_with_key`, ties and
        /// drained fall-throughs included, on grid-snapped Internets
        /// where early-exit distances tie across hosts.
        #[test]
        fn tier_walk_matches_the_eager_ranking(
            seed in 0u64..500,
            dep_seed in 0u64..u64::MAX,
            step in 1u32..=10,
        ) {
            let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
            let g = snapped(&net.graph, f64::from(step));
            let mut rng = StdRng::seed_from_u64(dep_seed);
            let dep = random_deployment(&mut net, &g, &mut rng);
            let mut cache = RouteCache::new();
            let c = Catchment::compute(&g, &dep, &mut cache);
            for loc in net.user_locations() {
                let center = net.world.region(loc.region).center;
                let user = GeoPoint::new(center.lat().round(), center.lon().round());
                let src_idx = g.idx(loc.asn);
                let serving = g.serving_pop(loc.asn, &user);
                let reference: Vec<(Summary, CandidateKey)> = c
                    .candidates(src_idx, &serving)
                    .into_iter()
                    .filter_map(|cand| {
                        let a = c.materialize(src_idx, &user, &serving, cand.group, cand.first)?;
                        Some((summary(&a), cand.key()))
                    })
                    .collect();
                for k in [0, 1, 2, usize::MAX] {
                    let walked: Vec<Summary> =
                        c.ranked_top(loc.asn, &user, k).iter().map(summary).collect();
                    let expected: Vec<Summary> =
                        reference.iter().take(k).map(|(a, _)| a.clone()).collect();
                    prop_assert_eq!(walked, expected, "ranked_top k = {}", k);
                }
                let keyed = c.assign_with_key(loc.asn, &user).map(|(a, key)| (summary(&a), key));
                prop_assert_eq!(keyed, reference.first().cloned());
            }
        }
    }

    #[test]
    fn restricted_keeps_sites_in_order_and_copies_the_announcement() {
        let sites = (0..5).map(|i| site(i, 10 + i, f64::from(i), SiteScope::Global)).collect();
        let mut dep = AnycastDeployment::new("letter", sites, vec![Asn(7), Asn(9)])
            .with_origin(Asn(99), vec![Asn(11)]);
        dep.site_drains = vec![SiteDrain { site: SiteId(3), withheld: vec![Asn(1)] }];
        let (sub, orig) = dep.restricted(|s| s.id.0 % 2 == 1).expect("two sites kept");
        assert_eq!(orig, vec![SiteId(1), SiteId(3)]);
        for (i, s) in sub.sites.iter().enumerate() {
            assert_eq!(s.id, SiteId(i as u32));
            assert_eq!((&s.name, s.host), (&dep.site(orig[i]).name, dep.site(orig[i]).host));
        }
        assert_eq!(sub.name, dep.name);
        assert_eq!(sub.withhold, dep.withhold);
        assert_eq!((sub.origin_as, &sub.direct_hosts), (Some(Asn(99)), &vec![Asn(11)]));
        assert!(sub.site_drains.is_empty());
        assert!(dep.restricted(|_| false).is_none());
    }

    /// Keeping every site reproduces the deployment's catchment exactly:
    /// same site, path and candidate key for every source, so the
    /// re-numbering preserves the ascending order the dynamics site diff
    /// relies on.
    #[test]
    fn restricting_to_every_site_changes_no_assignment() {
        let mut compared = 0;
        for seed in [3, 17, 42] {
            let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
            let g = net.graph.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dep = random_deployment(&mut net, &g, &mut rng);
            dep.site_drains.clear();
            let (all, orig) = dep.restricted(|_| true).expect("non-empty");
            assert_eq!(orig, dep.sites.iter().map(|s| s.id).collect::<Vec<_>>());
            let mut cache = RouteCache::new();
            let before = Catchment::compute(&g, &dep, &mut cache);
            let after = Catchment::compute(&g, &all, &mut cache);
            for loc in net.user_locations() {
                let user = net.world.region(loc.region).center;
                let key = |c: &Catchment<'_>| {
                    c.assign_with_key(loc.asn, &user).map(|(a, k)| (summary(&a), k))
                };
                assert_eq!(key(&before), key(&after));
                compared += 1;
            }
        }
        assert!(compared > 100, "only {compared} sources compared");
    }

    #[test]
    fn materialize_matches_the_two_walk_construction() {
        let mut compared = 0;
        for seed in [3, 17] {
            let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
            // Two sites per host, the second collocated with the first
            // (exact distance ties inside a group), plus a drain.
            let hosts = net.sample_hosters(3);
            let sites: Vec<AnycastSite> = (0..6)
                .map(|i| AnycastSite {
                    id: SiteId(i as u32),
                    name: format!("s{i}"),
                    host: hosts[i / 2],
                    location: net.graph.node(hosts[i / 2]).pops[0],
                    scope: SiteScope::Global,
                })
                .collect();
            let mut dep = AnycastDeployment::new("two-walk", sites, vec![]);
            let g = &net.graph;
            let mut withheld: Vec<Asn> = g
                .adjacency(g.idx(hosts[0]))
                .iter()
                .step_by(2)
                .map(|a| g.node_at(a.neighbor).asn)
                .collect();
            withheld.sort();
            dep.site_drains = vec![SiteDrain { site: SiteId(0), withheld }];
            let mut cache = RouteCache::new();
            let c = Catchment::compute(g, &dep, &mut cache);
            for loc in net.user_locations() {
                let user = net.world.region(loc.region).center;
                let src_idx = g.idx(loc.asn);
                let serving = g.serving_pop(loc.asn, &user);
                assert_eq!(bits(&serving), bits(&min_by_nearest(&g.node(loc.asn).pops, &user)));
                for cand in c.candidates(src_idx, &serving) {
                    let route = cand.group.routes.route_at(src_idx).expect("candidates route");
                    if let Some(fh) = cand.first {
                        // The early-exit pick and its cost, as `min_by` made them.
                        let (old_km, old_fh) = route
                            .first_hops
                            .iter()
                            .map(|h| {
                                let x = min_by_nearest(&g.link(h.link).interconnects, &serving);
                                (serving.distance_km(&x), *h)
                            })
                            .min_by(|a, b| {
                                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
                            })
                            .expect("routed");
                        assert_eq!((fh, cand.exit_km.to_bits()), (old_fh, old_km.to_bits()));
                    }
                    let new = c.materialize(src_idx, &user, &serving, cand.group, cand.first);
                    let old = two_walk(&c, src_idx, &user, cand.group, cand.first);
                    assert_eq!(new.is_some(), old.is_some());
                    let (Some(a), Some((site, points, km, entry))) = (new, old) else { continue };
                    assert_eq!(a.site, site);
                    let new_bits: Vec<_> = a.waypoints.iter().map(bits).collect();
                    assert_eq!(new_bits, points.iter().map(bits).collect::<Vec<_>>());
                    assert_eq!(a.path_km.to_bits(), km.to_bits());
                    assert_eq!(bits(&a.entry), bits(&entry));
                    compared += 1;
                }
            }
        }
        assert!(compared > 100, "only {compared} assignments compared");
    }
}
