//! DDoS resilience under anycast — the growth driver the paper surveys
//! but does not measure.
//!
//! Table 1's most-cited reason for root expansion is DDoS resilience
//! (9 of 11 operators), and §8 points at the November 2015 root event
//! study (Moura et al., IMC 2016): under attack, anycast sites either
//! *absorb* the load or *collapse and withdraw*, shifting their
//! catchment onto survivors — possibly cascading. This module simulates
//! that dynamic over any deployment:
//!
//! 1. route legitimate users and attack sources through the current
//!    catchment,
//! 2. sites loaded beyond capacity fail and withdraw their announcement,
//! 3. recompute catchments and repeat to a fixed point.
//!
//! The outcome quantifies what extra sites buy: more aggregate capacity
//! (fewer withdrawals) and gentler degradation (smaller latency shift
//! for the users whose site died).

use crate::stats::WeightedCdf;
use geo::GeoPoint;
use netsim::{LastMile, LatencyModel, PathProfile};
use serde::{Deserialize, Serialize};
use par::DetHashMap as HashMap;
use std::sync::Arc;
use topology::{AnycastDeployment, AsGraph, Asn, Catchment, RouteCache, SiteId};

/// A weighted traffic source: who sends, from where, how much.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSource {
    /// Source AS.
    pub asn: Asn,
    /// Source location.
    pub location: GeoPoint,
    /// Load contributed (user count for legitimate traffic, attack units
    /// for attack traffic).
    pub load: f64,
}

/// User-weighted broadband latency of `users` over `deployment`'s
/// catchment: one point per routed user, weighted by its load. Prices
/// the baseline and every variant `te` weighs.
pub(crate) fn latency_cdf(
    graph: &AsGraph,
    deployment: Arc<AnycastDeployment>,
    model: &LatencyModel,
    users: &[TrafficSource],
    cache: &mut RouteCache,
) -> WeightedCdf {
    let catchment = Catchment::compute(graph, deployment, cache);
    let pts = users
        .iter()
        .filter_map(|u| {
            catchment.assign(u.asn, &u.location).map(|a| {
                (
                    model.median_rtt_ms(&PathProfile::from_assignment(&a, LastMile::Broadband)),
                    u.load,
                )
            })
        })
        .collect();
    WeightedCdf::from_points(pts)
}

/// Attack description.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// Attack sources (botnet footprint), with per-source volume.
    pub sources: Vec<TrafficSource>,
}

/// Per-site load limits of one deployment — the capacity side of every
/// load-coupled simulation in the repo (DDoS cascades here, load-aware
/// drains in `dynamics`).
///
/// Capacities are indexed by [`SiteId`] and expressed in the same
/// units as the traffic sources' load (user weight). Queries never
/// allocate, so engines can consult them per epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteCapacities {
    caps: Vec<f64>,
}

impl SiteCapacities {
    /// The same capacity for each of `n_sites` sites.
    ///
    /// # Panics
    ///
    /// Panics unless `cap` is positive and finite.
    pub fn uniform(n_sites: usize, cap: f64) -> Self {
        Self::from_per_site(vec![cap; n_sites])
    }

    /// Per-site capacities, indexed by site id.
    ///
    /// # Panics
    ///
    /// Panics unless every capacity is positive and finite.
    pub fn from_per_site(caps: Vec<f64>) -> Self {
        assert!(
            caps.iter().all(|c| c.is_finite() && *c > 0.0),
            "sites need positive finite capacity"
        );
        Self { caps }
    }

    /// Capacities proportional to a measured load profile: site `i` gets
    /// `loads[i] * factor`, floored at `floor` so an idle site can still
    /// absorb shifted traffic.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` and `floor` are positive and finite.
    pub fn from_headroom(loads: &[f64], factor: f64, floor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "headroom factor must be positive");
        assert!(floor.is_finite() && floor > 0.0, "capacity floor must be positive");
        Self::from_per_site(loads.iter().map(|l| (l * factor).max(floor)).collect())
    }

    /// Scales `site`'s capacity by `factor` in place — the provisioning
    /// change behind a `CapacityScale` routing event. Reciprocal
    /// factors compose back to the original value up to float rounding.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite (the table's
    /// positive-finite invariant must survive), or if `site` is outside
    /// the table.
    pub fn scale(&mut self, site: SiteId, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "capacity factor must be positive, got {factor}");
        let c = &mut self.caps[site.0 as usize];
        *c *= factor;
        assert!(c.is_finite() && *c > 0.0, "scaled capacity must stay positive finite");
    }

    /// Number of sites covered.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// The load limit of `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the table.
    pub fn capacity(&self, site: SiteId) -> f64 {
        self.caps[site.0 as usize]
    }

    /// Remaining absolute headroom of `site` under `load` (negative when
    /// overloaded).
    pub(crate) fn headroom(&self, site: SiteId, load: f64) -> f64 {
        self.capacity(site) - load
    }

    /// The lowest-id site in `sites` whose entry in `loads` (indexed by
    /// site id) exceeds its capacity, with that load — the abort trigger
    /// of a load-aware drain. `None` when every listed site fits.
    pub fn first_overloaded(
        &self,
        loads: &[f64],
        sites: impl IntoIterator<Item = SiteId>,
    ) -> Option<(SiteId, f64)> {
        sites
            .into_iter()
            .find(|s| loads[s.0 as usize] > self.capacity(*s))
            .map(|s| (s, loads[s.0 as usize]))
    }

    /// The worst relative headroom `(cap - load) / cap` across `sites`
    /// (negative when something is overloaded), or `None` when `sites`
    /// is empty.
    pub fn min_headroom_frac(
        &self,
        loads: &[f64],
        sites: impl IntoIterator<Item = SiteId>,
    ) -> Option<f64> {
        sites
            .into_iter()
            .map(|s| self.headroom(s, loads[s.0 as usize]) / self.capacity(s))
            .min_by(|a, b| a.total_cmp(b))
    }
}

/// Outcome of one attack simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Sites that collapsed and withdrew, in order of failure round.
    pub withdrawn_sites: Vec<SiteId>,
    /// User-weighted latency before the attack, ms.
    pub latency_before: WeightedCdf,
    /// User-weighted latency of still-served users at the fixed point.
    pub latency_after: WeightedCdf,
    /// Fraction of users left with no reachable, surviving site.
    pub unserved_user_fraction: f64,
    /// Rounds until the failure cascade stabilized.
    pub rounds: usize,
}

/// Simulates `attack` against `deployment`, every site with the same
/// load limit.
///
/// `users` carries the legitimate load (weight = users);
/// `capacity_per_site` is each site's load limit in the same units
/// (legit + attack combined). Local sites participate: they shield
/// their neighborhoods, which is precisely the "ISP resilience"
/// argument of §7.3.
pub fn simulate_attack(
    graph: &AsGraph,
    deployment: &AnycastDeployment,
    model: &LatencyModel,
    users: &[TrafficSource],
    attack: &AttackSpec,
    capacity_per_site: f64,
) -> AttackOutcome {
    assert!(
        capacity_per_site.is_finite() && capacity_per_site > 0.0,
        "sites need positive capacity"
    );
    let mut cache = RouteCache::new();
    // Round 1 keeps every site, so its latencies are the pre-attack ones.
    let mut latency_before = None;
    let mut withdrawn: Vec<SiteId> = Vec::new();
    // The deployment as still announced: the collapsed sites withdrawn.
    let mut dep = Arc::new(deployment.clone());
    let mut rounds = 0;
    let total_users: f64 = users.iter().map(|u| u.load).sum();
    let (latency_after, unserved) = loop {
        rounds += 1;
        if dep.withdrawn.len() == dep.sites.len() {
            break (WeightedCdf::from_points(vec![]), 1.0);
        }
        let catchment = Catchment::compute(graph, Arc::clone(&dep), &mut cache);

        // Load per (surviving) site.
        let mut load: HashMap<SiteId, f64> = HashMap::default();
        let mut latency_pts = Vec::new();
        let mut served = 0.0;
        for u in users {
            if let Some(a) = catchment.assign(u.asn, &u.location) {
                *load.entry(a.site).or_default() += u.load;
                served += u.load;
                let ms = model
                    .median_rtt_ms(&PathProfile::from_assignment(&a, LastMile::Broadband));
                latency_pts.push((ms, u.load));
            }
        }
        if rounds == 1 {
            latency_before = Some(WeightedCdf::from_points(latency_pts.clone()));
        }
        for s in &attack.sources {
            if let Some(a) = catchment.assign(s.asn, &s.location) {
                *load.entry(a.site).or_default() += s.load;
            }
        }

        // Collapse every overloaded site this round (simultaneous, like
        // a volumetric attack hitting all catchments at once).
        let mut failed_this_round: Vec<SiteId> = load
            .iter()
            .filter(|(_, l)| **l > capacity_per_site)
            .map(|(s, _)| *s)
            .collect();
        failed_this_round.sort();
        if failed_this_round.is_empty() {
            let unserved = if total_users > 0.0 { 1.0 - served / total_users } else { 0.0 };
            break (WeightedCdf::from_points(latency_pts), unserved.max(0.0));
        }
        withdrawn.extend(&failed_this_round);
        // The catchment's handle goes first, so the next round's
        // deployment is this one edited in place.
        drop(catchment);
        let next = Arc::make_mut(&mut dep);
        next.withdrawn.extend(failed_this_round);
        next.withdrawn.sort_unstable();
        if rounds > deployment.sites.len() + 1 {
            // Every round kills at least one site, so this is unreachable;
            // guard against accounting bugs.
            unreachable!("failure cascade did not converge");
        }
    };

    AttackOutcome {
        withdrawn_sites: withdrawn,
        // A deployment with no sites never reaches a catchment.
        latency_before: latency_before.unwrap_or_else(|| WeightedCdf::from_points(vec![])),
        latency_after,
        unserved_user_fraction: unserved,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{ExportScope, InternetGenerator, TopologyConfig};

    fn setup(n_sites: usize) -> (topology::gen::Internet, AnycastDeployment, Vec<TrafficSource>) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(111));
        let hosts = net.sample_hosters(n_sites);
        let sites: Vec<topology::AnycastSite> = hosts
            .iter()
            .enumerate()
            .map(|(i, h)| topology::AnycastSite {
                id: SiteId(i as u32),
                name: format!("s{i}"),
                host: *h,
                location: net.graph.node(*h).pops[0],
                scope: ExportScope::Global,
            })
            .collect();
        let dep = AnycastDeployment::new("ddos-test", sites, vec![]);
        let users: Vec<TrafficSource> = net
            .user_locations()
            .iter()
            .map(|l| TrafficSource {
                asn: l.asn,
                location: net.world.region(l.region).center,
                load: 1.0,
            })
            .collect();
        (net, dep, users)
    }

    fn attack_from(users: &[TrafficSource], n: usize, volume: f64) -> AttackSpec {
        AttackSpec {
            sources: users
                .iter()
                .take(n)
                .map(|u| TrafficSource { load: volume / n as f64, ..*u })
                .collect(),
        }
    }

    #[test]
    fn no_attack_no_withdrawals() {
        let (net, dep, users) = setup(4);
        let outcome = simulate_attack(
            &net.graph,
            &dep,
            &LatencyModel::default(),
            &users,
            &AttackSpec { sources: vec![] },
            1e12,
        );
        assert!(outcome.withdrawn_sites.is_empty());
        assert!(outcome.unserved_user_fraction < 1e-9);
        assert_eq!(outcome.rounds, 1);
    }

    /// Once every site has collapsed the cascade ends in a round with
    /// nothing announced: everyone unserved and no survivor latency,
    /// also when the attack alone did it (no legitimate users). The
    /// failure orders and round counts are pinned.
    #[test]
    fn overwhelming_attack_kills_everything() {
        let order = |ids: &[u32]| ids.iter().copied().map(SiteId).collect::<Vec<_>>();
        for (n, withdrawn) in [(3, order(&[0, 1, 2])), (6, order(&[0, 5, 2, 3, 1, 4]))] {
            let (net, dep, users) = setup(n);
            let total: f64 = users.iter().map(|u| u.load).sum();
            let attack = attack_from(&users, 10, total * 100.0);
            for legit in [&users[..], &[]] {
                let model = LatencyModel::default();
                // Capacity below the attack volume, however it splits.
                let outcome = simulate_attack(&net.graph, &dep, &model, legit, &attack, total);
                assert_eq!(outcome.withdrawn_sites, withdrawn);
                assert_eq!(outcome.unserved_user_fraction, 1.0);
                assert!(outcome.latency_after.is_empty());
                assert_eq!(outcome.rounds, n, "{n} sites, {} legitimate users", legit.len());
            }
        }
    }

    #[test]
    fn partial_attack_shifts_catchments_and_raises_latency() {
        let (net, dep, users) = setup(6);
        // Find the hottest site's pre-attack load and set capacity just
        // below what it would carry with a moderate attack on top —
        // guaranteeing at least one collapse while leaving headroom
        // elsewhere.
        let total: f64 = users.iter().map(|u| u.load).sum();
        let mut cache = RouteCache::new();
        let catchment = Catchment::compute(&net.graph, Arc::new(dep.clone()), &mut cache);
        let mut load: HashMap<SiteId, f64> = HashMap::default();
        for u in &users {
            if let Some(a) = catchment.assign(u.asn, &u.location) {
                *load.entry(a.site).or_default() += u.load;
            }
        }
        let max_load = load.values().fold(0.0f64, |m, v| m.max(*v));
        let attack = attack_from(&users, 3, total * 0.5);
        let outcome = simulate_attack(
            &net.graph,
            &dep,
            &LatencyModel::default(),
            &users,
            &attack,
            max_load * 1.01, // legit alone fits; legit + attack does not
        );
        assert!(!outcome.withdrawn_sites.is_empty(), "some site should collapse");
        assert!(outcome.rounds >= 2, "the cascade must iterate");
        if !outcome.latency_after.is_empty() {
            // Survivors exist and their latency did not improve.
            assert!(outcome.latency_after.median() + 1e-9 >= outcome.latency_before.median());
        } else {
            assert!((outcome.unserved_user_fraction - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn more_sites_buy_resilience() {
        // The same absolute attack against 3 vs 8 sites, with per-site
        // capacity fixed: the larger deployment must withdraw no more
        // sites and serve at least as many users.
        let (net, small, users) = setup(3);
        let (_, _, _) = (&net, &small, &users);
        let total: f64 = users.iter().map(|u| u.load).sum();
        let attack = attack_from(&users, 5, total * 1.5);
        let cap = total * 0.8;
        let model = LatencyModel::default();
        let small_out = simulate_attack(&net.graph, &small, &model, &users, &attack, cap);

        let (net2, big, users2) = setup(8);
        let attack2 = attack_from(&users2, 5, total * 1.5);
        let big_out = simulate_attack(&net2.graph, &big, &model, &users2, &attack2, cap);
        assert!(
            big_out.unserved_user_fraction <= small_out.unserved_user_fraction + 1e-9,
            "8 sites unserved {} vs 3 sites {}",
            big_out.unserved_user_fraction,
            small_out.unserved_user_fraction
        );
    }

    #[test]
    fn empty_withhold_set_is_the_served_baseline() {
        // withhold = [] is the common case, not a degenerate one: the
        // announcement reaches every neighbor, nothing collapses, and
        // the before/after pictures carry identical user volume.
        let (net, dep, users) = setup(4);
        assert!(dep.withhold.is_empty());
        let outcome = simulate_attack(
            &net.graph,
            &dep,
            &LatencyModel::default(),
            &users,
            &AttackSpec { sources: vec![] },
            1e12,
        );
        assert!(outcome.withdrawn_sites.is_empty());
        assert_eq!(outcome.rounds, 1);
        assert!(outcome.unserved_user_fraction < 1e-9);
        assert!(
            (outcome.latency_after.total_weight() - outcome.latency_before.total_weight()).abs()
                < 1e-9,
            "an attack-free run must serve exactly the baseline volume"
        );
    }

    #[test]
    fn withholding_every_neighbor_blacks_out_the_deployment() {
        // With the announcement withheld from every AS in the graph no
        // catchment forms, so even an attack-free run serves (almost)
        // nobody: the deployment did not survive.
        let (net, dep, users) = setup(4);
        let everyone: Vec<Asn> = net.graph.nodes().iter().map(|n| n.asn).collect();
        let mut blackout = AnycastDeployment::new(dep.name.clone(), dep.sites.clone(), everyone);
        blackout.origin_as = dep.origin_as;
        blackout.direct_hosts = dep.direct_hosts.clone();
        let outcome = simulate_attack(
            &net.graph,
            &blackout,
            &LatencyModel::default(),
            &users,
            &AttackSpec { sources: vec![] },
            1e12,
        );
        assert!(outcome.unserved_user_fraction >= 1e-9, "a blacked-out deployment cannot survive");
        // Nothing reached the sites, so nothing overloaded and withdrew.
        assert!(outcome.withdrawn_sites.is_empty());
        assert_eq!(outcome.rounds, 1);
    }

    #[test]
    fn single_surviving_site_conserves_volume() {
        // One site absorbing an attack it can carry: every served user
        // lands there, and served + unserved volume sums back to the
        // total user load exactly.
        let (net, dep, users) = setup(1);
        let total: f64 = users.iter().map(|u| u.load).sum();
        let attack = attack_from(&users, 4, total * 0.5);
        let outcome = simulate_attack(
            &net.graph,
            &dep,
            &LatencyModel::default(),
            &users,
            &attack,
            total * 2.0, // legit + attack both fit
        );
        assert!(outcome.withdrawn_sites.is_empty(), "the lone site must hold");
        assert_eq!(outcome.rounds, 1);
        let served = outcome.latency_after.total_weight();
        let unserved = outcome.unserved_user_fraction * total;
        assert!(
            (served + unserved - total).abs() < 1e-6,
            "volume must be conserved: served {served} + unserved {unserved} != total {total}"
        );
    }

    #[test]
    fn capacities_answer_headroom_queries() {
        let caps = SiteCapacities::from_per_site(vec![100.0, 50.0, 200.0]);
        assert_eq!(caps.len(), 3);
        assert_eq!(caps.capacity(SiteId(1)), 50.0);
        assert_eq!(caps.headroom(SiteId(0), 60.0), 40.0);

        let loads = [60.0, 55.0, 10.0];
        let all = [SiteId(0), SiteId(1), SiteId(2)];
        // Only site 1 is over (55 > 50); strictly-greater means an exact
        // fit does not trigger.
        assert_eq!(caps.first_overloaded(&loads, all), Some((SiteId(1), 55.0)));
        assert_eq!(caps.first_overloaded(&[100.0, 50.0, 200.0], all), None);
        let min = caps.min_headroom_frac(&loads, all).unwrap();
        assert!((min - (50.0 - 55.0) / 50.0).abs() < 1e-12, "got {min}");
        assert_eq!(caps.min_headroom_frac(&loads, []), None);
    }

    #[test]
    fn headroom_constructor_scales_and_floors() {
        let caps = SiteCapacities::from_headroom(&[100.0, 0.0], 1.5, 10.0);
        assert_eq!(caps.capacity(SiteId(0)), 150.0);
        assert_eq!(caps.capacity(SiteId(1)), 10.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn non_finite_capacity_panics() {
        SiteCapacities::from_per_site(vec![1.0, f64::NAN]);
    }

    #[test]
    fn headroom_floor_binds_for_idle_and_near_idle_sites() {
        // A zero-load site would get zero capacity from the factor
        // alone; the floor must bind there and wherever the scaled
        // load falls below it, while busy sites keep `load * factor`.
        let caps = SiteCapacities::from_headroom(&[0.0, 10.0, 0.5], 1.5, 2.0);
        assert_eq!(caps.capacity(SiteId(0)), 2.0, "idle site gets the floor");
        assert_eq!(caps.capacity(SiteId(1)), 15.0, "busy site scales by the factor");
        assert_eq!(caps.capacity(SiteId(2)), 2.0, "0.5 * 1.5 < floor, so the floor binds");
        assert_eq!(caps.len(), 3);
    }

    #[test]
    fn first_overloaded_prefers_the_lowest_id_when_all_exceed() {
        let caps = SiteCapacities::uniform(3, 5.0);
        let loads = [9.0, 7.0, 6.0];
        let hit = caps.first_overloaded(&loads, (0..3).map(|i| SiteId(i)));
        assert_eq!(hit, Some((SiteId(0), 9.0)), "ascending iteration makes the lowest id win");
        // Iteration order is the caller's: a reversed walk reports the
        // highest id instead — the table itself imposes no preference.
        let rev = caps.first_overloaded(&loads, (0..3).rev().map(|i| SiteId(i)));
        assert_eq!(rev, Some((SiteId(2), 6.0)));
    }

    #[test]
    fn empty_site_sets_have_no_overload_and_no_headroom() {
        let caps = SiteCapacities::uniform(3, 5.0);
        assert_eq!(caps.first_overloaded(&[9.0, 9.0, 9.0], std::iter::empty()), None);
        assert_eq!(caps.min_headroom_frac(&[9.0, 9.0, 9.0], std::iter::empty()), None);
        // Loads at exactly capacity are *not* overloaded: the drain
        // abort trigger is strict.
        assert_eq!(caps.first_overloaded(&[5.0, 5.0, 5.0], (0..3).map(SiteId)), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let (net, dep, users) = setup(2);
        simulate_attack(
            &net.graph,
            &dep,
            &LatencyModel::default(),
            &users,
            &AttackSpec { sources: vec![] },
            0.0,
        );
    }
}
