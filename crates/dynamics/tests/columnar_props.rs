//! Property tests for the columnar million-user core: random
//! flap/drain/swap/surge/peering gauntlets over a 50k-user expanded population
//! must keep the incremental slice-invalidation path record-for-record
//! equal to the full-recompute oracle, conserve users, and keep the
//! recompute ledger balanced (`recomputed + reused = population`) —
//! with or without a load controller acting in the loop.

mod common;

use anycast_dynamics::{
    expand_counts, DynUser, DynamicsEngine, RecomputeMode, RoutingEvent, Scenario,
};
use analysis::SiteCapacities;
use cdn::Cdn;
use common::swap_set;
use loadmgmt::HysteresisController;
use netsim::{LatencyModel, SimTime};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use topology::gen::Internet;
use topology::{Asn, SiteId};

const POPULATION: usize = 50_000;

/// One shared world: building the topology dominates a proptest case,
/// so all cases replay scenarios over the same (immutable) internet.
/// The expansion counts are likewise shared — they are a pure function
/// of the (uniform) source weights.
fn world() -> &'static (Internet, Cdn, Vec<DynUser>, Vec<u32>) {
    static WORLD: OnceLock<(Internet, Cdn, Vec<DynUser>, Vec<u32>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let (net, cdn, users) = common::cdn_world(131);
        let counts =
            expand_counts(&users.iter().map(|u| u.weight).collect::<Vec<_>>(), POPULATION, 2021);
        (net, cdn, users, counts)
    })
}

fn engine(ring: usize, mode: RecomputeMode) -> DynamicsEngine<'static> {
    let (net, cdn, users, counts) = world();
    DynamicsEngine::new_expanded(
        &net.graph,
        Arc::clone(&cdn.rings[ring].deployment),
        LatencyModel::default(),
        users,
        counts,
        2021,
        mode,
    )
    .with_swap_set(swap_set(cdn), ring)
}

/// Peering-event targets: the four sessions into the CDN's host AS
/// that carry the most users (losing one reroutes them) followed by two
/// ASes it has no session with (losing one must leave every route
/// untouched).
fn peers() -> &'static [Asn] {
    static PEERS: OnceLock<Vec<Asn>> = OnceLock::new();
    PEERS.get_or_init(|| {
        let (net, cdn, _, _) = world();
        let g = &net.graph;
        let host = g.idx(cdn.rings[0].deployment.sites[0].host);
        let adjacent: Vec<usize> = g.adjacency(host).iter().map(|a| a.neighbor).collect();
        let busiest = engine(2, RecomputeMode::Incremental).transit_loads();
        let remote = (0..g.len()).filter(|i| *i != host && !adjacent.contains(i)).take(2);
        busiest
            .into_iter()
            .take(4)
            .map(|(a, _)| a)
            .chain(remote.map(|i| g.node_at(i).asn))
            .collect()
    })
}

/// Raw generated step: (kind, site selector, ring selector, second).
/// Selectors are reduced modulo the world's actual sizes in the test
/// body so the strategy stays independent of the topology scale.
type Step = (u8, u32, u32, u32);

fn scenario_from(steps: &[Step]) -> Scenario {
    let (_, cdn, _, _) = world();
    let n_rings = cdn.rings.len() as u32;
    // Sites of the smallest ring exist in every ring, so targeting
    // them is valid whatever deployment a prior swap left effective.
    let n_min = cdn.rings[0].deployment.sites.len() as u32;
    let mut s = Scenario::new("columnar-prop");
    for &(kind, site, ring, sec) in steps {
        let peer = peers()[site as usize % peers().len()];
        let site = SiteId(site % n_min);
        let to = ring % n_rings;
        let t = SimTime::from_secs(f64::from(sec));
        s = match kind % 9 {
            0 => s.at(t, RoutingEvent::RingPromote { to }),
            1 => s.at(t, RoutingEvent::RingDemote { to }),
            2 => s.at(t, RoutingEvent::SiteDown(site)),
            3 => s.at(t, RoutingEvent::SiteUp(site)),
            4 => s.at(
                t,
                RoutingEvent::DrainStart {
                    site,
                    stage_ms: 20_000.0,
                    stages: 2,
                    hold_ms: 40_000.0,
                },
            ),
            5 => s.at(t, surge(site, ring)),
            6 => s.at(t, RoutingEvent::LoadTick),
            7 => s.at(t, RoutingEvent::PeeringDown(peer)),
            _ => s.at(t, RoutingEvent::PeeringUp(peer)),
        };
    }
    s
}

/// A regional demand surge centred on one of the smallest ring's sites
/// (a pure function of the step tuple, factors clear of 1.0 both ways).
fn surge(site: SiteId, ring: u32) -> RoutingEvent {
    let (_, cdn, _, _) = world();
    RoutingEvent::DemandScale {
        center: cdn.rings[0].deployment.sites[site.0 as usize].location,
        radius_km: 2_500.0 + f64::from(ring % 4) * 1_500.0,
        factor: if ring % 2 == 0 { 1.2 + f64::from(ring % 8) * 0.2 } else { 0.7 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incremental columnar path must be indistinguishable from
    /// the full-recompute oracle under arbitrary churn at 50k expanded
    /// users: every epoch record field-for-field equal, every per-user
    /// row equal, users conserved, and the recompute ledger balanced.
    #[test]
    fn columnar_incremental_matches_oracle_at_50k_users(
        steps in proptest::collection::vec((0u8..9, 0u32..64, 0u32..8, 1u32..30), 1..8)
    ) {
        let mut inc = engine(2, RecomputeMode::Incremental);
        let mut full = engine(2, RecomputeMode::Full);
        prop_assert_eq!(inc.population(), POPULATION);
        let scenario = scenario_from(&steps);
        let ti = inc.run(&scenario);
        let tf = full.run(&scenario);
        prop_assert_eq!(ti.records.len(), tf.records.len());
        for (a, b) in ti.records.iter().zip(&tf.records) {
            prop_assert_eq!(a.t_ms, b.t_ms);
            prop_assert_eq!(&a.event, &b.event);
            prop_assert_eq!(a.shifted, b.shifted, "at {}", a.event);
            prop_assert_eq!(a.shifted_frac, b.shifted_frac, "at {}", a.event);
            prop_assert_eq!(a.unserved_frac, b.unserved_frac, "at {}", a.event);
            prop_assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
            prop_assert_eq!(a.inflation_ms, b.inflation_ms, "at {}", a.event);
            prop_assert_eq!(a.mean_path_km, b.mean_path_km, "at {}", a.event);
            prop_assert_eq!(a.convergence_ms, b.convergence_ms, "at {}", a.event);
            prop_assert_eq!(a.degraded_queries, b.degraded_queries, "at {}", a.event);
            prop_assert_eq!(&a.note, &b.note, "at {}", a.event);
            // Ledger identity, epoch by epoch, in user units.
            prop_assert_eq!(a.recomputed + a.reused, POPULATION as u64, "at {}", a.event);
            prop_assert_eq!(b.recomputed, POPULATION as u64, "the oracle reuses nothing");
        }
        // User conservation and row-level equality: the 50k columnar
        // rows of both engines agree user by user.
        let si = inc.user_snapshot();
        let sf = full.user_snapshot();
        prop_assert_eq!(si.len(), POPULATION, "user rows are conserved");
        prop_assert_eq!(si, sf, "incremental rows equal the oracle's");
        // Sampled spot-check against the engine's own ledger: the
        // invalidation never claims to check more users than a scan.
        let (slice, scan) = inc.invalidation_ledger();
        prop_assert!(slice <= scan, "slice {} cannot exceed scan {}", slice, scan);
    }

    /// The same contract with a hysteresis controller in the loop:
    /// shed/release rounds are part of the deterministic replay, so
    /// the incremental engine must still match the oracle record for
    /// record (and ledger for ledger) under churn plus surges plus
    /// controller action.
    #[test]
    fn columnar_incremental_matches_oracle_under_controller_rounds(
        steps in proptest::collection::vec((0u8..9, 0u32..64, 0u32..8, 1u32..30), 1..8)
    ) {
        // Swap events are out of the alphabet here: capacities and
        // swap sets are mutually exclusive engine features, so the
        // load engine maps them onto flaps instead.
        let steps: Vec<Step> = steps
            .iter()
            .map(|&(kind, site, ring, sec)| match kind % 9 {
                0 => (2u8, site, ring, sec),
                1 => (3u8, site, ring, sec),
                k => (k, site, ring, sec),
            })
            .collect();
        let mut inc = load_engine(RecomputeMode::Incremental);
        let mut full = load_engine(RecomputeMode::Full);
        // Guaranteed observation points so the controller always gets
        // rounds, whatever the generated alphabet rolled.
        let scenario = scenario_from(&steps).ticks(SimTime::from_secs(40.0), 20_000.0, 6);
        let ti = inc.run(&scenario);
        let tf = full.run(&scenario);
        prop_assert_eq!(ti.records.len(), tf.records.len());
        for (a, b) in ti.records.iter().zip(&tf.records) {
            // Everything observable must match; the recomputed/reused
            // split is the two modes' one intended difference.
            prop_assert_eq!(a.t_ms, b.t_ms);
            prop_assert_eq!(&a.event, &b.event);
            prop_assert_eq!(a.shifted, b.shifted, "at {}", a.event);
            prop_assert_eq!(a.unserved_frac, b.unserved_frac, "at {}", a.event);
            prop_assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
            prop_assert_eq!(a.degraded_queries, b.degraded_queries, "at {}", a.event);
            prop_assert_eq!(a.headroom_frac, b.headroom_frac, "at {}", a.event);
            prop_assert_eq!(&a.note, &b.note, "at {}", a.event);
            prop_assert_eq!(a.recomputed + a.reused, POPULATION as u64, "at {}", a.event);
        }
        // Rounds count only effective (shedding/releasing) decisions,
        // so a gentle case can leave them at zero — what must hold is
        // that both modes agree on every ledger entry, bit for bit.
        let (li, lf) = (inc.load_ledger(), full.load_ledger());
        prop_assert_eq!(li.controller_rounds, lf.controller_rounds);
        prop_assert_eq!(li.shed_users.to_bits(), lf.shed_users.to_bits());
        prop_assert_eq!(li.released_users.to_bits(), lf.released_users.to_bits());
        prop_assert_eq!(li.overload_user_ms.to_bits(), lf.overload_user_ms.to_bits());
        prop_assert_eq!(inc.user_snapshot(), full.user_snapshot());
    }
}

/// An expanded engine over the third ring with tight capacities and a
/// hysteresis controller — no swap set (capacities exclude one).
fn load_engine(mode: RecomputeMode) -> DynamicsEngine<'static> {
    let (net, cdn, users, counts) = world();
    let eng = DynamicsEngine::new_expanded(
        &net.graph,
        Arc::clone(&cdn.rings[2].deployment),
        LatencyModel::default(),
        users,
        counts,
        2021,
        mode,
    );
    let caps = SiteCapacities::from_headroom(&eng.site_loads(), 1.05, 1.0);
    eng.with_capacities(caps).with_controller(Box::new(HysteresisController::default()))
}
