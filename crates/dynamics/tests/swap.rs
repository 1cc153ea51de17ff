//! Deployment-swap integration tests over a real nested-ring CDN:
//! the incremental engine against the full-recompute oracle on
//! swap-heavy scenarios, plus the edge cases of the swap semantics —
//! mid-drain demotions, same-epoch promote+demote cancellation, and
//! identical-ring no-ops.

mod common;

use anycast_dynamics::{DynUser, DynamicsEngine, RecomputeMode, RoutingEvent, Scenario};
use cdn::Cdn;
use common::swap_set;
use netsim::{LatencyModel, SimTime};
use std::sync::Arc;
use topology::gen::Internet;
use topology::{Asn, ExportScope, SiteId};

/// A small world with the five nested rings (scale 0.12: sizes
/// 3/6/9/11/13, matching the determinism suite's scale).
fn cdn_world() -> (Internet, Cdn, Vec<DynUser>) {
    common::cdn_world(131)
}

fn engine<'g>(
    net: &'g Internet,
    cdn: &Cdn,
    ring: usize,
    users: &[DynUser],
    mode: RecomputeMode,
) -> DynamicsEngine<'g> {
    DynamicsEngine::new(
        &net.graph,
        Arc::clone(&cdn.rings[ring].deployment),
        LatencyModel::default(),
        users.to_vec(),
        mode,
    )
    .with_swap_set(swap_set(cdn), ring)
}

/// The oracle: after every epoch of a scenario mixing promotions,
/// demotions, site churn, and a drain, the incremental engine matches
/// a from-scratch full recompute field-for-field (`recomputed` /
/// `reused` excepted — differing is their whole point) and lands in a
/// byte-identical final per-user state, while provably reusing work.
#[test]
fn incremental_matches_full_oracle_across_swaps() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    let r95 = cdn.ring_index("R95").unwrap();
    let r110 = cdn.ring_index("R110").unwrap();
    let scenario = Scenario::new("swap-heavy")
        .at(SimTime::from_secs(60.0), RoutingEvent::RingPromote { to: r95 as u32 })
        .at(SimTime::from_secs(120.0), RoutingEvent::SiteDown(SiteId(0)))
        .at(SimTime::from_secs(180.0), RoutingEvent::SiteUp(SiteId(0)))
        .at(
            SimTime::from_secs(240.0),
            RoutingEvent::DrainStart {
                site: SiteId(1),
                stage_ms: 30_000.0,
                stages: 2,
                hold_ms: 120_000.0,
            },
        )
        // Demote mid-hold: SiteId(1) survives into R74, so the drain
        // carries across the swap and its end stays live.
        .at(SimTime::from_secs(300.0), RoutingEvent::RingDemote { to: r74 as u32 })
        .at(SimTime::from_secs(500.0), RoutingEvent::RingPromote { to: r110 as u32 })
        .at(SimTime::from_secs(560.0), RoutingEvent::RingDemote { to: r74 as u32 });

    let mut inc = engine(&net, &cdn, r74, &users, RecomputeMode::Incremental);
    let mut full = engine(&net, &cdn, r74, &users, RecomputeMode::Full);
    let ti = inc.run(&scenario);
    let tf = full.run(&scenario);

    assert_eq!(ti.records.len(), tf.records.len());
    for (a, b) in ti.records.iter().zip(&tf.records) {
        assert_eq!(a.t_ms, b.t_ms);
        assert_eq!(a.event, b.event);
        assert_eq!(a.shifted, b.shifted, "at {}", a.event);
        assert_eq!(a.shifted_frac, b.shifted_frac, "at {}", a.event);
        assert_eq!(a.unserved_frac, b.unserved_frac, "at {}", a.event);
        assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
        assert_eq!(a.inflation_ms, b.inflation_ms, "at {}", a.event);
        assert_eq!(a.mean_path_km, b.mean_path_km, "at {}", a.event);
        assert_eq!(a.convergence_ms, b.convergence_ms, "at {}", a.event);
        assert_eq!(a.degraded_queries, b.degraded_queries, "at {}", a.event);
        assert_eq!(a.headroom_frac, b.headroom_frac, "at {}", a.event);
        assert_eq!(a.note, b.note, "at {}", a.event);
    }
    assert_eq!(inc.user_snapshot(), full.user_snapshot(), "final states must agree");
    assert_eq!(inc.current_swap(), r74);
    assert_eq!(inc.deployment().name, "R74");

    let (inc_rc, inc_ru) = ti.recompute_totals();
    let (full_rc, full_ru) = tf.recompute_totals();
    assert_eq!(full_ru, 0, "the oracle reuses nothing");
    assert!(inc_ru > 0, "swap epochs must reuse assignments, got 0");
    assert!(inc_rc < full_rc, "incremental {inc_rc} must beat full {full_rc}");
}

/// A demotion that removes a site mid-staged-drain cancels the drain
/// (ledgered) and leaves the drain's queued follow-ups as recorded
/// stale no-ops.
#[test]
fn demotion_cancels_drain_of_departing_site() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    let r95 = cdn.ring_index("R95").unwrap();
    let n74 = cdn.rings[r74].deployment.sites.len();
    let n95 = cdn.rings[r95].deployment.sites.len();
    assert!(n95 > n74, "R95 must strictly contain R74 at this scale");
    // A site of R95 that is not in R74: the first beyond R74's prefix.
    let departing = SiteId(n74 as u32);

    let scenario = Scenario::new("demote-mid-drain")
        // Stages fire at 10 s, 40 s, 70 s, 100 s.
        .at(
            SimTime::from_secs(10.0),
            RoutingEvent::DrainStart {
                site: departing,
                stage_ms: 30_000.0,
                stages: 4,
                hold_ms: 300_000.0,
            },
        )
        .at(SimTime::from_secs(75.0), RoutingEvent::RingDemote { to: r74 as u32 });

    let mut e = engine(&net, &cdn, r95, &users, RecomputeMode::Incremental);
    let t = e.run(&scenario);

    let demote = t
        .records
        .iter()
        .find(|r| r.t_ms == 75_000.0)
        .expect("demotion epoch recorded");
    assert!(demote.event.contains("demote R74"), "got {:?}", demote.event);
    assert!(
        demote.note.contains(&format!("drain on {departing} cancelled: site left")),
        "got {:?}",
        demote.note
    );
    // The stage queued for t = 100 s outlives its drain: stale no-op.
    let stale = t
        .records
        .iter()
        .find(|r| r.t_ms == 100_000.0)
        .expect("queued stage still fires");
    assert!(
        stale.note.contains(&format!("stale drain-stage for {departing} ignored")),
        "got {:?}",
        stale.note
    );
    assert_eq!(stale.shifted, 0.0, "a stale stage moves nobody");
    // No drain survives, so no drain-end is pending: the demotion shrank
    // the deployment and the engine is in a clean R74 steady state.
    assert_eq!(e.deployment().sites.len(), n74);
    assert_eq!(e.current_swap(), r74);
}

/// A demotion re-ranks exactly the users whose front-end left the
/// ring: the group diff sees each departed site as a removal, and the
/// site-diff rule re-ranks its users and nobody else.
#[test]
fn demotion_recomputes_exactly_the_users_of_departed_sites() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    let r95 = cdn.ring_index("R95").unwrap();
    let n74 = cdn.rings[r74].deployment.sites.len();
    let mut e = engine(&net, &cdn, r95, &users, RecomputeMode::Incremental);
    let departed = e
        .user_snapshot()
        .iter()
        .filter(|(site, _, _)| site.is_some_and(|s| s.0 as usize >= n74))
        .count() as u64;
    assert!(departed > 0, "R95's extra sites must serve someone at this scale");

    let scenario = Scenario::new("demote")
        .at(SimTime::from_secs(30.0), RoutingEvent::RingDemote { to: r74 as u32 });
    let t = e.run(&scenario);

    let rec = &t.records[1];
    assert_eq!(rec.event, "demote R74");
    assert_eq!(rec.recomputed, departed);
}

/// A same-`SimTime` promote+demote pair targeting one ring cancels
/// into a recorded no-op epoch: nothing recomputes, nothing moves.
#[test]
fn same_epoch_promote_demote_pair_cancels() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    let r95 = cdn.ring_index("R95").unwrap();
    let mut e = engine(&net, &cdn, r74, &users, RecomputeMode::Incremental);
    let before = e.user_snapshot();

    let t0 = SimTime::from_secs(30.0);
    let scenario = Scenario::new("ring-flap")
        .at(t0, RoutingEvent::RingPromote { to: r95 as u32 })
        .at(t0, RoutingEvent::RingDemote { to: r95 as u32 });
    let t = e.run(&scenario);

    assert_eq!(t.records.len(), 2, "init + the cancelled epoch");
    let rec = &t.records[1];
    assert_eq!(rec.event, "ring-flap R95");
    assert!(rec.note.contains("promote and demote to R95 cancel (no-op)"), "got {:?}", rec.note);
    assert_eq!(rec.recomputed, 0, "a cancelled pair must not recompute anyone");
    assert_eq!(rec.shifted, 0.0);
    assert_eq!(e.user_snapshot(), before, "state is untouched");
    assert_eq!(e.current_swap(), r74);
}

/// A swap targeting the currently effective ring is a ledgered no-op:
/// recorded, counted, zero recomputes.
#[test]
fn swap_to_identical_ring_is_ledgered_noop() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    let mut e = engine(&net, &cdn, r74, &users, RecomputeMode::Incremental);
    let before = e.user_snapshot();

    let scenario = Scenario::new("self-swap")
        .at(SimTime::from_secs(30.0), RoutingEvent::RingPromote { to: r74 as u32 });
    let t = e.run(&scenario);

    assert_eq!(t.records.len(), 2);
    let rec = &t.records[1];
    assert_eq!(rec.event, "promote R74");
    assert!(
        rec.note.contains("swap to the current ring R74 (ledgered no-op)"),
        "got {:?}",
        rec.note
    );
    assert_eq!(rec.recomputed, 0);
    assert_eq!(rec.shifted, 0.0);
    assert_eq!(e.user_snapshot(), before);
    assert_eq!(e.current_swap(), r74);
}

/// When several swaps share an epoch, the last (demotes, then
/// promotes) wins and the earlier ones are recorded as superseded —
/// the epoch still lands on exactly one deployment.
#[test]
fn last_swap_in_an_epoch_wins() {
    let (net, cdn, users) = cdn_world();
    let r28 = cdn.ring_index("R28").unwrap();
    let r74 = cdn.ring_index("R74").unwrap();
    let r110 = cdn.ring_index("R110").unwrap();
    let mut e = engine(&net, &cdn, r74, &users, RecomputeMode::Incremental);

    let t0 = SimTime::from_secs(30.0);
    let scenario = Scenario::new("pile-up")
        .at(t0, RoutingEvent::RingDemote { to: r28 as u32 })
        .at(t0, RoutingEvent::RingPromote { to: r110 as u32 });
    let t = e.run(&scenario);

    let rec = &t.records[1];
    assert_eq!(rec.event, "demote R28 + promote R110");
    assert!(rec.note.contains("demote to R28 superseded"), "got {:?}", rec.note);
    assert_eq!(e.current_swap(), r110);
    assert_eq!(e.deployment().name, "R110");
}

/// Swap events without a registered swap set are a scenario bug, not
/// silently ignorable.
#[test]
#[should_panic(expected = "swap set")]
fn swap_without_swap_set_panics() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    // No with_swap_set.
    let mut e = DynamicsEngine::new(
        &net.graph,
        Arc::clone(&cdn.rings[r74].deployment),
        LatencyModel::default(),
        users,
        RecomputeMode::Incremental,
    );
    let scenario = Scenario::new("orphan-swap")
        .at(SimTime::from_secs(1.0), RoutingEvent::RingPromote { to: 0 });
    e.run(&scenario);
}

/// Capacities and swap sets are mutually exclusive in both orders.
#[test]
#[should_panic(expected = "capacities")]
fn swap_set_after_capacities_panics() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    let n = cdn.rings[r74].deployment.sites.len();
    let caps = analysis::SiteCapacities::uniform(n, 1e9);
    let _ = DynamicsEngine::new(
        &net.graph,
        Arc::clone(&cdn.rings[r74].deployment),
        LatencyModel::default(),
        users,
        RecomputeMode::Incremental,
    )
    .with_capacities(caps)
    .with_swap_set(swap_set(&cdn), r74);
}

/// The other order of the exclusion: capacities after a swap set.
#[test]
#[should_panic(expected = "capacities")]
fn capacities_after_swap_set_panics() {
    let (net, cdn, users) = cdn_world();
    let r74 = cdn.ring_index("R74").unwrap();
    let n = cdn.rings[r74].deployment.sites.len();
    let caps = analysis::SiteCapacities::uniform(n, 1e9);
    let _ = DynamicsEngine::new(
        &net.graph,
        Arc::clone(&cdn.rings[r74].deployment),
        LatencyModel::default(),
        users,
        RecomputeMode::Incremental,
    )
    .with_swap_set(swap_set(&cdn), r74)
    .with_capacities(caps);
}

/// Registers the swap set `[R74, R95]` on an R74 engine, with R95
/// changed by `alter` first.
fn register_altered_r95(alter: impl FnOnce(&mut topology::AnycastDeployment)) {
    let (net, cdn, users) = cdn_world();
    let own = Arc::clone(&cdn.rings[cdn.ring_index("R74").unwrap()].deployment);
    let mut r95 = (*cdn.rings[cdn.ring_index("R95").unwrap()].deployment).clone();
    alter(&mut r95);
    let _ = DynamicsEngine::new(
        &net.graph,
        Arc::clone(&own),
        LatencyModel::default(),
        users,
        RecomputeMode::Incremental,
    )
    .with_swap_set(vec![own, Arc::new(r95)], 0);
}

/// Swap entries must be nested prefixes of one site list: an entry
/// that puts a different front-end under a shared site id is rejected
/// at registration, before any swap could carry state to the wrong
/// site.
#[test]
#[should_panic(expected = "nested prefixes")]
fn non_nested_swap_set_panics() {
    // R95 with its first two front-ends' locations exchanged.
    register_altered_r95(|d| {
        let (a, b) = (d.sites[0].location, d.sites[1].location);
        d.sites[0].location = b;
        d.sites[1].location = a;
    });
}

/// The engine routes over the widest entry, so a shared site must
/// carry the same announcement scope in every entry.
#[test]
#[should_panic(expected = "nested prefixes")]
fn swap_set_disagreeing_on_a_site_scope_panics() {
    register_altered_r95(|d| {
        d.sites[0].scope = match d.sites[0].scope {
            ExportScope::Global => ExportScope::Local,
            ExportScope::Local => ExportScope::Global,
        };
    });
}

/// Every entry must withhold the same sessions as the widest one.
#[test]
#[should_panic(expected = "share one announcement")]
fn swap_set_disagreeing_on_withhold_panics() {
    register_altered_r95(|d| d.withhold.push(Asn(1)));
}

/// Every entry must announce from the same origin AS as the widest one.
#[test]
#[should_panic(expected = "share one announcement")]
fn swap_set_disagreeing_on_origin_as_panics() {
    register_altered_r95(|d| d.origin_as = if d.origin_as.is_some() { None } else { Some(Asn(1)) });
}

/// Every entry must name the same direct hosts as the widest one.
#[test]
#[should_panic(expected = "share one announcement")]
fn swap_set_disagreeing_on_direct_hosts_panics() {
    register_altered_r95(|d| d.direct_hosts.push(Asn(1)));
}
