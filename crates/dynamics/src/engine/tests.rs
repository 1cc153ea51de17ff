use super::*;
use topology::{AnycastSite, ExportScope, InternetGenerator, TopologyConfig};

fn world(n_sites: usize) -> (topology::gen::Internet, Arc<AnycastDeployment>, Vec<DynUser>) {
    let mut net = InternetGenerator::generate(&TopologyConfig::small(111));
    let hosts = net.sample_hosters(n_sites);
    let sites: Vec<AnycastSite> = hosts
        .iter()
        .enumerate()
        .map(|(i, h)| AnycastSite {
            id: SiteId(i as u32),
            name: format!("s{i}"),
            host: *h,
            location: net.graph.node(*h).pops[0],
            scope: ExportScope::Global,
        })
        .collect();
    let dep = AnycastDeployment::new("dyn-test", sites, vec![]);
    let users: Vec<DynUser> = net
        .user_locations()
        .iter()
        .map(|l| DynUser {
            asn: l.asn,
            location: net.world.region(l.region).center,
            weight: 1.0,
            queries_per_day: 1_000.0,
        })
        .collect();
    (net, Arc::new(dep), users)
}

fn engine<'g>(
    net: &'g topology::gen::Internet,
    dep: &Arc<AnycastDeployment>,
    users: &[DynUser],
    mode: RecomputeMode,
) -> DynamicsEngine<'g> {
    DynamicsEngine::new(
        &net.graph,
        Arc::clone(dep),
        LatencyModel::default(),
        users.to_vec(),
        mode,
    )
}

fn hottest_site(e: &DynamicsEngine<'_>) -> SiteId {
    let loads = e.site_loads();
    let i = loads
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    SiteId(i as u32)
}

/// The incremental path must match the full-recompute oracle on
/// every metric of every epoch, while provably reusing work.
#[test]
fn incremental_matches_full_recompute() {
    let (net, dep, users) = world(4);
    let mut inc = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let mut full = engine(&net, &dep, &users, RecomputeMode::Full);
    let target = hottest_site(&inc);
    let scenario =
        Scenario::site_flap("flap", target, SimTime::from_secs(60.0), 600_000.0, 3, 30_000.0, 7);
    let ti = inc.run(&scenario);
    let tf = full.run(&scenario);
    assert_eq!(ti.records.len(), tf.records.len());
    for (a, b) in ti.records.iter().zip(&tf.records) {
        assert_eq!(a.t_ms, b.t_ms);
        assert_eq!(a.event, b.event);
        assert_eq!(a.shifted, b.shifted, "at {}", a.event);
        assert_eq!(a.unserved_frac, b.unserved_frac, "at {}", a.event);
        assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
        assert_eq!(a.mean_path_km, b.mean_path_km, "at {}", a.event);
        assert_eq!(a.convergence_ms, b.convergence_ms, "at {}", a.event);
        assert_eq!(a.degraded_queries, b.degraded_queries, "at {}", a.event);
        assert_eq!(a.note, b.note, "at {}", a.event);
    }
    let (inc_rc, inc_ru) = ti.recompute_totals();
    let (full_rc, full_ru) = tf.recompute_totals();
    assert_eq!(full_ru, 0, "the oracle reuses nothing");
    assert!(inc_ru > 0, "the incremental path must reuse some assignments");
    assert!(inc_rc < full_rc, "incremental {inc_rc} must beat full {full_rc}");
    // The flap moved somebody, both ways.
    assert!(ti.max_shifted_frac() > 0.0);
}

/// A capacity dip moves no users (announcements are untouched) but
/// must show up in the headroom ledger, and the reciprocal restore
/// must land headroom back where it started.
#[test]
fn capacity_scale_changes_headroom_not_assignments() {
    let (net, dep, users) = world(4);
    let total: f64 = users.iter().map(|u| u.weight).sum();
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(SiteCapacities::uniform(dep.sites.len(), total));
    let target = hottest_site(&e);
    let before = e.user_snapshot();
    let init_headroom = e.init_record().headroom_frac.unwrap();
    // The hottest site loses three quarters of its capacity at 10 s and
    // gets it back (the reciprocal factor) 60 s later.
    let s = Scenario::new("dip")
        .at(SimTime::from_secs(10.0), RoutingEvent::CapacityScale { site: target, factor: 0.25 })
        .at(SimTime::from_secs(70.0), RoutingEvent::CapacityScale { site: target, factor: 4.0 });
    let t = e.run(&s);
    assert_eq!(t.records.len(), 3);
    let dip = &t.records[1];
    assert_eq!(dip.event, format!("cap {target} x0.25"));
    assert_eq!(dip.shifted, 0.0, "capacity moves no announcements");
    assert!(
        dip.headroom_frac.unwrap() < init_headroom,
        "shrinking the hottest site's capacity must shrink worst headroom"
    );
    let back = t.records.last().unwrap();
    assert!(
        (back.headroom_frac.unwrap() - init_headroom).abs() < 1e-9,
        "reciprocal restore lands headroom back"
    );
    assert_eq!(e.user_snapshot(), before, "assignments untouched throughout");
}

/// Without a capacity table the event has nothing to scale: it must
/// be a recorded no-op, not a panic or a silent drop.
#[test]
fn capacity_scale_without_capacities_is_recorded_noop() {
    let (net, dep, users) = world(3);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let before = e.user_snapshot();
    let s = Scenario::new("nocaps").at(
        SimTime::from_secs(5.0),
        RoutingEvent::CapacityScale { site: SiteId(0), factor: 0.5 },
    );
    let t = e.run(&s);
    let r = &t.records[1];
    assert_eq!(r.event, "cap site-0 x0.50");
    assert!(r.note.contains("ignored"), "the no-op must be recorded: {}", r.note);
    assert_eq!(e.user_snapshot(), before);
}

/// Swapping the policy mid-run keeps the run consistent: the second
/// half runs under the new controller and the ledger keeps
/// accruing. Swapping NullController in must leave decisions off.
#[test]
fn set_controller_swaps_policy_mid_run() {
    let (net, dep, users) = world(4);
    let total: f64 = users.iter().map(|u| u.weight).sum();
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(SiteCapacities::uniform(dep.sites.len(), total * 0.40))
        .with_controller(Box::new(loadmgmt::NullController));
    let target = hottest_site(&e);
    let scenario = Scenario::site_flap(
        "ctl-swap",
        target,
        SimTime::from_secs(30.0),
        120_000.0,
        1,
        0.0,
        3,
    )
    .ticks(SimTime::from_secs(200.0), 30_000.0, 4);
    let mut stepper = EpochStepper::new(&e, &scenario);
    // Run the flap under Null, then hand over to the distributed
    // policy for the tick tail.
    let mut stepped = 0;
    while stepper.next_time().is_some_and(|t| t.as_secs() < 200.0) {
        assert!(stepper.step(&mut e));
        stepped += 1;
    }
    assert!(stepped >= 2, "the flap must have applied under Null");
    let rounds_before = e.load_ledger().controller_rounds;
    assert_eq!(rounds_before, 0, "NullController never acts");
    e.set_controller(Some(Box::new(loadmgmt::HysteresisController::new(0.8))));
    while stepper.step(&mut e) {}
    let t = stepper.finish(&mut e);
    assert!(t.records.len() >= 7);
    // The handover itself must not corrupt determinism: a second
    // identical run produces identical rows.
    let mut e2 = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(SiteCapacities::uniform(dep.sites.len(), total * 0.40))
        .with_controller(Box::new(loadmgmt::NullController));
    let mut st2 = EpochStepper::new(&e2, &scenario);
    while st2.next_time().is_some_and(|t| t.as_secs() < 200.0) {
        st2.step(&mut e2);
    }
    e2.set_controller(Some(Box::new(loadmgmt::HysteresisController::new(0.8))));
    while st2.step(&mut e2) {}
    assert_eq!(st2.finish(&mut e2).rows(), t.rows());
}

#[test]
#[should_panic(expected = "with_capacities")]
fn set_controller_without_capacities_panics() {
    let (net, dep, users) = world(3);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    e.set_controller(Some(Box::new(loadmgmt::NullController)));
}

#[test]
fn a_negative_or_non_finite_query_volume_panics() {
    let (net, dep, users) = world(3);
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        for (field, set) in [
            ("query volume", (|u, v| u.queries_per_day = v) as fn(&mut DynUser, f64)),
            ("weight", |u, v| u.weight = v),
        ] {
            let mut users = users.clone();
            set(&mut users[0], bad);
            let built = std::panic::catch_unwind(|| {
                engine(&net, &dep, &users, RecomputeMode::Incremental);
            });
            assert!(built.is_err(), "a {field} of {bad} must be rejected");
        }
    }
}

#[test]
fn flap_recovers_to_initial_state() {
    let (net, dep, users) = world(4);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let target = hottest_site(&e);
    let init_median = e.init_record().median_ms;
    let scenario =
        Scenario::site_flap("flap", target, SimTime::from_secs(10.0), 120_000.0, 1, 0.0, 3);
    let t = e.run(&scenario);
    // init, down, up.
    assert_eq!(t.records.len(), 3);
    let down = &t.records[1];
    assert!(down.shifted > 0.0, "the hottest site's users must move");
    let up = &t.records[2];
    assert_eq!(up.median_ms, init_median, "recovery restores the steady state");
    assert_eq!(up.unserved_frac, t.records[0].unserved_frac);
}

#[test]
fn drain_schedules_its_own_end() {
    // stages = 1 degenerates to the old binary drain: start downs
    // the site immediately, end restores it hold_ms later.
    let (net, dep, users) = world(3);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let sites: Vec<SiteId> = (0..3).map(SiteId).collect();
    let scenario = Scenario::rolling_drain(
        "mnt",
        &sites,
        SimTime::from_secs(5.0),
        10_000.0,
        1,
        60_000.0,
        90_000.0,
    );
    let t = e.run(&scenario);
    // init + 3 starts + 3 ends.
    assert_eq!(t.records.len(), 7);
    assert_eq!(t.records.iter().filter(|r| r.event.starts_with("drain-end")).count(), 3);
    let last = t.records.last().unwrap();
    assert_eq!(last.unserved_frac, t.records[0].unserved_frac, "drains all end");
    // Staggered one-at-a-time: never more than one site down, so
    // nothing is ever unserved beyond the steady state.
    assert!(t.records.iter().all(|r| r.unserved_frac <= t.records[0].unserved_frac + 1e-12));
}

#[test]
fn killing_every_site_unserves_everyone_then_recovers() {
    // Three simultaneous failures form exactly ONE batched epoch.
    let (net, dep, users) = world(3);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let mut s = Scenario::new("blackout");
    for i in 0..3 {
        s = s.at(SimTime::from_secs(1.0), RoutingEvent::SiteDown(SiteId(i)));
    }
    s = s.at(SimTime::from_secs(2.0), RoutingEvent::SiteUp(SiteId(0)));
    let t = e.run(&s);
    // init + one batched blackout epoch + recovery.
    assert_eq!(t.records.len(), 3);
    let dark = &t.records[1];
    assert_eq!(dark.unserved_frac, 1.0);
    assert_eq!(dark.median_ms, None);
    assert_eq!(dark.event, "down site-0 + down site-1 + down site-2");
    let back = t.records.last().unwrap();
    assert!(back.unserved_frac < 1.0, "one site back must serve somebody");
    assert!(back.median_ms.is_some());
}

#[test]
fn peering_loss_is_applied_and_restored() {
    let (net, dep, users) = world(4);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let init_median = e.init_record().median_ms;
    // Losing sessions toward a heavy transit AS must not corrupt
    // state: after restore we are exactly at the steady state.
    let neighbor = net.graph.node_at(0).asn;
    let t = e.run(&Scenario::peering_flap("pf", neighbor, SimTime::from_secs(1.0), 60_000.0));
    assert_eq!(t.records.len(), 3);
    assert_eq!(t.records[2].median_ms, init_median);
}

/// Losing the session toward a neighbor of one host changes only
/// that host's routes (the route cache keys withholds by the
/// origin's own adjacency), so the epoch re-ranks a slice of the
/// population — and still matches the full-recompute oracle.
#[test]
fn peering_loss_reuses_groups_not_adjacent_to_the_neighbor() {
    let (net, dep, users) = world(4);
    let g = &net.graph;
    let hosts: Vec<usize> = dep.sites.iter().map(|s| g.idx(s.host)).collect();
    let neighbor = g
        .adjacency(hosts[0])
        .iter()
        .map(|a| a.neighbor)
        .find(|&n| {
            !hosts.contains(&n)
                && hosts[1..].iter().all(|&h| g.adjacency(h).iter().all(|a| a.neighbor != n))
        })
        .map(|n| g.node_at(n).asn)
        .expect("site 0's host has a neighbor no other host touches");
    let scenario = Scenario::peering_flap("pf", neighbor, SimTime::from_secs(1.0), 60_000.0);
    let mut inc = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let mut full = engine(&net, &dep, &users, RecomputeMode::Full);
    let population = inc.population() as u64;
    let (ti, tf) = (inc.run(&scenario), full.run(&scenario));
    assert_eq!(ti.records.len(), tf.records.len());
    for (a, b) in ti.records.iter().zip(&tf.records) {
        assert_eq!(a.event, b.event);
        assert_eq!(a.shifted, b.shifted, "at {}", a.event);
        assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
        assert_eq!(a.mean_path_km, b.mean_path_km, "at {}", a.event);
        if a.event != "init" {
            assert!(a.recomputed < population, "{} re-ranked everyone", a.event);
        }
    }
    assert_eq!(inc.user_snapshot(), full.user_snapshot());
    let last = ti.records.last().unwrap();
    assert!(inc.verify_full_recompute(last).is_empty());
}

#[test]
fn same_timestamp_flap_is_a_recorded_noop() {
    let (net, dep, users) = world(3);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let target = hottest_site(&e);
    let init_median = e.init_record().median_ms;
    let before = e.user_snapshot();
    // Insertion order must not matter: the up is scheduled BEFORE
    // the down, yet the pair still nets out.
    let t_ev = SimTime::from_secs(30.0);
    let s = Scenario::new("flap0")
        .at(t_ev, RoutingEvent::SiteUp(target))
        .at(t_ev, RoutingEvent::SiteDown(target));
    let t = e.run(&s);
    assert_eq!(t.records.len(), 2, "one batched epoch, not two");
    let r = &t.records[1];
    assert_eq!(r.event, format!("flap {target}"));
    assert!(r.note.contains("cancel"), "the no-op must be recorded: {}", r.note);
    assert_eq!(r.shifted, 0.0);
    assert_eq!(r.recomputed, 0, "a cancelled pair challenges nobody");
    assert_eq!(r.median_ms, init_median);
    assert_eq!(e.user_snapshot(), before, "state is untouched");
}

#[test]
fn gradual_drain_completes_in_staged_epochs_and_recovers() {
    let (net, dep, users) = world(4);
    let total: f64 = users.iter().map(|u| u.weight).sum();
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(SiteCapacities::uniform(dep.sites.len(), total));
    let target = hottest_site(&e);
    let before = e.user_snapshot();
    let init_median = e.init_record().median_ms;
    assert!(e.init_record().headroom_frac.is_some(), "capacities fill headroom");
    let s = Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 3, 120_000.0);
    let t = e.run(&s);
    // init, start (stage 1), stage 2, stage 3 (final down), end.
    assert_eq!(t.records.len(), 5);
    assert_eq!(t.records[1].event, format!("drain-start {target}"));
    assert_eq!(t.records[2].event, format!("drain-stage {target}"));
    assert_eq!(t.records[3].event, format!("drain-stage {target}"));
    assert_eq!(t.records[4].event, format!("drain-end {target}"));
    assert!(
        t.records.iter().all(|r| !r.note.contains("abort")),
        "generous capacity must not abort"
    );
    assert!(
        t.records[1..4].iter().map(|r| r.shifted).sum::<f64>() > 0.0,
        "draining the hottest site must move somebody"
    );
    assert!(t.records.iter().all(|r| r.headroom_frac.is_some()));
    let last = t.records.last().unwrap();
    assert_eq!(last.median_ms, init_median, "the drain ends where it began");
    assert_eq!(e.user_snapshot(), before);

    // A binary drain (stages = 1) downs the site in one epoch: fewer
    // records than the staged run, same generous capacity, no abort.
    let s1 = Scenario::gradual_drain("gd1", target, SimTime::from_secs(10.0), 30_000.0, 1, 120_000.0);
    let t1 = e.run(&s1);
    assert!(
        t1.records.len() < t.records.len(),
        "a binary drain must emit fewer records ({} vs {})",
        t1.records.len(),
        t.records.len()
    );
    assert!(t1.records.iter().all(|r| !r.note.contains("abort")));
    assert_eq!(t1.records.last().unwrap().median_ms, init_median);
    assert_eq!(e.user_snapshot(), before);
}

#[test]
fn overloading_drain_aborts_and_rolls_back_byte_identically() {
    let (net, dep, users) = world(4);
    let probe = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let target = hottest_site(&probe);
    let init_loads = probe.site_loads();
    // Capacities hugging the steady-state loads: any user shifted
    // onto a survivor overloads it, so the drain cannot proceed.
    let caps =
        SiteCapacities::from_per_site(init_loads.iter().map(|l| l.max(0.5) * 1.0001).collect());
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental).with_capacities(caps);
    let before = e.user_snapshot();
    let s = Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 3, 120_000.0);
    let t = e.run(&s);
    let abort = t
        .records
        .iter()
        .find(|r| r.event.contains("drain-abort"))
        .expect("tight capacities must abort the drain");
    assert!(abort.note.contains("drain aborted"), "note: {}", abort.note);
    assert_eq!(abort.shifted, 0.0, "the abort epoch nets out to no shift");
    assert_eq!(
        e.user_snapshot(),
        before,
        "an aborted drain leaves assignments byte-identical to pre-drain"
    );
    assert_eq!(
        t.records.last().unwrap().event,
        abort.event,
        "follow-ups of the aborted drain are dropped, so the abort closes the run"
    );
}

/// An abort cancels the whole drain, not just the stage that
/// overloaded: users an earlier committed stage moved move back, so
/// the abort record's `shifted` is the weight that stage moved and
/// the final assignment equals the pre-drain one.
#[test]
fn a_later_stage_abort_restores_the_pre_drain_state() {
    let (net, dep, users) = world(4);
    let mut probe = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let target = hottest_site(&probe);
    let init_loads = probe.site_loads();
    let scenario =
        Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 3, 120_000.0);
    // Step the drain without capacities to read the loads each stage
    // leaves behind.
    let mut stepper = EpochStepper::new(&probe, &scenario);
    assert!(stepper.step(&mut probe));
    let stage1_loads = probe.site_loads();
    let stage1_shifted = stepper.records()[1].shifted;
    assert!(stepper.step(&mut probe));
    let stage2_loads = probe.site_loads();
    // Capacities that fit stage 1 exactly (the check is strict).
    let caps: Vec<f64> =
        init_loads.iter().zip(&stage1_loads).map(|(a, b)| a.max(*b).max(0.5)).collect();
    assert!(stage1_shifted > 0.0, "stage 1 must move somebody");
    assert!(
        stage2_loads.iter().zip(&caps).any(|(l, c)| l > c),
        "stage 2 must push some site past its capacity"
    );

    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(SiteCapacities::from_per_site(caps));
    let before = e.user_snapshot();
    let t = e.run(&scenario);
    assert_eq!(t.records.len(), 3, "init, the committed stage 1, the aborted stage 2");
    assert_eq!(t.records[1].event, format!("drain-start {target}"));
    assert_eq!(t.records[1].shifted, stage1_shifted, "stage 1 commits");
    let abort = &t.records[2];
    assert_eq!(abort.event, format!("drain-stage {target} => drain-abort {target}"));
    assert_eq!(
        abort.shifted, stage1_shifted,
        "the abort moves stage 1's users back to their pre-drain sites"
    );
    assert_eq!(e.user_snapshot(), before, "an abort restores the pre-drain assignment");
}

#[test]
fn capacity_edge_exact_fit_completes_and_one_user_less_aborts() {
    let (net, dep, users) = world(4);
    let probe = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let target = hottest_site(&probe);
    let init_loads = probe.site_loads();
    // The per-site peak during a drain equals the load with the
    // target fully down (stages only ever add users to survivors),
    // so measure that directly.
    let mut down_probe = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let _ = down_probe
        .run(&Scenario::new("p").at(SimTime::from_secs(1.0), RoutingEvent::SiteDown(target)));
    let down_loads = down_probe.site_loads();
    let exact: Vec<f64> = init_loads
        .iter()
        .zip(&down_loads)
        .map(|(a, b)| a.max(*b).max(0.5))
        .collect();
    let scenario =
        Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 3, 120_000.0);

    // Exact fit: the strict `load > cap` check lets it through.
    let mut fits = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(SiteCapacities::from_per_site(exact.clone()));
    let t = fits.run(&scenario);
    assert_eq!(t.records.len(), 5, "exact-fit capacity completes all 3 stages + end");
    assert!(t.records.iter().all(|r| !r.event.contains("drain-abort")));

    // One user less of room on the heaviest receiver: abort.
    let receiver = init_loads
        .iter()
        .zip(&down_loads)
        .enumerate()
        .max_by(|a, b| (a.1 .1 - a.1 .0).total_cmp(&(b.1 .1 - b.1 .0)))
        .map(|(i, _)| i)
        .unwrap();
    assert!(
        down_loads[receiver] > init_loads[receiver],
        "the hottest site's users must land somewhere"
    );
    let mut tight = exact;
    tight[receiver] = down_loads[receiver] - 0.5;
    let mut aborts = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(SiteCapacities::from_per_site(tight));
    let t = aborts.run(&scenario);
    assert!(
        t.records.iter().any(|r| r.event.contains("drain-abort")),
        "one user over capacity must abort: {:?}",
        t.records.iter().map(|r| r.event.clone()).collect::<Vec<_>>()
    );
}

/// The per-site entry sessions partition the global view: summed
/// per neighbor across sites they equal `transit_loads` (each
/// served cohort has exactly one serving site), and every site's
/// list is lightest first, ties by ASN.
#[test]
fn entry_sessions_partition_transit_loads_lightest_first() {
    let (net, dep, users) = world(4);
    let e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let global = e.transit_loads();
    assert!(!global.is_empty(), "somebody must enter through a neighbor");
    let by_site = e.entry_sessions();
    assert_eq!(by_site.len(), dep.sites.len());
    let mut merged: DetHashMap<Asn, f64> = DetHashMap::default();
    for (i, sessions) in by_site.iter().enumerate() {
        for pair in sessions.windows(2) {
            assert!(
                pair[0].1.total_cmp(&pair[1].1).then(pair[0].0.cmp(&pair[1].0)).is_lt(),
                "sessions must be lightest first at site {i}: {pair:?}"
            );
        }
        for &(a, w) in sessions {
            *merged.entry(a).or_default() += w;
        }
    }
    assert_eq!(merged.len(), global.len());
    for (a, w) in &global {
        let m = merged.get(a).copied().unwrap_or(0.0);
        assert!((m - w).abs() < 1e-9, "session {a} splits exactly across sites");
    }
}

/// An expanded engine must agree with the unexpanded one on every
/// population-independent metric (medians, fractions, site sets),
/// carry ~population rows, and prove sub-linear invalidation work
/// on single-site events.
#[test]
fn expanded_population_preserves_metrics_and_invalidates_sublinearly() {
    let (net, dep, users) = world(4);
    let target_pop = 10 * users.len();
    let counts = crate::columnar::expand_counts(
        &users.iter().map(|u| u.weight).collect::<Vec<_>>(),
        target_pop,
        42,
    );
    let mut small = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let mut big = DynamicsEngine::new_expanded(
        &net.graph,
        Arc::clone(&dep),
        LatencyModel::default(),
        &users,
        &counts,
        42,
        RecomputeMode::Incremental,
    );
    assert_eq!(big.population(), target_pop);
    assert_eq!(big.cohort_count(), users.len());
    // Equal per-source weights split evenly, so weighted medians
    // and served fractions must match the unexpanded engine.
    assert_eq!(big.init_record().median_ms, small.init_record().median_ms);
    assert_eq!(big.init_record().unserved_frac, small.init_record().unserved_frac);
    let target = hottest_site(&small);
    let scenario =
        Scenario::site_flap("flap", target, SimTime::from_secs(60.0), 600_000.0, 3, 30_000.0, 7);
    let ts = small.run(&scenario);
    let tb = big.run(&scenario);
    for (a, b) in ts.records.iter().zip(&tb.records) {
        assert_eq!(a.event, b.event);
        assert!((a.shifted_frac - b.shifted_frac).abs() < 1e-9, "at {}", a.event);
        assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
    }
    // Ledger identity at the expanded population...
    for r in &tb.records {
        assert_eq!(r.recomputed + r.reused, target_pop as u64, "at {}", r.event);
    }
    // ...and invalidation never checked the whole population on these
    // single-site flaps.
    let (slice, pop) = big.invalidation_ledger();
    assert_eq!(pop, (target_pop * (tb.records.len() - 1)) as u64);
    assert!(slice < pop, "slice {slice} must undercut population {pop}");
    assert!(slice > 0, "the flapped site's own group is checked");
}

#[test]
fn site_failure_mid_drain_aborts_it_and_stale_stages_are_ignored() {
    let (net, dep, users) = world(4);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let target = hottest_site(&e);
    let init_median = e.init_record().median_ms;
    let s = Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 4, 120_000.0)
        .at(SimTime::from_secs(25.0), RoutingEvent::SiteDown(target))
        .at(SimTime::from_secs(200.0), RoutingEvent::SiteUp(target));
    let t = e.run(&s);
    // init, drain-start@10, down@25 (kills the drain), stale
    // drain-stage@40, up@200.
    assert_eq!(t.records.len(), 5);
    assert!(t.records[2].note.contains("aborted"), "note: {}", t.records[2].note);
    assert!(t.records[3].note.contains("stale"), "note: {}", t.records[3].note);
    assert_eq!(t.records[3].shifted, 0.0, "a stale stage moves nobody");
    assert_eq!(t.records.last().unwrap().median_ms, init_median);
}

/// A drain aborted by `SiteDown` and restarted on the same site after
/// `SiteUp` shares the site's drain slot with its dead predecessor, so
/// only the generation stamp tells their follow-ups apart: the dead
/// drain's queued stage or end is a stale no-op, and the new drain
/// escalates and ends on its own schedule.
#[test]
fn a_drain_restarted_on_the_same_site_ignores_the_dead_drains_followups() {
    let (net, dep, users) = world(4);
    // Drain from 10 s (30 s stages, 120 s hold), fail at `down_s`,
    // recover 5 s later and restart 5 s after that; returns each
    // record's (t in s, event, stale, shifted) with the site as `T`.
    let restart = |stages: u32, down_s: f64| -> Vec<(f64, String, bool, f64)> {
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let target = hottest_site(&e);
        let before = e.user_snapshot();
        let init_median = e.init_record().median_ms;
        let drain = RoutingEvent::DrainStart {
            site: target,
            stage_ms: 30_000.0,
            stages,
            hold_ms: 120_000.0,
        };
        let s = Scenario::new("restart")
            .at(SimTime::from_secs(10.0), drain)
            .at(SimTime::from_secs(down_s), RoutingEvent::SiteDown(target))
            .at(SimTime::from_secs(down_s + 5.0), RoutingEvent::SiteUp(target))
            .at(SimTime::from_secs(down_s + 10.0), drain);
        let t = e.run(&s);
        assert!(t.records.iter().any(|r| r.note.contains("aborted: site failed")));
        assert_eq!(t.records.last().unwrap().median_ms, init_median);
        assert_eq!(e.user_snapshot(), before, "both drains are over");
        t.records[1..]
            .iter()
            .map(|r| {
                let event = r.event.replace(&target.to_string(), "T");
                (r.t_ms / 1000.0, event, r.note.contains("stale"), r.shifted)
            })
            .collect()
    };
    let check = |rows: &[(f64, String, bool, f64)], want: &[(f64, &str, bool)]| {
        let got: Vec<(f64, &str, bool)> = rows.iter().map(|r| (r.0, r.1.as_str(), r.2)).collect();
        assert_eq!(got, want);
        for r in rows.iter().filter(|r| r.2) {
            assert_eq!(r.3, 0.0, "a stale follow-up moves nobody: {r:?}");
        }
    };

    // Four stages: the dead drain's stage at 40 s lands while the new
    // drain (started at 35 s) is staged, and must not escalate it.
    let rows = restart(4, 25.0);
    check(
        &rows,
        &[
            (10.0, "drain-start T", false),
            (25.0, "down T", false),
            (30.0, "up T", false),
            (35.0, "drain-start T", false),
            (40.0, "drain-stage T", true),
            (65.0, "drain-stage T", false),
            (95.0, "drain-stage T", false),
            (125.0, "drain-stage T", false),
            (245.0, "drain-end T", false),
        ],
    );

    // Two stages: the first drain holds from 40 s, so its queued end at
    // 160 s lands while the new drain (holding from 90 s) keeps the
    // site down, and must not bring it back early.
    let rows = restart(2, 50.0);
    check(
        &rows,
        &[
            (10.0, "drain-start T", false),
            (40.0, "drain-stage T", false),
            (50.0, "down T", false),
            (55.0, "up T", false),
            (60.0, "drain-start T", false),
            (90.0, "drain-stage T", false),
            (160.0, "drain-end T", true),
            (210.0, "drain-end T", false),
        ],
    );
    assert!(rows.last().unwrap().3 > 0.0, "the site's users return at the real end");
}

fn crowd(e: &DynamicsEngine<'_>, factor: f64) -> Scenario {
    let hot = hottest_site(e);
    let center = e.base.sites[hot.0 as usize].location;
    Scenario::flash_crowd(
        "crowd",
        center,
        6_000.0,
        factor,
        SimTime::from_secs(60.0),
        300_000.0,
        60_000.0,
    )
}

/// A demand surge scales cohort weights lazily: the epoch touches
/// only cohorts, ticks recompute nobody, and the reciprocal scale
/// restores both the scalar totals and the per-user query volumes.
#[test]
fn demand_scale_is_lazy_and_the_reciprocal_restores_it() {
    let (net, dep, users) = world(4);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let w0 = e.total_weight();
    let q0: f64 = e.queries_per_day().iter().sum();
    let s = crowd(&e, 2.0);
    let t = e.run(&s);
    for r in &t.records {
        if r.event.starts_with("surge") {
            assert_eq!(r.shifted, 0.0, "a demand scale moves nobody: {}", r.event);
            assert!(r.note.contains("demand x"), "note: {}", r.note);
        }
        if r.event == "tick" {
            assert_eq!(r.recomputed, 0, "a bare tick re-ranks nobody");
            assert_eq!(r.shifted, 0.0);
        }
    }
    assert!(t.records.iter().any(|r| r.event.starts_with("surge x2.00")));
    assert!(t.records.iter().any(|r| r.event.starts_with("surge x0.50")));
    assert!((e.total_weight() - w0).abs() < 1e-6 * w0, "reciprocal restores total weight");
    assert!(e.demand_mult.iter().all(|m| (m - 1.0).abs() < 1e-9 || *m != 1.0));
    let q1: f64 = e.queries_per_day().iter().sum();
    assert!((q1 - q0).abs() < 1e-6 * q0, "the fold restores per-user query volumes");
    assert!(e.demand_mult.iter().all(|&m| m == 1.0), "the fold drains every multiplier");
}

/// On an expanded engine, a ×2 surge reaches per-user query volumes
/// only through the fold, and reaches them exactly: ×2 is exact in
/// f64, so every member of a cohort inside the radius reads twice
/// its pre-surge value and every member outside keeps its bits.
#[test]
fn demand_fold_doubles_exactly_the_members_inside_the_radius() {
    let (net, dep, users) = world(4);
    let counts = crate::columnar::expand_counts(
        &users.iter().map(|u| u.weight).collect::<Vec<_>>(),
        10 * users.len(),
        42,
    );
    let mut e = DynamicsEngine::new_expanded(
        &net.graph,
        Arc::clone(&dep),
        LatencyModel::default(),
        &users,
        &counts,
        42,
        RecomputeMode::Incremental,
    );
    let hot = hottest_site(&e);
    let center = e.base.sites[hot.0 as usize].location;
    let radius_km = 3_000.0;
    let s = Scenario::new("surge").at(
        SimTime::from_secs(10.0),
        RoutingEvent::DemandScale { center, radius_km, factor: 2.0 },
    );
    let before = e.queries_per_day().to_vec();
    let mut stepper = EpochStepper::new(&e, &s);
    assert!(stepper.step(&mut e), "the surge epoch applies");
    assert!(e.demand_mult.contains(&2.0), "the epoch only marks cohorts");
    let cohorts = e.cohorts.clone();
    let after = e.queries_per_day().to_vec();
    let inside = |c: &Cohort| c.location.distance_km(&center) <= radius_km;
    assert!(cohorts.iter().any(|c| inside(c) && c.len() > 1), "a surged cohort has members");
    assert!(cohorts.iter().any(|c| !inside(c)), "some cohort sits outside the radius");
    for c in &cohorts {
        for i in c.range() {
            if inside(c) {
                assert_eq!(after[i], 2.0 * before[i], "member {i} inside the radius");
            } else {
                assert_eq!(after[i].to_bits(), before[i].to_bits(), "member {i} outside");
            }
        }
    }
    assert!(e.demand_mult.iter().all(|&m| m == 1.0), "the fold drains every multiplier");
}

/// The surge itself must grow demand while it holds.
#[test]
fn demand_scale_grows_weight_while_the_crowd_holds() {
    let (net, dep, users) = world(4);
    let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let w0 = e.total_weight();
    let hot = hottest_site(&e);
    let center = e.base.sites[hot.0 as usize].location;
    let s = Scenario::new("half").at(
        SimTime::from_secs(10.0),
        RoutingEvent::DemandScale { center, radius_km: 6_000.0, factor: 2.0 },
    );
    e.run(&s);
    assert!(e.total_weight() > w0, "somebody inside the radius scaled up");
    assert!(e.demand_mult.iter().any(|m| (*m - 2.0).abs() < 1e-12));
}

/// A `NullController` attached to a capacity-aware engine must
/// leave every timeline byte exactly as a controller-less run
/// produces it — the ledger accrues overload either way.
#[test]
fn null_controller_preserves_timeline_byte_identity() {
    let (net, dep, users) = world(4);
    let plain = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let caps = SiteCapacities::from_headroom(&plain.site_loads(), 1.15, 1.0);
    let mut plain = plain.with_capacities(caps.clone());
    let mut nulled = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(caps)
        .with_controller(Box::new(loadmgmt::NullController));
    let target = hottest_site(&plain);
    let s = crowd(&plain, 2.0)
        .at(SimTime::from_secs(130.0), RoutingEvent::SiteDown(target))
        .at(SimTime::from_secs(250.0), RoutingEvent::SiteUp(target));
    let tp = plain.run(&s);
    let tn = nulled.run(&s);
    assert_eq!(tp.rows(), tn.rows(), "a null controller must not perturb a single byte");
    assert_eq!(plain.load_ledger().overload_site_ms, nulled.load_ledger().overload_site_ms);
    assert_eq!(nulled.load_ledger().shed_users, 0.0);
    assert_eq!(nulled.load_ledger().controller_rounds, 0);
}

/// The distributed controller must actually shed under a flash
/// crowd and strictly reduce accrued overload versus doing nothing.
#[test]
fn distributed_controller_sheds_and_reduces_overload() {
    let (net, dep, users) = world(4);
    let none = engine(&net, &dep, &users, RecomputeMode::Incremental);
    // A tight cap on the hottest site and slack everywhere else:
    // the crowd overloads exactly one site while the rest of the
    // deployment has genuine room for whatever a controller sheds.
    let hot = hottest_site(&none);
    let caps = SiteCapacities::from_per_site(
        none.site_loads()
            .iter()
            .enumerate()
            .map(|(i, l)| if i == hot.0 as usize { l * 1.1 } else { l * 10.0 })
            .collect(),
    );
    let mut none = none.with_capacities(caps.clone());
    let mut dist = engine(&net, &dep, &users, RecomputeMode::Incremental)
        .with_capacities(caps)
        .with_controller(Box::new(loadmgmt::DistributedController::default()));
    let s = crowd(&none, 2.0);
    none.run(&s);
    let td = dist.run(&s);
    let ln = none.load_ledger();
    let ld = dist.load_ledger();
    assert!(ln.overload_site_ms > 0.0, "the crowd must overload the baseline");
    assert!(
        ld.overload_site_ms < ln.overload_site_ms,
        "controller {} must beat baseline {}",
        ld.overload_site_ms,
        ln.overload_site_ms
    );
    assert!(ld.shed_users > 0.0, "clearing overload requires shedding someone");
    assert!(ld.released_users <= ld.shed_users + 1e-9, "ledger identity");
    assert!(ld.controller_rounds >= 1);
    assert!(
        td.records.iter().any(|r| r.event.starts_with("ctrl[distributed]")),
        "controller rounds appear as timeline rows"
    );
    // Controller rows are same-SimTime epochs after their trigger.
    for w in td.records.windows(2) {
        if w[1].event.starts_with("ctrl[") {
            assert_eq!(w[0].t_ms, w[1].t_ms, "ctrl rounds share the trigger's timestamp");
        }
    }
}

/// Withholds emitted by a controller survive an unrelated routing
/// epoch: the shed sessions stay away until released, because the
/// withhold joins the drain footprint every recompute sees.
#[test]
fn controller_withholds_persist_across_routing_epochs() {
    let (net, dep, users) = world(4);
    let base = engine(&net, &dep, &users, RecomputeMode::Incremental);
    let caps = SiteCapacities::from_headroom(&base.site_loads(), 1.15, 1.0);
    let mut e = base
        .with_capacities(caps)
        .with_controller(Box::new(loadmgmt::ThresholdController));
    let hot = hottest_site(&e);
    let center = e.base.sites[hot.0 as usize].location;
    let cold = SiteId((0..e.base.sites.len() as u32).find(|i| SiteId(*i) != hot).unwrap());
    let s = Scenario::new("persist")
        .at(
            SimTime::from_secs(10.0),
            RoutingEvent::DemandScale { center, radius_km: 6_000.0, factor: 2.0 },
        )
        .at(SimTime::from_secs(60.0), RoutingEvent::SiteDown(cold))
        .at(SimTime::from_secs(120.0), RoutingEvent::SiteUp(cold))
        .ticks(SimTime::from_secs(180.0), 60_000.0, 1);
    e.run(&s);
    let ledger = e.load_ledger().clone();
    assert!(ledger.shed_users > 0.0, "the surge must trip the threshold");
    // Withheld neighbors cannot appear among their shed site's
    // entry sessions while the withhold stands.
    let sessions = e.entry_sessions();
    for (site, withheld) in e.ctrl_withheld.iter().enumerate() {
        for (asn, _) in withheld {
            assert!(
                sessions[site].iter().all(|(a, _)| a != asn),
                "withheld {asn:?} still lands on site {site}"
            );
        }
    }
}

