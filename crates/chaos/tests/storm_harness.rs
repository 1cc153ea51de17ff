//! End-to-end storm campaigns on real worlds: every regime survives a
//! clean storm with zero violations, an incremental engine matches a
//! real full-recompute engine stepped in lockstep, a corrupted cohort
//! trips the on-demand oracle, an injected synthetic fault shrinks to
//! a handful of incidents, the written reproducer replays the failure,
//! and a storm under query replay conserves traffic.
//!
//! The ledger identities in the invariant catalogue are checked against
//! **process-global** `obs` counters, so every test that runs an engine
//! takes [`chaos_lock`] first — two concurrent storms would interleave
//! their counter deltas and raise false violations.

use anycast_chaos::{
    check_full_recompute, compare_oracle, event_total, generate, minimize, run_storm,
    scenario_from, switch_schedule, ChaosOptions, Incident, IncidentKind, Reproducer,
    StormConfig, StormRegime,
};
use analysis::SiteCapacities;
use cdn::{Cdn, CdnConfig};
use dynamics::{DynUser, DynamicsEngine, EpochStepper, RecomputeMode};
use netsim::{LatencyModel, SimTime};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use topology::gen::Internet;
use topology::{
    AnycastDeployment, AnycastSite, Asn, ExportScope, InternetGenerator, SiteId, TopologyConfig,
};

/// Serializes every storm in this binary (see module docs).
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A shared 5-site world: topology generation dominates a test, so all
/// storms replay over the same immutable internet.
fn world() -> &'static (Internet, Arc<AnycastDeployment>, Vec<DynUser>) {
    static WORLD: OnceLock<(Internet, Arc<AnycastDeployment>, Vec<DynUser>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(111));
        let hosts = net.sample_hosters(5);
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
        let dep = AnycastDeployment::new("chaos-world", sites, vec![]);
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
    })
}

fn engine(mode: RecomputeMode) -> DynamicsEngine<'static> {
    let (net, dep, users) = world();
    DynamicsEngine::new(
        &net.graph,
        Arc::clone(dep),
        LatencyModel::default(),
        users.clone(),
        mode,
    )
}

/// The heaviest transit ASes that do not themselves host a site — the
/// peering-flap targets whose loss actually reroutes user weight.
fn neighbors() -> Vec<Asn> {
    let (_, dep, _) = world();
    engine(RecomputeMode::Incremental)
        .transit_loads()
        .into_iter()
        .map(|(asn, _)| asn)
        .filter(|asn| !dep.sites.iter().any(|s| s.host == *asn))
        .take(3)
        .collect()
}

fn routing_cfg(seed: u64, incidents: usize) -> StormConfig {
    StormConfig {
        seed,
        incidents,
        start: SimTime::from_secs(60.0),
        mean_gap_ms: 45_000.0,
        sites: 5,
        neighbors: neighbors(),
        centers: vec![],
        rings: 0,
        regime: StormRegime::Routing,
    }
}

#[test]
fn routing_storm_survives_with_zero_violations() {
    let _g = chaos_lock();
    let incidents = generate(&routing_cfg(2021, 150));
    let report = run_storm(
        &engine,
        &incidents,
        &ChaosOptions { name: "routing-storm".into(), oracle_every: 8, ..Default::default() },
    );
    assert!(
        report.ok(),
        "routing storm violated invariants: {}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
    );
    assert!(report.epochs >= 150, "every incident steps at least one epoch");
    assert!(report.events >= event_total(&incidents) as u64);
    assert!(report.oracle_checks >= 10, "oracle consulted throughout");
    assert!(!report.timeline.records.is_empty());
}

/// The capacity-aware engine under a hysteresis controller that the
/// load-regime storms run on.
fn load_engine(mode: RecomputeMode) -> DynamicsEngine<'static> {
    static CAPS: OnceLock<SiteCapacities> = OnceLock::new();
    let caps = CAPS.get_or_init(|| {
        SiteCapacities::from_headroom(&engine(RecomputeMode::Incremental).site_loads(), 1.3, 1.0)
    });
    engine(mode)
        .with_capacities(caps.clone())
        .with_controller(Box::new(loadmgmt::HysteresisController::default()))
}

fn load_cfg(seed: u64, incidents: usize) -> StormConfig {
    let (_, dep, _) = world();
    StormConfig {
        seed,
        incidents,
        start: SimTime::from_secs(60.0),
        mean_gap_ms: 45_000.0,
        sites: 5,
        neighbors: neighbors(),
        centers: dep.sites.iter().map(|s| s.location).collect(),
        rings: 0,
        regime: StormRegime::Load,
    }
}

#[test]
fn load_storm_with_policy_churn_survives() {
    let _g = chaos_lock();
    let incidents = generate(&load_cfg(7, 150));
    assert!(
        incidents.iter().any(|i| matches!(i.kind, IncidentKind::PolicySwitch { .. })),
        "the storm exercises controller churn"
    );
    let report = run_storm(
        &load_engine,
        &incidents,
        &ChaosOptions { name: "load-storm".into(), oracle_every: 8, ..Default::default() },
    );
    assert!(
        report.ok(),
        "load storm violated invariants: {}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
    );
    assert!(report.epochs >= 150);
}

/// The reference the on-demand oracle answers to: a real
/// `RecomputeMode::Full` engine stepped in lockstep with the
/// incremental one through a routing and a load storm (peering flaps
/// and controller churn included), every record and every cohort
/// compared after every epoch. The on-demand oracle runs on every epoch
/// too and must agree that nothing diverged.
#[test]
fn incremental_engine_matches_a_lockstep_full_recompute_engine() {
    let _g = chaos_lock();
    type Factory = fn(RecomputeMode) -> DynamicsEngine<'static>;
    for (cfg, factory) in
        [(routing_cfg(404, 60), engine as Factory), (load_cfg(405, 60), load_engine)]
    {
        let incidents = generate(&cfg);
        assert!(incidents.iter().any(|i| matches!(i.kind, IncidentKind::PeeringFlap { .. })));
        let scenario = scenario_from("lockstep", &incidents);
        let switches = switch_schedule(&incidents);
        let mut inc = factory(RecomputeMode::Incremental);
        let mut full = factory(RecomputeMode::Full);
        let mut si = EpochStepper::new(&inc, &scenario);
        let mut sf = EpochStepper::new(&full, &scenario);
        let (mut pending, mut epochs, mut violations) = (&switches[..], 0u64, Vec::new());
        loop {
            if let Some(next) = si.next_time() {
                while let Some(&(_, policy)) = pending.first().filter(|s| s.0 <= next) {
                    inc.set_controller(Some(policy.controller()));
                    full.set_controller(Some(policy.controller()));
                    pending = &pending[1..];
                }
            }
            let (bi, bf) = (si.records().len(), sf.records().len());
            let stepped = si.step(&mut inc);
            assert_eq!(stepped, sf.step(&mut full), "both engines run dry together");
            if !stepped {
                break;
            }
            epochs += 1;
            let (ri, rf) = (&si.records()[bi..], &sf.records()[bf..]);
            compare_oracle(&inc, &full, ri, rf, epochs, &mut violations);
            check_full_recompute(&mut inc, ri, epochs, &mut violations);
        }
        assert!(epochs >= 60, "{:?}: every incident steps an epoch", cfg.regime);
        assert!(
            violations.is_empty(),
            "{:?} storm diverged from the full engine: {}",
            cfg.regime,
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
        );
        let (ti, tf) = (si.finish(&mut inc), sf.finish(&mut full));
        assert!(ti.records.iter().map(|r| r.recomputed).sum::<u64>()
            < tf.records.iter().map(|r| r.recomputed).sum::<u64>(),
            "the incremental engine reused something");
    }
}

/// The on-demand oracle is not vacuous: one ulp of drift in one
/// cohort's stored latency, mid-storm, raises `oracle-state`.
#[test]
fn corrupted_cohort_state_trips_the_on_demand_oracle() {
    let _g = chaos_lock();
    let incidents = generate(&routing_cfg(77, 20));
    let scenario = scenario_from("corrupt", &incidents);
    let mut eng = engine(RecomputeMode::Incremental);
    let mut stepper = EpochStepper::new(&eng, &scenario);
    for _ in 0..10 {
        assert!(stepper.step(&mut eng));
    }
    let last = stepper.records().last().unwrap().clone();
    let mut clean = Vec::new();
    check_full_recompute(&mut eng, std::slice::from_ref(&last), 10, &mut clean);
    assert!(clean.is_empty(), "an honest engine passes: {clean:?}");

    eng.corrupt_cohort_state_for_test(eng.cohort_count() / 2);
    let mut out = Vec::new();
    check_full_recompute(&mut eng, std::slice::from_ref(&last), 10, &mut out);
    assert!(
        out.iter().any(|v| v.invariant == "oracle-state"),
        "the corrupted cohort is reported: {out:?}"
    );
}

#[test]
fn swap_storm_over_cdn_rings_survives() {
    let _g = chaos_lock();
    static CDN: OnceLock<(Internet, Cdn, Vec<DynUser>)> = OnceLock::new();
    let (net, cdn, users) = CDN.get_or_init(|| {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(131));
        let cdn = Cdn::build(&mut net, &CdnConfig { scale: 0.12, ..CdnConfig::small() });
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
        (net, cdn, users)
    });
    let swap_set: Vec<_> = cdn.rings.iter().map(|r| Arc::clone(&r.deployment)).collect();
    let factory = move |mode: RecomputeMode| {
        DynamicsEngine::new(
            &net.graph,
            Arc::clone(&cdn.rings[0].deployment),
            LatencyModel::default(),
            users.clone(),
            mode,
        )
        .with_swap_set(swap_set.clone(), 0)
    };
    let cfg = StormConfig {
        seed: 31,
        incidents: 100,
        start: SimTime::from_secs(60.0),
        mean_gap_ms: 50_000.0,
        sites: cdn.rings[0].deployment.sites.len() as u32,
        neighbors: vec![],
        centers: vec![],
        rings: cdn.rings.len() as u32,
        regime: StormRegime::Swap,
    };
    let incidents = generate(&cfg);
    assert!(incidents.iter().any(|i| matches!(i.kind, IncidentKind::SwapCycle { .. })));
    let report = run_storm(
        &factory,
        &incidents,
        &ChaosOptions { name: "swap-storm".into(), oracle_every: 8, ..Default::default() },
    );
    assert!(
        report.ok(),
        "swap storm violated invariants: {}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
    );
    assert!(report.epochs >= 100);
}

/// A routing storm with one planted capacity-dip incident. The engine
/// tracks no capacities, so the dip is a recorded no-op — but its label
/// is unique in the storm, which makes it the perfect synthetic-fault
/// trigger: exactly one incident is "guilty" and the minimizer must
/// find it.
fn planted_storm() -> (Vec<Incident>, ChaosOptions) {
    let mut incidents = generate(&routing_cfg(99, 80));
    let k = 40usize;
    let mid = (incidents[k - 1].at.as_ms() + incidents[k].at.as_ms()) / 2.0;
    incidents.insert(
        k,
        Incident {
            at: SimTime(mid),
            kind: IncidentKind::CapacityDip { site: SiteId(2), factor: 0.55, hold_ms: 40_000.0 },
        },
    );
    let opts = ChaosOptions {
        name: "planted".into(),
        oracle_every: 0,
        synthetic_violation_label: Some("cap site-2".into()),
        ..Default::default()
    };
    (incidents, opts)
}

#[test]
fn synthetic_violation_minimizes_to_a_handful_of_events() {
    let _g = chaos_lock();
    let (incidents, opts) = planted_storm();
    let report = run_storm(&engine, &incidents, &opts);
    assert!(!report.ok(), "the planted fault fires");
    assert_eq!(report.violations[0].invariant, "synthetic");

    let min = minimize(&engine, &incidents, &opts, 200);
    assert!(min.violation.is_some(), "minimal storm still fails");
    assert_eq!(min.violation.as_ref().unwrap().invariant, "synthetic");
    assert_eq!(
        min.incidents.len(),
        1,
        "exactly the planted incident survives, got {:?}",
        min.incidents
    );
    assert!(
        matches!(min.incidents[0].kind, IncidentKind::CapacityDip { site: SiteId(2), .. }),
        "the guilty incident is the planted capacity dip"
    );
    assert!(event_total(&min.incidents) <= 10, "minimal reproducer is within 10 events");
    assert!(min.probes <= 200);
}

#[test]
fn reproducer_file_round_trips_and_replays_the_failure() {
    let _g = chaos_lock();
    let (incidents, opts) = planted_storm();
    let min = minimize(&engine, &incidents, &opts, 200);
    assert!(min.violation.is_some());

    let repro = Reproducer {
        name: opts.name.clone(),
        seed: 99,
        oracle_every: opts.oracle_every,
        synthetic: opts.synthetic_violation_label.clone(),
        incidents: min.incidents.clone(),
        notes: vec![min.violation.as_ref().unwrap().to_string()],
    };
    let path = std::env::temp_dir().join("anycast_chaos_repro_test.txt");
    repro.write(&path).expect("reproducer written");
    let parsed = Reproducer::parse(&std::fs::read_to_string(&path).unwrap()).expect("parses");
    let _ = std::fs::remove_file(&path);
    assert_eq!(parsed.incidents, min.incidents, "incident list survives the file round-trip");

    let replayed = run_storm(&engine, &parsed.incidents, &parsed.options());
    assert!(!replayed.ok(), "the reproducer replays the violation");
    assert_eq!(replayed.violations[0].invariant, "synthetic");
}

#[test]
fn storm_under_query_replay_conserves_traffic() {
    let _g = chaos_lock();
    let incidents = generate(&routing_cfg(55, 40));
    let scenario = scenario_from("replay-storm", &incidents);
    let mut eng = engine(RecomputeMode::Incremental);
    let horizon = incidents.last().unwrap().at.as_ms() + 120_000.0;
    let cfg = replay::ReplayConfig {
        seed: 55,
        window_ms: 60_000.0,
        horizon_ms: horizon,
        ..Default::default()
    };
    let outcome = replay::replay(&mut eng, &scenario, &cfg);
    assert!(outcome.generated > 0);
    assert_eq!(
        outcome.served + outcome.degraded,
        outcome.generated,
        "every generated query is either served or degraded"
    );
    assert_eq!(outcome.windows.len() as u64, (horizon / 60_000.0).ceil() as u64);
    assert!(!outcome.timeline.records.is_empty());
}
