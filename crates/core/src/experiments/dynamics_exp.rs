//! Dynamics experiments: the two systems under operational churn.
//!
//! The paper measures both systems in steady state; these experiments
//! script the events operators actually live through — a flapping root
//! site, a CDN ring's rolling maintenance drain, a correlated regional
//! outage, a lost peering — and replay them on the `dynamics` engine to
//! quantify the transient: users shifted, latency inflation, stylized
//! convergence time, and queries landing degraded, per event. Every
//! run also reports the incremental engine's work-avoidance (per-user
//! assignments recomputed vs reused) against a full-recompute
//! equivalent.

use crate::artifact::Artifact;
use crate::world::World;
use analysis::SiteCapacities;
use dynamics::{
    DynUser, DynamicsEngine, LoadLedger, RecomputeMode, RoutingEvent, Scenario, Timeline,
};
use geo::GeoPoint;
use loadmgmt::PolicyName;
use netsim::SimTime;
use replay::{replay, ReplayConfig};
use std::sync::Arc;
use topology::{AnycastDeployment, Asn, SiteId};

/// The user population as dynamics traffic sources. Query volume is the
/// world's DITL total apportioned by user weight, so degraded-query
/// accounting stays on the same scale as the capture campaigns.
pub fn dyn_users(world: &World) -> Vec<DynUser> {
    let total_users = world.population.total_users();
    let total_qpd = world.ditl.total_queries_per_day();
    world
        .population
        .locations
        .iter()
        .map(|l| DynUser {
            asn: l.asn,
            location: world.internet.world.region(l.region).center,
            weight: l.users,
            queries_per_day: if total_users > 0.0 {
                total_qpd * l.users / total_users
            } else {
                0.0
            },
        })
        .collect()
}

/// Builds an engine over `deployment` with the world's population.
fn engine<'w>(world: &'w World, deployment: Arc<AnycastDeployment>) -> DynamicsEngine<'w> {
    DynamicsEngine::new(
        &world.internet.graph,
        deployment,
        world.model.clone(),
        dyn_users(world),
        RecomputeMode::Incremental,
    )
}

/// The root letter with the most global sites — the deployment where
/// site-level churn has the richest catchment structure to disturb.
pub fn busiest_letter(world: &World) -> &dns::letters::RootLetter {
    world
        .letters
        .letters
        .iter()
        .fold(None::<&dns::letters::RootLetter>, |best, l| match best {
            Some(b) if b.deployment.global_site_count() >= l.deployment.global_site_count() => {
                Some(b)
            }
            _ => Some(l),
        })
        .expect("letter set is non-empty")
}

/// The site carrying the most user weight (first one on ties).
pub fn hottest_site(eng: &DynamicsEngine<'_>) -> SiteId {
    let loads = eng.site_loads();
    let mut best = 0usize;
    for (i, l) in loads.iter().enumerate() {
        if *l > loads[best] {
            best = i;
        }
    }
    SiteId(best as u32)
}

/// Renders one timeline as two tables: the per-event time series and a
/// run summary (worst-case shift/inflation, degraded queries, and the
/// incremental engine's recompute-vs-reuse ledger).
fn timeline_artifacts(id: &str, title: &str, t: &Timeline, n_users: usize) -> Vec<Artifact> {
    let (recomputed, reused) = t.recompute_totals();
    let events = t.records.len().saturating_sub(1) as u64;
    let full_equivalent = events * n_users as u64;
    let savings = if full_equivalent > 0 {
        1.0 - recomputed as f64 / full_equivalent as f64
    } else {
        0.0
    };
    let rows = vec![
        vec!["events".into(), events.to_string()],
        vec!["max_shifted_frac".into(), format!("{:.6}", t.max_shifted_frac())],
        vec!["max_inflation_ms".into(), format!("{:.3}", t.max_inflation_ms())],
        vec![
            "total_degraded_queries".into(),
            format!("{:.3}", t.total_degraded_queries()),
        ],
        vec!["assign_recomputed".into(), recomputed.to_string()],
        vec!["assign_reused".into(), reused.to_string()],
        vec!["full_equivalent".into(), full_equivalent.to_string()],
        vec!["recompute_savings".into(), format!("{savings:.4}")],
    ];
    vec![
        Artifact::Table {
            id: id.into(),
            title: title.into(),
            header: Timeline::header(),
            rows: t.rows(),
        },
        Artifact::Table {
            id: format!("{id}sum"),
            title: format!("{title} — run summary"),
            header: vec!["metric".into(), "value".into()],
            rows,
        },
    ]
}

/// `dynflap`: the busiest root letter's hottest site flaps three times
/// (down for five minutes, up for five, with seeded jitter).
pub(crate) fn dynflap(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let mut eng = engine(world, Arc::clone(&letter.deployment));
    let target = hottest_site(&eng);
    let scenario = Scenario::site_flap(
        format!("{}-flap", letter.deployment.name),
        target,
        SimTime::from_secs(60.0),
        600_000.0,
        3,
        30_000.0,
        world.config.seed,
    );
    let n = eng.deployment().sites.len();
    let t = eng.run(&scenario);
    timeline_artifacts(
        "dynflap",
        &format!(
            "Hottest {} site ({target} of {n}) flapping 3× — per-event dynamics",
            letter.deployment.name
        ),
        &t,
        world.population.locations.len(),
    )
}

/// `dyndrain`: rolling load-aware maintenance over the largest CDN
/// ring — each site hands its catchment off in three staged withhold
/// escalations a minute apart, then holds down for five minutes;
/// starts staggered seven minutes apart, one at a time. Capacity is
/// generous (every site could absorb the whole user base), so every
/// drain completes; the `headroom_frac` column tracks how much slack
/// the survivors keep at each stage.
pub(crate) fn dyndrain(world: &World) -> Vec<Artifact> {
    let ring = world.cdn.largest_ring();
    let n = ring.deployment.sites.len().min(8);
    let sites: Vec<SiteId> = (0..n as u32).map(SiteId).collect();
    let scenario = Scenario::rolling_drain(
        format!("{}-drain", ring.name),
        &sites,
        SimTime::from_secs(30.0),
        60_000.0,
        3,
        300_000.0,
        420_000.0,
    );
    let mut eng = engine(world, Arc::clone(&ring.deployment));
    let total: f64 = eng.site_loads().iter().sum();
    eng = eng.with_capacities(SiteCapacities::uniform(
        ring.deployment.sites.len(),
        total.max(1.0),
    ));
    let t = eng.run(&scenario);
    timeline_artifacts(
        "dyndrain",
        &format!("Staged rolling drain of {n} {} sites, one at a time", ring.name),
        &t,
        world.population.locations.len(),
    )
}

/// `dyndrain-load`: the capacity-coupled drain abort, demonstrated on
/// the largest CDN ring's hottest site. Two runs of the same 3-stage
/// drain script:
///
/// * **tight** (`dyndrain-load` + `dyndrain-loadsum`): the heaviest
///   receiving site's capacity is set just below the load it would
///   have to absorb, so a stage's post-recompute load check fails and
///   the drain aborts — the `drain-abort` epoch rolls every
///   assignment back and the site keeps serving;
/// * **exact fit** (`dyndrain-load-ok`): every site's capacity equals
///   its worst-case load during the drain (the strict `load > cap`
///   check admits an exact fit), so the same script completes through
///   all staged epochs and the maintenance hold.
pub(crate) fn dyndrain_load(world: &World) -> Vec<Artifact> {
    let ring = world.cdn.largest_ring();
    let n_sites = ring.deployment.sites.len();
    let probe = engine(world, Arc::clone(&ring.deployment));
    let target = hottest_site(&probe);
    let init_loads = probe.site_loads();
    // Worst-case per-site load during the drain = the load with the
    // target fully down (stages only ever add users to survivors).
    let mut down_probe = engine(world, Arc::clone(&ring.deployment));
    let _ = down_probe
        .run(&Scenario::new("probe").at(SimTime::from_secs(1.0), RoutingEvent::SiteDown(target)));
    let down_loads = down_probe.site_loads();
    let exact: Vec<f64> = init_loads
        .iter()
        .zip(&down_loads)
        .map(|(a, b)| a.max(*b).max(1.0))
        .collect();
    // The heaviest receiver, denied half the increase it needs.
    let receiver = init_loads
        .iter()
        .zip(&down_loads)
        .enumerate()
        .max_by(|a, b| (a.1 .1 - a.1 .0).total_cmp(&(b.1 .1 - b.1 .0)))
        .map(|(i, _)| i)
        .expect("ring has sites");
    let mut tight = exact.clone();
    tight[receiver] =
        (init_loads[receiver] + (down_loads[receiver] - init_loads[receiver]) / 2.0).max(1.0);
    let scenario = Scenario::gradual_drain(
        format!("{}-drain-load", ring.name),
        target,
        SimTime::from_secs(30.0),
        60_000.0,
        3,
        300_000.0,
    );

    let mut aborts = engine(world, Arc::clone(&ring.deployment))
        .with_capacities(SiteCapacities::from_per_site(tight));
    let t_abort = aborts.run(&scenario);
    let mut completes = engine(world, Arc::clone(&ring.deployment))
        .with_capacities(SiteCapacities::from_per_site(exact));
    let t_ok = completes.run(&scenario);

    let mut a = timeline_artifacts(
        "dyndrain-load",
        &format!(
            "Load-aware drain of {} ({} of {n_sites}) under tight capacity — aborts",
            ring.name, target
        ),
        &t_abort,
        world.population.locations.len(),
    );
    a.push(Artifact::Table {
        id: "dyndrain-load-ok".into(),
        title: format!(
            "The same {} drain under exact-fit capacity — completes",
            ring.name
        ),
        header: Timeline::header(),
        rows: t_ok.rows(),
    });
    a
}

/// `dynoutage`: a correlated regional failure — every site of the
/// busiest letter within 3000 km of its hottest site goes down within a
/// two-minute window and recovers half an hour later.
pub(crate) fn dynoutage(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let mut eng = engine(world, Arc::clone(&letter.deployment));
    let target = hottest_site(&eng);
    let center = letter.deployment.site(target).location;
    let (scenario, hit) = Scenario::regional_outage(
        format!("{}-outage", letter.deployment.name),
        &letter.deployment,
        &center,
        3_000.0,
        SimTime::from_secs(60.0),
        1_800_000.0,
        120_000.0,
        world.config.seed,
    );
    let t = eng.run(&scenario);
    timeline_artifacts(
        "dynoutage",
        &format!(
            "Regional outage: {} {} sites within 3000 km of {target} fail together",
            hit.len(),
            letter.deployment.name
        ),
        &t,
        world.population.locations.len(),
    )
}

/// `dynring`: the CDN's ring maintenance cycle — the serving ring is
/// promoted R74 → R95 one minute in, held there for half an hour, then
/// demoted back. Both swaps land as single batched epochs: the rings
/// are nested, so a swap only changes which front-ends announce, every
/// per-user assignment on a surviving site carries over under its id,
/// and the engine recomputes only users the added sites actually win
/// (promotion) or users whose site left the ring (demotion), so the
/// per-epoch `reused` column stays high. The timeline's
/// `shifted` and `inflation_ms` columns give the per-epoch users-moved
/// and latency deltas of the cycle.
pub(crate) fn dynring(world: &World) -> Vec<Artifact> {
    let cdn = &world.cdn;
    let from = cdn.ring_index("R74").expect("paper ring R74 present");
    let to = cdn.ring_index("R95").expect("paper ring R95 present");
    let swap_set = cdn.rings.iter().map(|r| Arc::clone(&r.deployment)).collect();
    let mut eng =
        engine(world, Arc::clone(&cdn.rings[from].deployment)).with_swap_set(swap_set, from);
    let scenario = Scenario::ring_swap(
        "ring-cycle",
        to as u32,
        from as u32,
        SimTime::from_secs(60.0),
        1_800_000.0,
    );
    let t = eng.run(&scenario);
    timeline_artifacts(
        "dynring",
        "Ring promotion R74 → R95, held 30 min, demoted back — swap dynamics",
        &t,
        world.population.locations.len(),
    )
}

/// `dynpeer`: the busiest letter's hosts lose every session toward the
/// host-adjacent neighbor AS carrying the most user traffic, for half
/// an hour. Withhold changes invalidate every origin group at once, so
/// this is the engine's worst case — the run summary shows (honestly)
/// near-zero recompute savings.
pub(crate) fn dynpeer(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let mut eng = engine(world, Arc::clone(&letter.deployment));
    let neighbor = heaviest_neighbors(&eng, &letter.deployment)
        .first()
        .copied()
        .unwrap_or_else(|| world.internet.graph.node_at(0).asn);
    let scenario = Scenario::peering_flap(
        format!("{}-peerloss", letter.deployment.name),
        neighbor,
        SimTime::from_secs(60.0),
        1_800_000.0,
    );
    let t = eng.run(&scenario);
    timeline_artifacts(
        "dynpeer",
        &format!(
            "All {} sessions toward {neighbor} lost for 30 min",
            letter.deployment.name
        ),
        &t,
        world.population.locations.len(),
    )
}

/// `dynscale`: the columnar core at population scale. The world's ~2k
/// weighted locations are deterministically expanded to
/// [`crate::world::WorldConfig::dyn_population`] per-user rows (1M at
/// scale 1.0, or `repro --population N`), then the busiest letter's
/// hottest site flaps three times. Per-event metrics must match the
/// unexpanded engine's fractions — the expansion splits each source's
/// weight evenly — while the run summary's invalidation ledger
/// (`slice_users` vs `scan_equivalent_users`) shows that epoch
/// invalidation checked only the cohorts of groups the flap touched.
pub(crate) fn dynscale(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let mut eng = expanded_engine(world, Arc::clone(&letter.deployment), RecomputeMode::Incremental);
    let population = eng.population();
    let target = hottest_site(&eng);
    let scenario = Scenario::site_flap(
        format!("{}-scale-flap", letter.deployment.name),
        target,
        SimTime::from_secs(60.0),
        600_000.0,
        3,
        30_000.0,
        world.config.seed,
    );
    let n = eng.deployment().sites.len();
    let t = eng.run(&scenario);
    let (slice_users, scan_equiv) = eng.invalidation_ledger();
    let cohorts = eng.cohort_count();
    let mut arts = timeline_artifacts(
        "dynscale",
        &format!(
            "Hottest {} site ({target} of {n}) flapping 3× under {population} expanded users",
            letter.deployment.name
        ),
        &t,
        population,
    );
    if let Artifact::Table { rows, .. } = &mut arts[1] {
        rows.push(vec!["population".into(), population.to_string()]);
        rows.push(vec!["cohorts".into(), cohorts.to_string()]);
        rows.push(vec!["slice_users".into(), slice_users.to_string()]);
        rows.push(vec!["scan_equivalent_users".into(), scan_equiv.to_string()]);
    }
    arts
}

/// Up to three heaviest host-adjacent ASes that host no site of
/// `deployment`: the sessions whose loss reroutes the most user weight.
pub(super) fn heaviest_neighbors(eng: &DynamicsEngine<'_>, deployment: &AnycastDeployment) -> Vec<Asn> {
    eng.transit_loads()
        .into_iter()
        .map(|(asn, _)| asn)
        .filter(|asn| !deployment.sites.iter().any(|s| s.host == *asn))
        .take(3)
        .collect()
}

/// The columnar engine at [`crate::world::WorldConfig::dyn_population`]
/// scale in `mode`: the world's weighted locations deterministically
/// expanded to per-user rows (1M at scale 1.0, or `repro --population N`).
pub(super) fn expanded_engine<'w>(
    world: &'w World,
    deployment: Arc<AnycastDeployment>,
    mode: RecomputeMode,
) -> DynamicsEngine<'w> {
    let base = dyn_users(world);
    let counts = dynamics::expand_counts(
        &base.iter().map(|u| u.weight).collect::<Vec<_>>(),
        world.config.dyn_population(),
        world.config.seed,
    );
    DynamicsEngine::new_expanded(
        &world.internet.graph,
        deployment,
        world.model.clone(),
        &base,
        &counts,
        world.config.seed,
        mode,
    )
}

/// The load-management policies every `dynload*` experiment compares,
/// in fixed CSV row order. `None` ("none") is the measured baseline:
/// capacities are configured (so `overload_site_s` accrues) but no
/// controller is attached.
const LOAD_POLICIES: [Option<PolicyName>; 4] = [
    None,
    Some(PolicyName::Threshold),
    Some(PolicyName::Hysteresis),
    Some(PolicyName::Distributed),
];

/// Capacity table for an overload scenario, derived from the measured
/// pre-control stress state so the comparison is well-posed at any
/// world scale. A site the stress pushes above baseline gets capacity
/// for its baseline plus 60% of the increase — it *must* shed the
/// rest — but only when it has at least two entry sessions to shed
/// between: the engine never via-darkens a site, so a tight cap on a
/// single-session site would be overload no policy can act on,
/// identical noise in every row. Every other site gets its own
/// worst-case load plus 20% slack plus a spill budget equal to the
/// sum, over hit sites, of each site's *lightest* entry session:
/// sheds are quantized by session weight, so a careful policy's
/// overshoot (lightest sessions first) always fits, while a policy
/// that dumps heavy sessions overdraws the budget and turns its own
/// cure into receiver-side overload. That asymmetry is the
/// competition.
fn crowd_caps(
    init: &[f64],
    stressed: &[f64],
    sessions: &[Vec<(Asn, f64)>],
) -> SiteCapacities {
    let total: f64 = init.iter().sum();
    let floor = (total * 0.02).max(1.0);
    let hit: Vec<bool> = init
        .iter()
        .zip(stressed)
        .zip(sessions)
        .map(|((i, s), sess)| sess.len() >= 2 && *s > i * 1.05 + 1e-9)
        .collect();
    let spill_budget: f64 = sessions
        .iter()
        .zip(&hit)
        .filter(|(_, h)| **h)
        .map(|(sess, _)| sess.first().map_or(0.0, |(_, w)| *w))
        .sum();
    SiteCapacities::from_per_site(
        init.iter()
            .zip(stressed)
            .zip(&hit)
            .zip(sessions)
            .map(|(((i, s), h), sess)| {
                if *h {
                    // Never demand less than the heaviest single
                    // session can deliver: that session stays (the
                    // keep-one rule), so a cap below it would be
                    // residual overload shedding cannot clear.
                    let heaviest = sess.last().map_or(0.0, |(_, w)| *w);
                    (i + (s - i) * 0.6).max(heaviest * 1.01).max(floor)
                } else {
                    (i.max(*s) * 1.2 + spill_budget).max(floor)
                }
            })
            .collect(),
    )
}

/// Runs `scenario` once per [`LOAD_POLICIES`] entry over fresh
/// expanded engines sharing `caps`, and renders two artifacts: the
/// closed-loop (distributed) timeline as `{id}.csv`, and a per-policy
/// comparison as `{id}sum.csv` — overload-seconds, shed/release
/// ledger, controller rounds, and the latency cost of shedding.
fn load_family_artifacts(
    world: &World,
    id: &str,
    title: &str,
    deployment: &Arc<AnycastDeployment>,
    scenario: &Scenario,
    caps: &SiteCapacities,
) -> Vec<Artifact> {
    let mut runs: Vec<(Option<PolicyName>, Timeline, LoadLedger)> = Vec::new();
    let mut population = 0usize;
    for policy in LOAD_POLICIES {
        let mut eng =
            expanded_engine(world, Arc::clone(deployment), RecomputeMode::Incremental).with_capacities(caps.clone());
        if let Some(p) = policy {
            eng = eng.with_controller(p.controller());
        }
        let t = eng.run(scenario);
        population = eng.population();
        runs.push((policy, t, eng.load_ledger().clone()));
    }
    let sum_rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(policy, t, ledger)| {
            vec![
                policy.map_or("none", |p| p.as_str()).to_string(),
                format!("{:.3}", ledger.overload_site_s()),
                format!("{:.3}", ledger.overload_user_s()),
                format!("{:.3}", ledger.shed_users),
                format!("{:.3}", ledger.released_users),
                ledger.controller_rounds.to_string(),
                format!("{:.6}", ledger.shed_users / population.max(1) as f64),
                format!("{:.3}", t.max_inflation_ms()),
                format!(
                    "{:.3}",
                    t.records.last().and_then(|r| r.median_ms).unwrap_or(0.0)
                ),
            ]
        })
        .collect();
    let dist = runs
        .into_iter()
        .find(|(p, _, _)| *p == Some(PolicyName::Distributed))
        .map(|(_, t, _)| t)
        .expect("distributed policy always runs");
    vec![
        Artifact::Table {
            id: id.into(),
            title: format!("{title} — closed-loop (distributed) timeline"),
            header: Timeline::header(),
            rows: dist.rows(),
        },
        Artifact::Table {
            id: format!("{id}sum"),
            title: format!("{title} — policy comparison under {population} users"),
            header: vec![
                "policy".into(),
                "overload_site_s".into(),
                "overload_user_s".into(),
                "shed_users".into(),
                "released_users".into(),
                "controller_rounds".into(),
                "shed_frac".into(),
                "max_inflation_ms".into(),
                "final_median_ms".into(),
            ],
            rows: sum_rows,
        },
    ]
}

/// Site ids ranked by how much material load management has to work
/// with: entry-session count first (the engine sheds whole sessions
/// and always keeps one, so a one-session site is untouchable), then
/// load, then the lower id. Centering a surge on a raw-hottest site
/// can be vacuous at scales where that site's whole catchment arrives
/// through a single neighbor.
fn most_shedable_sites(eng: &DynamicsEngine<'_>) -> Vec<SiteId> {
    let loads = eng.site_loads();
    let sessions = eng.entry_sessions();
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| {
        sessions[b]
            .len()
            .cmp(&sessions[a].len())
            .then(loads[b].total_cmp(&loads[a]))
            .then(a.cmp(&b))
    });
    order.into_iter().map(|i| SiteId(i as u32)).collect()
}

/// The overload set-up every `dynload*` and `dynreplay` experiment
/// shares: the busiest letter's most-shedable site, its location, and
/// the [`crowd_caps`] table measured on a stress probe that scales
/// demand within `radius_km` of the site by `factor` — and, with
/// `fail_site`, then takes the site down, so the capacities brace the
/// receivers for its dumped catchment, not just the surge.
fn crowd_setup(
    world: &World,
    radius_km: f64,
    factor: f64,
    fail_site: bool,
) -> (SiteId, GeoPoint, SiteCapacities) {
    let letter = busiest_letter(world);
    let mut probe = expanded_engine(world, Arc::clone(&letter.deployment), RecomputeMode::Incremental);
    let init = probe.site_loads();
    let target = most_shedable_sites(&probe)[0];
    let center = letter.deployment.site(target).location;
    let mut stress = Scenario::new("stress").at(
        SimTime::from_secs(1.0),
        RoutingEvent::DemandScale { center, radius_km, factor },
    );
    if fail_site {
        stress = stress.at(SimTime::from_secs(2.0), RoutingEvent::SiteDown(target));
    }
    probe.run(&stress);
    (target, center, crowd_caps(&init, &probe.site_loads(), &probe.entry_sessions()))
}

/// `dynload`: a flash crowd on the busiest letter's most-shedable
/// catchment (most entry sessions, then most load) — demand within
/// 6000 km doubles for eight minutes with a controller tick every
/// minute. The four load policies replay the identical
/// scenario; the summary compares overload-seconds, shed volume, and
/// the latency price of shedding.
pub(crate) fn dynload(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let (radius_km, factor) = (6_000.0, 2.0);
    let (hot, center, caps) = crowd_setup(world, radius_km, factor, false);
    let scenario = Scenario::flash_crowd(
        format!("{}-crowd", letter.deployment.name),
        center,
        radius_km,
        factor,
        SimTime::from_secs(60.0),
        480_000.0,
        60_000.0,
    );
    load_family_artifacts(
        world,
        "dynload",
        &format!("Flash crowd x{factor} at {} {hot}", letter.deployment.name),
        &letter.deployment,
        &scenario,
        &caps,
    )
}

/// `dynload-surge`: a sharper, more local surge — demand within
/// 3000 km of the busiest letter's most-shedable site triples for six
/// minutes. Same epicenter as `dynload` but half the radius and half
/// again the intensity: the overload concentrates on one
/// multi-session catchment while everything outside the ring stays a
/// viable spillover target, the regime where lightest-session
/// shedding pays off most.
pub(crate) fn dynload_surge(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let (radius_km, factor) = (3_000.0, 3.0);
    let (target, center, caps) = crowd_setup(world, radius_km, factor, false);
    let scenario = Scenario::flash_crowd(
        format!("{}-surge", letter.deployment.name),
        center,
        radius_km,
        factor,
        SimTime::from_secs(60.0),
        360_000.0,
        60_000.0,
    );
    load_family_artifacts(
        world,
        "dynload-surge",
        &format!("Regional surge x{factor} at {} {target}", letter.deployment.name),
        &letter.deployment,
        &scenario,
        &caps,
    )
}

/// `dynload-cascade`: overload that *spreads* — demand around the
/// most-shedable site rises 1.5×, then the site itself fails under
/// the crowd, dumping its surged multi-session catchment onto
/// neighbors that were already near capacity. The site recovers after
/// seven minutes and the crowd subsides a minute later. Single-round
/// policies chase the cascade one tick at a time; the distributed
/// policy's bounded spillover recursion settles each epoch before the
/// clock moves.
pub(crate) fn dynload_cascade(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let (radius_km, factor) = (3_000.0, 1.5);
    let (target, center, caps) = crowd_setup(world, radius_km, factor, true);
    let scenario = Scenario::new(format!("{}-cascade", letter.deployment.name))
        .at(
            SimTime::from_secs(60.0),
            RoutingEvent::DemandScale { center, radius_km, factor },
        )
        .at(SimTime::from_secs(180.0), RoutingEvent::SiteDown(target))
        .ticks(SimTime::from_secs(240.0), 60_000.0, 6)
        .at(SimTime::from_secs(600.0), RoutingEvent::SiteUp(target))
        .at(
            SimTime::from_secs(660.0),
            RoutingEvent::DemandScale { center, radius_km, factor: 1.0 / factor },
        )
        .ticks(SimTime::from_secs(720.0), 60_000.0, 1);
    load_family_artifacts(
        world,
        "dynload-cascade",
        &format!(
            "Cascading overload: crowd x{factor} then {} {target} fails",
            letter.deployment.name
        ),
        &letter.deployment,
        &scenario,
        &caps,
    )
}

/// `dynreplay`: live traffic replay through churn — the experiment
/// that joins the paper's two halves under one event script. A
/// 15-minute DITL-style query stream (DNS users amortized through
/// resolver caches, CDN users paying per-connection RTT) replays
/// through a flash crowd *and* a site flap on the busiest letter,
/// once with a [`loadmgmt::NullController`] (observe-only baseline)
/// and once with the [`loadmgmt::DistributedController`]. The same
/// seed drives the same query stream in both runs, so every difference
/// in the per-window served-RTT percentiles and `overload_user_s` is
/// the controller's doing. Emits `dynreplay.csv` (per-policy
/// per-window serving stats) and `dynreplaysum.csv` (per-policy stream
/// totals).
pub(crate) fn dynreplay(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let (radius_km, factor) = (6_000.0, 2.0);
    let (target, center, caps) = crowd_setup(world, radius_km, factor, true);
    let scenario = Scenario::new(format!("{}-replay", letter.deployment.name))
        .at(
            SimTime::from_secs(120.0),
            RoutingEvent::DemandScale { center, radius_km, factor },
        )
        .at(SimTime::from_secs(180.0), RoutingEvent::SiteDown(target))
        .ticks(SimTime::from_secs(240.0), 60_000.0, 4)
        .at(SimTime::from_secs(480.0), RoutingEvent::SiteUp(target))
        .at(
            SimTime::from_secs(600.0),
            RoutingEvent::DemandScale { center, radius_km, factor: 1.0 / factor },
        )
        .ticks(SimTime::from_secs(660.0), 60_000.0, 2);
    let cfg = ReplayConfig {
        seed: world.config.seed,
        dns_uncacheable_share: workload::DitlConfig::default().uncacheable_share(),
        ..ReplayConfig::default()
    };
    let mut window_rows: Vec<Vec<String>> = Vec::new();
    let mut sum_rows: Vec<Vec<String>> = Vec::new();
    for policy in [PolicyName::Null, PolicyName::Distributed] {
        let mut eng = expanded_engine(world, Arc::clone(&letter.deployment), RecomputeMode::Incremental)
            .with_capacities(caps.clone())
            .with_controller(policy.controller());
        let outcome = replay(&mut eng, &scenario, &cfg);
        for w in &outcome.windows {
            window_rows.push(vec![
                policy.as_str().to_string(),
                format!("{:.0}", w.t_ms / 1_000.0),
                w.generated.to_string(),
                w.dns_queries.to_string(),
                w.cdn_queries.to_string(),
                w.served.to_string(),
                w.degraded.to_string(),
                format!("{:.3}", w.p50_ms),
                format!("{:.3}", w.p95_ms),
                format!("{:.3}", w.p99_ms),
                format!("{:.3}", w.overload_user_ms / 1_000.0),
            ]);
        }
        let ledger = eng.load_ledger();
        let last_p50 = outcome.windows.last().map_or(0.0, |w| w.p50_ms);
        sum_rows.push(vec![
            policy.as_str().to_string(),
            outcome.generated.to_string(),
            outcome.served.to_string(),
            outcome.degraded.to_string(),
            format!("{:.6}", outcome.served as f64 / outcome.generated.max(1) as f64),
            format!("{:.3}", ledger.overload_user_s()),
            format!("{:.3}", ledger.shed_users),
            ledger.controller_rounds.to_string(),
            format!("{:.3}", last_p50),
        ]);
    }
    vec![
        Artifact::Table {
            id: "dynreplay".into(),
            title: format!(
                "Replayed query stream through crowd x{factor} + {} {target} flap",
                letter.deployment.name
            ),
            header: vec![
                "policy".into(),
                "t_s".into(),
                "generated".into(),
                "dns_queries".into(),
                "cdn_queries".into(),
                "served".into(),
                "degraded".into(),
                "p50_ms".into(),
                "p95_ms".into(),
                "p99_ms".into(),
                "overload_user_s".into(),
            ],
            rows: window_rows,
        },
        Artifact::Table {
            id: "dynreplaysum".into(),
            title: "Replay stream totals — null vs distributed control".into(),
            header: vec![
                "policy".into(),
                "generated".into(),
                "served".into(),
                "degraded".into(),
                "served_frac".into(),
                "overload_user_s".into(),
                "shed_users".into(),
                "controller_rounds".into(),
                "final_p50_ms".into(),
            ],
            rows: sum_rows,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ReplayConfig::default()` hard-codes the uncacheable share it
    /// cites from the DITL junk mix; `dynreplay` replaces it with the
    /// mix itself, and the two must not drift apart.
    #[test]
    fn replay_uncacheable_default_matches_the_ditl_mix() {
        let ditl = workload::DitlConfig::default().uncacheable_share();
        let replay = ReplayConfig::default().dns_uncacheable_share;
        assert!((ditl - replay).abs() < 0.005, "DITL mix {ditl}, replay default {replay}");
    }
}
