//! The closed loop's scale claim: per-epoch controller cost is
//! population-independent.
//!
//! The controller observes per-site loads and entry sessions, both
//! computed in one pass over *cohorts*, and its decisions are staged
//! per-neighbor withholds — so a `dynload`-style flash crowd with the
//! distributed policy attached must cost the same per epoch at 1M
//! users as at 100k (the work scales with catchment structure, not
//! with how many users each cohort fans out to). The acceptance
//! criterion is recorded as `ratio_1m_vs_100k` in the `dynamics_load`
//! section of `results/dynamics_bench.json`.

use anycast_bench::bench_world;
use anycast_core::World;
use criterion::{criterion_group, criterion_main, Criterion};
use dynamics::{expand_counts, DynUser, DynamicsEngine, RecomputeMode, RoutingEvent, Scenario};
use loadmgmt::DistributedController;
use netsim::SimTime;
use std::sync::Arc;
use topology::{Asn, SiteId};

const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

fn dyn_users(world: &World) -> Vec<DynUser> {
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

fn expanded_engine(world: &World, population: usize) -> DynamicsEngine<'_> {
    let letter = world
        .letters
        .letters
        .iter()
        .max_by_key(|l| l.deployment.global_site_count())
        .expect("letters exist");
    let base = dyn_users(world);
    let counts = expand_counts(
        &base.iter().map(|u| u.weight).collect::<Vec<_>>(),
        population,
        2021,
    );
    DynamicsEngine::new_expanded(
        &world.internet.graph,
        Arc::clone(&letter.deployment),
        world.model.clone(),
        &base,
        &counts,
        2021,
        RecomputeMode::Incremental,
    )
}

/// The `dynload` capacity shape: surged multi-session sites must shed
/// 40% of their increase (but never below their heaviest session);
/// everyone else gets slack for the careful policy's overshoot.
fn crowd_caps(
    init: &[f64],
    stressed: &[f64],
    sessions: &[Vec<(Asn, f64)>],
) -> analysis::SiteCapacities {
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
    analysis::SiteCapacities::from_per_site(
        init.iter()
            .zip(stressed)
            .zip(&hit)
            .zip(sessions)
            .map(|(((i, s), h), sess)| {
                if *h {
                    let heaviest = sess.last().map_or(0.0, |(_, w)| *w);
                    (i + (s - i) * 0.6).max(heaviest * 1.01).max(floor)
                } else {
                    (i.max(*s) * 1.2 + spill_budget).max(floor)
                }
            })
            .collect(),
    )
}

/// Builds one closed-loop engine at `population`: probe the flash
/// crowd's stressed loads, restore, then attach probe-derived
/// capacities and the distributed controller. Returns the engine and
/// the crowd scenario it will replay.
fn closed_loop_engine(world: &World, population: usize) -> (DynamicsEngine<'_>, Scenario) {
    let mut eng = expanded_engine(world, population);
    let init = eng.site_loads();
    let sessions = eng.entry_sessions();
    let mut order: Vec<usize> = (0..init.len()).collect();
    order.sort_by(|&a, &b| {
        sessions[b]
            .len()
            .cmp(&sessions[a].len())
            .then(init[b].total_cmp(&init[a]))
            .then(a.cmp(&b))
    });
    let target = SiteId(order[0] as u32);
    let center = eng.deployment().site(target).location;
    let (radius_km, factor) = (6_000.0, 2.0);
    eng.run(&Scenario::new("probe").at(
        SimTime::from_secs(1.0),
        RoutingEvent::DemandScale { center, radius_km, factor },
    ));
    let caps = crowd_caps(&init, &eng.site_loads(), &eng.entry_sessions());
    eng.run(&Scenario::new("restore").at(
        SimTime::from_secs(1.0),
        RoutingEvent::DemandScale { center, radius_km, factor: 1.0 / factor },
    ));
    let eng = eng
        .with_capacities(caps)
        .with_controller(Box::new(DistributedController::default()));
    let scenario = Scenario::flash_crowd(
        "bench-load-crowd",
        center,
        radius_km,
        factor,
        SimTime::from_secs(60.0),
        300_000.0,
        60_000.0,
    );
    (eng, scenario)
}

fn bench(c: &mut Criterion) {
    let world = bench_world();
    let mut rigs: Vec<(DynamicsEngine<'_>, Scenario)> =
        POPULATIONS.iter().map(|&p| closed_loop_engine(&world, p)).collect();

    let mut group = c.benchmark_group("dynamics_load_epoch");
    group.sample_size(10);
    for ((eng, scenario), &pop) in rigs.iter_mut().zip(&POPULATIONS) {
        group.bench_function(format!("{pop}_users"), |b| {
            b.iter(|| criterion::black_box(eng.run(scenario)).records.len())
        });
    }
    group.finish();

    // Recorded summary: minimum ms per epoch at each population (the
    // minimum of repeated runs estimates intrinsic cost; anything above
    // it is scheduler interference), plus the load ledger proving the
    // controller actually worked each run.
    const RUNS: usize = 15;
    let mut sections = Vec::new();
    let mut per_epoch = Vec::new();
    for ((eng, scenario), &pop) in rigs.iter_mut().zip(&POPULATIONS) {
        eng.run(scenario);
        let mut timeline = None;
        let mut samples = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let t = std::time::Instant::now();
            timeline = Some(eng.run(scenario));
            samples.push(t.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        let secs = samples[0];
        let timeline = timeline.expect("ran");
        let events = timeline.records.len().saturating_sub(1).max(1);
        let ms_per_epoch = secs * 1000.0 / events as f64;
        per_epoch.push(ms_per_epoch);
        let ledger = eng.load_ledger();
        assert!(
            ledger.controller_rounds >= 1,
            "the crowd must make the controller act at {pop} users"
        );
        sections.push(format!(
            "{{\"population\": {pop}, \"cohorts\": {}, \"events\": {events}, \
             \"ms_per_epoch\": {ms_per_epoch:.3}, \
             \"controller_rounds\": {}, \"shed_users\": {:.3}}}",
            eng.cohort_count(),
            ledger.controller_rounds,
            ledger.shed_users,
        ));
    }
    let ratio = if per_epoch[1] > 0.0 { per_epoch[2] / per_epoch[1] } else { 0.0 };
    let json = format!(
        "{{\"scenario\": \"flash-crowd x2 + distributed controller\", \"runs\": [{}], \
         \"ratio_1m_vs_100k\": {ratio:.3}}}",
        sections.join(", "),
    );
    anycast_bench::record_bench_section("dynamics_load", &json);
    println!("dynamics closed-loop scale sweep: {json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
