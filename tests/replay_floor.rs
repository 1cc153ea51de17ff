//! The replay hot path's single-core floor: one thread replays at
//! least 618,611 user-window draws per second through the live
//! dynamics engine.
//!
//! The floor is 10M query-equivalents/s restated in the unit the
//! serving loop actually iterates. One run of this scenario is
//! 200,000 users × 15 windows = 3,000,000 draws carrying 48,495,825
//! query-equivalents (a cohort's batch is one histogram update), so
//! 10M query-equivalents/s = 10M × 3,000,000 / 48,495,825 ≈ 618,611
//! draws/s. The test pins the query-equivalent count too, so the
//! conversion cannot silently go stale.
//!
//! Its own test binary on purpose: `par::set_threads` is
//! process-global, and a sibling test must neither race the thread
//! count nor share the cores while the floor is timed.

mod common;

use anycast_context::core::experiments::dynamics_exp::{busiest_letter, dyn_users, hottest_site};
use anycast_context::dynamics::{
    expand_counts, DynamicsEngine, RecomputeMode, RoutingEvent, Scenario,
};
use anycast_context::netsim::SimTime;
use anycast_context::replay::{replay, ReplayConfig};
use anycast_context::World;
use std::sync::Arc;
use std::time::Instant;

const POPULATION: usize = 200_000;
const WINDOWS: u64 = 15;
const QUERY_EQUIVALENTS: u64 = 48_495_825;
const FLOOR_DRAWS_PER_SEC: f64 = 618_611.0;
/// Timed runs; the minimum estimates the intrinsic cost (see
/// docs/BENCHMARKS.md, min-of-N).
const RUNS: usize = 7;

#[test]
fn replay_sustains_the_single_core_draw_floor() {
    let world = World::build(&common::sweep_config());
    let letter = busiest_letter(&world);
    let base = dyn_users(&world);
    let counts =
        expand_counts(&base.iter().map(|u| u.weight).collect::<Vec<_>>(), POPULATION, 2021);
    let mut eng = DynamicsEngine::new_expanded(
        &world.internet.graph,
        Arc::clone(&letter.deployment),
        world.model,
        &base,
        &counts,
        2021,
        RecomputeMode::Incremental,
    );
    // The hottest site flaps mid-horizon: the stream crosses two
    // catchment changes without turning this into an epoch-cost test.
    let hot = hottest_site(&eng);
    let scenario = Scenario::new("replay-floor-flap")
        .at(SimTime::from_secs(300.0), RoutingEvent::SiteDown(hot))
        .at(SimTime::from_secs(600.0), RoutingEvent::SiteUp(hot));
    let cfg = ReplayConfig { seed: 2021, ..ReplayConfig::default() };

    par::set_threads(1);
    let mut outcome = replay(&mut eng, &scenario, &cfg); // untimed warm-up
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        let t = Instant::now();
        outcome = replay(&mut eng, &scenario, &cfg);
        best = best.min(t.elapsed().as_secs_f64());
    }
    par::set_threads(0);

    assert_eq!(outcome.windows.len() as u64, WINDOWS);
    assert_eq!(
        outcome.generated, QUERY_EQUIVALENTS,
        "the draws → query-equivalents conversion behind the floor is stale"
    );
    assert_eq!(
        outcome.served + outcome.degraded,
        outcome.generated,
        "every generated query must be served or degraded"
    );
    let draws = (POPULATION as u64 * WINDOWS) as f64;
    let draws_per_sec = draws / best;
    println!(
        "replay floor: {draws_per_sec:.0} draws/s ({:.0} query-equivalents/s), \
         best of {RUNS}: {best:.6} s",
        QUERY_EQUIVALENTS as f64 / best
    );
    assert!(
        draws_per_sec >= FLOOR_DRAWS_PER_SEC,
        "replay must sustain {FLOOR_DRAWS_PER_SEC:.0} draws/s on one core, \
         measured {draws_per_sec:.0}"
    );
}
