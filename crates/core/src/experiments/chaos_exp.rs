//! `dynchaos`: the long-horizon chaos campaign — thousands of mixed
//! routing and load incidents against the columnar engine at expanded
//! population scale, with the full invariant catalogue checked after
//! every epoch and the full-recompute oracle consulted every Nth.
//!
//! Two storms run back to back over the busiest root letter:
//!
//! * a **routing** storm (site flaps, staged drains, peering loss) on a
//!   plain engine, and
//! * a **load** storm (the same families plus regional surges, capacity
//!   dips, and live controller-policy churn) on a capacity-aware engine
//!   under a hysteresis controller.
//!
//! The artifact is a storm-summary CSV: one row per storm with the
//! incident/event/epoch counts, oracle consultations, violation count
//! (the gate value — anything non-zero is a found bug), and the
//! worst-case transient. On a violation the campaign additionally
//! delta-debugs the storm down to a minimal failing incident list and
//! emits it as a replayable reproducer artifact.

use super::dynamics_exp::{busiest_letter, expanded_engine, heaviest_neighbors, hottest_site};
use crate::artifact::Artifact;
use crate::world::World;
use analysis::SiteCapacities;
use chaos::{
    generate, minimize, run_storm, ChaosOptions, ChaosReport, Reproducer, StormConfig,
    StormRegime,
};
use dynamics::RecomputeMode;
use netsim::SimTime;
use std::sync::Arc;

/// Incidents per storm. Each expands to 1–2 scheduled events plus
/// engine-scheduled drain follow-ups, so the two storms together
/// comfortably clear 2,000 processed events.
const INCIDENTS_PER_STORM: usize = 800;

/// Oracle cadence, epochs. One check is one in-place re-rank of every
/// cohort (`DynamicsEngine::verify_full_recompute`), cheap enough to
/// run every 4th epoch.
const ORACLE_EVERY: u64 = 4;

fn summary_row(storm: &str, regime: StormRegime, incidents: usize, r: &ChaosReport) -> Vec<String> {
    vec![
        storm.into(),
        regime.as_str().into(),
        incidents.to_string(),
        r.events.to_string(),
        r.epochs.to_string(),
        r.oracle_checks.to_string(),
        r.violations.len().to_string(),
        format!("{:.6}", r.timeline.max_shifted_frac()),
        format!("{:.3}", r.timeline.total_degraded_queries()),
        format!("{:.1}", r.overload_user_s),
        r.controller_rounds.to_string(),
        format!("{:.1}", r.shed_users),
    ]
}

/// Runs the two storms and renders the summary (plus a reproducer
/// artifact per violating storm, normally none).
pub(crate) fn dynchaos(world: &World) -> Vec<Artifact> {
    let letter = busiest_letter(world);
    let dep = &letter.deployment;
    let seed = world.config.seed;
    let probe = expanded_engine(world, Arc::clone(dep), RecomputeMode::Incremental);
    let population = probe.population();
    let neighbors = heaviest_neighbors(&probe, dep);
    let hot = hottest_site(&probe);
    let centers: Vec<_> = dep.sites.iter().map(|s| s.location).collect();
    let caps = SiteCapacities::from_headroom(&probe.site_loads(), 1.25, 1.0);
    drop(probe);

    // Counter-based ledger identities are skipped: `obs` counters are
    // process-global and `repro` fans experiments out across worker
    // threads, so a concurrent `dyn*` run would poison the deltas. The
    // engine-local invariants and the oracle don't have that problem;
    // the counter identities are exercised by the chaos crate's own
    // (serialized) test suite.
    let opts = |name: &str| ChaosOptions {
        name: name.into(),
        oracle_every: ORACLE_EVERY,
        counter_checks: false,
        synthetic_violation_label: None,
        stop_on_violation: false,
    };

    let routing_cfg = StormConfig {
        seed,
        incidents: INCIDENTS_PER_STORM,
        start: SimTime::from_secs(60.0),
        mean_gap_ms: 45_000.0,
        sites: dep.sites.len() as u32,
        neighbors: neighbors.clone(),
        centers: vec![],
        rings: 0,
        regime: StormRegime::Routing,
    };
    let load_cfg = StormConfig {
        seed: seed ^ 0x9e37_79b9,
        incidents: INCIDENTS_PER_STORM,
        start: SimTime::from_secs(60.0),
        mean_gap_ms: 45_000.0,
        sites: dep.sites.len() as u32,
        neighbors,
        centers,
        rings: 0,
        regime: StormRegime::Load,
    };

    let mut rows = Vec::new();
    let mut arts = Vec::new();
    for (name, cfg, with_load) in
        [("routing", &routing_cfg, false), ("load", &load_cfg, true)]
    {
        let caps = caps.clone();
        let factory = move |mode: RecomputeMode| {
            let eng = expanded_engine(world, Arc::clone(dep), mode);
            if with_load {
                eng.with_capacities(caps.clone())
                    .with_controller(Box::new(loadmgmt::HysteresisController::default()))
            } else {
                eng
            }
        };
        let incidents = generate(cfg);
        let report = run_storm(&factory, &incidents, &opts(name));
        rows.push(summary_row(name, cfg.regime, incidents.len(), &report));
        if !report.ok() {
            // Surface the evidence immediately: minimization re-runs
            // the storm many times and can take far longer than the
            // campaign itself at full scale.
            for v in &report.violations {
                eprintln!("dynchaos[{name}] violation: {v}");
            }
            let min = minimize(&factory, &incidents, &opts(name), 120);
            let repro = Reproducer {
                name: name.into(),
                seed: cfg.seed,
                oracle_every: ORACLE_EVERY,
                synthetic: None,
                incidents: min.incidents,
                notes: report.violations.iter().map(|v| v.to_string()).collect(),
            };
            arts.push(Artifact::Text {
                id: format!("dynchaos-repro-{name}"),
                title: format!("Minimal reproducer for the violating {name} storm"),
                body: repro.render(),
            });
        }
    }

    arts.insert(
        0,
        Artifact::Table {
            id: "dynchaos".into(),
            title: format!(
                "Chaos campaign: 2x{INCIDENTS_PER_STORM} incidents on {} ({} sites, site {hot} \
                 hottest) under {population} expanded users, oracle every {ORACLE_EVERY} epochs",
                dep.name,
                dep.sites.len()
            ),
            header: vec![
                "storm".into(),
                "regime".into(),
                "incidents".into(),
                "events".into(),
                "epochs".into(),
                "oracle_checks".into(),
                "violations".into(),
                "max_shifted_frac".into(),
                "total_degraded_queries".into(),
                "overload_user_s".into(),
                "controller_rounds".into(),
                "shed_users".into(),
            ],
            rows,
        },
    );
    arts
}
