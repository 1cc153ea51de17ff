//! The `dynamics` workload: three parts, run in this order in every
//! pass, all on the million-user incremental engine over the busiest
//! root letter:
//!
//! - churn writes engine state: a routing storm and a load storm
//!   stepped epoch by epoch with the invariant catalogue checked after
//!   each, no oracle;
//! - replay reads it: a 4-hour query stream in one-minute windows
//!   through a crowd and a flap under a distributed controller;
//! - storm runs the chaos harness with its lockstep full-recompute
//!   oracle.

use crate::alloc;
use crate::probe::{DecideStats, EpochLog, TimedController};
use crate::trace::{Counters, Digest, Trace};
use crate::{Pass, Workload};
use analysis::SiteCapacities;
use anycast_core::World;
use chaos::{
    check_epoch, generate, run_storm, scenario_from, switch_schedule, ChaosOptions, ChaosReport,
    Incident, IncidentKind, StormConfig, StormRegime,
};
use dynamics::{
    DynUser, DynamicsEngine, EpochStepper, RecomputeMode, RoutingEvent, Scenario, Timeline,
};
use loadmgmt::{DistributedController, HysteresisController};
use netsim::SimTime;
use replay::{replay, ReplayConfig};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use topology::{AnycastDeployment, SiteId};

/// Incidents of each family in a routing and a load storm, in the
/// proportions `chaos::generate` draws them. The storms keep exactly
/// these counts, so a second world runs the same mix.
type Quota = [(Family, usize); 7];

/// `churn`'s storms: 35 incidents per regime, a short pass, so a run
/// times many.
const CHURN_ROUTING: Quota = [
    (Family::Flap, 12),
    (Family::Drain, 9),
    (Family::Peering, 7),
    (Family::Tick, 7),
    (Family::Surge, 0),
    (Family::Cap, 0),
    (Family::Switch, 0),
];
const CHURN_LOAD: Quota = [
    (Family::Flap, 7),
    (Family::Drain, 4),
    (Family::Peering, 3),
    (Family::Tick, 4),
    (Family::Surge, 7),
    (Family::Cap, 7),
    (Family::Switch, 3),
];
/// `storm`'s storms: 8 incidents per regime.
const STORM_ROUTING: Quota = [
    (Family::Flap, 3),
    (Family::Drain, 2),
    (Family::Peering, 2),
    (Family::Tick, 1),
    (Family::Surge, 0),
    (Family::Cap, 0),
    (Family::Switch, 0),
];
const STORM_LOAD: Quota = [
    (Family::Flap, 2),
    (Family::Drain, 1),
    (Family::Peering, 1),
    (Family::Tick, 1),
    (Family::Surge, 1),
    (Family::Cap, 1),
    (Family::Switch, 1),
];
/// `storm`'s oracle cadence, as in the `dynchaos` experiment.
const ORACLE_EVERY: u64 = 16;
/// `replay`'s serving windows (one minute each): a short pass, so a run
/// times several.
const REPLAY_WINDOWS: u32 = 240;

/// What every dynamics workload builds its engines from: the busiest
/// letter's deployment and the expanded user population.
struct Base<'w> {
    world: &'w World,
    /// The workload seed: the storms' start time and the query draws.
    seed: u64,
    dep: Arc<AnycastDeployment>,
    users: Vec<DynUser>,
    counts: Vec<u32>,
}

impl<'w> Base<'w> {
    /// Prepares the population and builds one probe engine, timed and
    /// with its heap recorded when traced.
    fn new(world: &'w World, seed: u64, trace: Option<&mut Trace>) -> (Self, DynamicsEngine<'w>) {
        let letter = world
            .letters
            .letters
            .iter()
            .fold(None::<&dns::letters::RootLetter>, |best, l| match best {
                Some(b) if b.deployment.global_site_count() >= l.deployment.global_site_count() => {
                    Some(b)
                }
                _ => Some(l),
            })
            .expect("letter set is non-empty");
        let total_users = world.population.total_users();
        let total_qpd = world.ditl.total_queries_per_day();
        let users: Vec<DynUser> = world
            .population
            .locations
            .iter()
            .map(|l| DynUser {
                asn: l.asn,
                location: world.internet.world.region(l.region).center,
                weight: l.users,
                queries_per_day: total_qpd * l.users / total_users,
            })
            .collect();
        let weights: Vec<f64> = users.iter().map(|u| u.weight).collect();
        let counts =
            dynamics::expand_counts(&weights, world.config.dyn_population(), world.config.seed);
        let base = Self {
            world,
            seed,
            dep: Arc::clone(&letter.deployment),
            users,
            counts,
        };
        let (heap, t) = (alloc::live(), Instant::now());
        let probe = base.engine(RecomputeMode::Incremental);
        if let Some(trace) = trace {
            trace.add("dynamics.engine_build_s", t.elapsed().as_secs_f64());
            trace.set("dynamics.engine_heap_mb", alloc::mb(alloc::live() - heap));
        }
        (base, probe)
    }

    fn engine(&self, mode: RecomputeMode) -> DynamicsEngine<'w> {
        DynamicsEngine::new_expanded(
            &self.world.internet.graph,
            Arc::clone(&self.dep),
            self.world.model,
            &self.users,
            &self.counts,
            self.world.config.seed,
            mode,
        )
    }

    /// A routing and a load storm from `chaos::generate`, as `dynchaos`
    /// configures them from the world seed, cut to the given quotas, and
    /// the capacities the load storm runs under. The workload seed sets
    /// when the storms start, which changes every timestamp but not the
    /// work: with seed-drawn incidents the work itself moved `run_s` by
    /// a fifth from seed to seed.
    fn storms(&self, probe: &DynamicsEngine<'_>, routing: &Quota, load: &Quota) -> Storms {
        let seed = self.world.config.seed;
        let neighbors: Vec<_> = probe
            .transit_loads()
            .into_iter()
            .map(|(asn, _)| asn)
            .filter(|asn| !self.dep.sites.iter().any(|s| s.host == *asn))
            .take(3)
            .collect();
        let start = SimTime::from_secs(60.0 + (par::seed_for(self.seed, 0) % 600) as f64);
        let storm = |seed, regime, centers, quota: &Quota| {
            let total: usize = quota.iter().map(|q| q.1).sum();
            let cfg = StormConfig {
                seed,
                incidents: 8 * total,
                start,
                mean_gap_ms: 45_000.0,
                sites: self.dep.sites.len() as u32,
                neighbors: neighbors.clone(),
                centers,
                rings: 0,
                regime,
            };
            take_quota(generate(&cfg), quota)
        };
        let centers = self.dep.sites.iter().map(|s| s.location).collect();
        Storms {
            routing: storm(seed, StormRegime::Routing, vec![], routing),
            load: storm(seed ^ 0x9e37_79b9, StormRegime::Load, centers, load),
            caps: SiteCapacities::from_headroom(&probe.site_loads(), 1.25, 1.0),
        }
    }

    /// `replay`'s inputs: a crowd around the hottest site, then that
    /// site down and back up, under capacities from the probe's loads.
    fn replay_inputs(&self, probe: &DynamicsEngine<'_>) -> ReplayInputs {
        let loads = probe.site_loads();
        let hot = (0..loads.len()).fold(0, |b, i| if loads[i] > loads[b] { i } else { b });
        let hot = SiteId(hot as u32);
        let center = self.dep.site(hot).location;
        let min = |m: f64| SimTime::from_secs(60.0 * m);
        let crowd = |factor| RoutingEvent::DemandScale {
            center,
            radius_km: 6_000.0,
            factor,
        };
        let scenario = Scenario::new("replay")
            .at(min(20.0), crowd(2.0))
            .at(min(40.0), RoutingEvent::SiteDown(hot))
            .ticks(min(50.0), 600_000.0, 8)
            .at(min(140.0), RoutingEvent::SiteUp(hot))
            .at(min(160.0), crowd(0.5))
            .ticks(min(180.0), 600_000.0, 4);
        let cfg = ReplayConfig {
            seed: self.seed,
            horizon_ms: f64::from(REPLAY_WINDOWS) * 60_000.0,
            dns_uncacheable_share: workload::DitlConfig::default().uncacheable_share(),
            ..ReplayConfig::default()
        };
        ReplayInputs {
            scenario,
            caps: SiteCapacities::from_headroom(&loads, 1.25, 1.0),
            cfg,
        }
    }
}

/// A routing and a load storm, and the capacities the load storm runs
/// under.
struct Storms {
    routing: Vec<Incident>,
    load: Vec<Incident>,
    caps: SiteCapacities,
}

/// What `replay::replay` is given.
struct ReplayInputs {
    scenario: Scenario,
    caps: SiteCapacities,
    cfg: ReplayConfig,
}

/// Incident families, as quotas count them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Flap,
    Drain,
    Peering,
    Tick,
    Surge,
    Cap,
    Switch,
}

fn family(kind: &IncidentKind) -> Option<Family> {
    Some(match kind {
        IncidentKind::Flap { .. } => Family::Flap,
        IncidentKind::Drain { .. } => Family::Drain,
        IncidentKind::PeeringFlap { .. } => Family::Peering,
        IncidentKind::Tick => Family::Tick,
        IncidentKind::Surge { .. } => Family::Surge,
        IncidentKind::CapacityDip { .. } => Family::Cap,
        IncidentKind::PolicySwitch { .. } => Family::Switch,
        IncidentKind::SwapCycle { .. } => return None,
    })
}

/// The earliest incidents of each family up to its quota, in time
/// order. Every sublist of a storm is itself a legal storm.
///
/// # Panics
///
/// Panics when the storm is too short to fill a quota.
fn take_quota(storm: Vec<Incident>, quota: &Quota) -> Vec<Incident> {
    let mut left = *quota;
    let out: Vec<Incident> = storm
        .into_iter()
        .filter(|inc| {
            let slot = left.iter_mut().find(|q| Some(q.0) == family(&inc.kind));
            match slot {
                Some(q) if q.1 > 0 => {
                    q.1 -= 1;
                    true
                }
                _ => false,
            }
        })
        .collect();
    assert!(
        left.iter().all(|q| q.1 == 0),
        "storm too short for its quota"
    );
    out
}

fn digest_timeline(d: &mut Digest, t: &Timeline) {
    for row in t.rows() {
        for cell in row {
            d.str(&cell);
        }
    }
}

/// Steps `incidents` through `eng` as the chaos harness does, minus the
/// oracle: controller switches apply before the epoch they precede, and
/// `chaos::check_epoch` (no counter baseline) runs after every epoch.
/// An epoch fails when the check reports a violation. Each epoch's
/// wall time, stepping plus checking, is one unit of `pass`.
fn step_storm(
    eng: &mut DynamicsEngine<'_>,
    incidents: &[Incident],
    decide: Option<&Rc<DecideStats>>,
    mut log: Option<&mut EpochLog>,
    pass: &mut Pass,
    digest: &mut Digest,
) {
    let scenario = scenario_from("storm", incidents);
    let switches = switch_schedule(incidents);
    let population = eng.population();
    let mut violations = Vec::new();
    let (mut epochs, mut si) = (0u64, 0usize);
    let mut stepper = EpochStepper::new(eng, &scenario);
    loop {
        if let Some(next) = stepper.next_time() {
            while si < switches.len() && switches[si].0.as_ms() <= next.as_ms() {
                eng.set_controller(Some(TimedController::wrap(
                    switches[si].1.controller(),
                    decide,
                )));
                si += 1;
            }
        }
        let before = stepper.records().len();
        let ts = Instant::now();
        if !stepper.step(eng) {
            break;
        }
        let step_secs = ts.elapsed().as_secs_f64();
        epochs += 1;
        let new = &stepper.records()[before..];
        if let Some(log) = log.as_deref_mut() {
            log.push(&new[0].event, step_secs);
        }
        let seen = violations.len();
        check_epoch(eng, new, population, None, epochs, &mut violations);
        pass.units.push(ts.elapsed().as_secs_f64());
        pass.work += 1;
        pass.attempted += 1;
        if violations.len() > seen {
            pass.failed += 1;
        }
    }
    let timeline = stepper.finish(eng);
    for v in &violations {
        println!("violation: {v}");
    }
    digest_timeline(digest, &timeline);
}

/// `dynamics`: the whole dynamics stack in one pass, on engines built
/// fresh from one population — churn, then replay, then storm.
pub struct Dynamics<'w> {
    base: Base<'w>,
    churn: Storms,
    replay: ReplayInputs,
    storm: Storms,
}

impl<'w> Dynamics<'w> {
    /// Builds the probe engine, then every part's storms, scenario and
    /// capacities from it.
    pub fn new(world: &'w World, seed: u64, trace: Option<&mut Trace>) -> Self {
        let (base, probe) = Base::new(world, seed, trace);
        let churn = base.storms(&probe, &CHURN_ROUTING, &CHURN_LOAD);
        let storm = base.storms(&probe, &STORM_ROUTING, &STORM_LOAD);
        let replay = base.replay_inputs(&probe);
        Self {
            base,
            churn,
            replay,
            storm,
        }
    }

    /// `churn`: the routing storm, then the load storm under a
    /// hysteresis controller, one unit per epoch. Engines are built
    /// before each epoch's clock starts, so the units are all stepping
    /// and checking. Traced, the `obs` counter deltas cover this part.
    fn churn(&self, trace: Option<&mut Trace>, pass: &mut Pass, digest: &mut Digest) {
        let counters = Counters::read();
        let decide = trace.is_some().then(|| Rc::new(DecideStats::default()));
        let mut log = trace.is_some().then(EpochLog::default);
        let mut eng = self.base.engine(RecomputeMode::Incremental);
        step_storm(
            &mut eng,
            &self.churn.routing,
            decide.as_ref(),
            log.as_mut(),
            pass,
            digest,
        );
        drop(eng);
        let mut eng = self
            .base
            .engine(RecomputeMode::Incremental)
            .with_capacities(self.churn.caps.clone())
            .with_controller(TimedController::wrap(
                Box::new(HysteresisController::default()),
                decide.as_ref(),
            ));
        step_storm(
            &mut eng,
            &self.churn.load,
            decide.as_ref(),
            log.as_mut(),
            pass,
            digest,
        );
        let rounds = eng.load_ledger().controller_rounds;
        digest.num(rounds as f64);
        if let Some(trace) = trace {
            counters.record_layers(trace);
            decide.expect("traced").record(trace);
            log.expect("traced").record(trace);
            trace.add("loadmgmt.controller_rounds", rounds as f64);
        }
    }

    fn replay_engine(&self, decide: Option<&Rc<DecideStats>>) -> DynamicsEngine<'w> {
        self.base
            .engine(RecomputeMode::Incremental)
            .with_capacities(self.replay.caps.clone())
            .with_controller(TimedController::wrap(
                Box::new(DistributedController::default()),
                decide,
            ))
    }

    /// `replay`: one unit. Each window counts as an operation; it fails
    /// when served plus degraded queries differ from those generated.
    fn replay(&self, trace: Option<&mut Trace>, pass: &mut Pass, digest: &mut Digest) {
        let decide = trace.is_some().then(|| Rc::new(DecideStats::default()));
        let mut eng = self.replay_engine(decide.as_ref());
        let t = Instant::now();
        let out = replay(&mut eng, &self.replay.scenario, &self.replay.cfg);
        let secs = t.elapsed().as_secs_f64();
        pass.units.push(secs);
        for w in &out.windows {
            pass.work += 1;
            pass.attempted += 1;
            if w.served + w.degraded != w.generated {
                pass.failed += 1;
            }
            for v in [
                w.generated,
                w.dns_queries,
                w.cdn_queries,
                w.served,
                w.degraded,
            ] {
                digest.num(v as f64);
            }
            for v in [w.p50_ms, w.p95_ms, w.p99_ms, w.overload_user_ms] {
                digest.num(v);
            }
        }
        let mut timeline = Digest::default();
        digest_timeline(&mut timeline, &out.timeline);
        digest.bytes(&timeline.value().to_le_bytes());
        let rounds = eng.load_ledger().controller_rounds;
        drop(eng);
        let Some(trace) = trace else { return };
        decide.expect("traced").record(trace);
        trace.add("loadmgmt.controller_rounds", rounds as f64);
        // The same scenario's epochs alone, on an identical engine: what
        // replay spends beyond them is window serving.
        let mut eng = self.replay_engine(None);
        let t = Instant::now();
        let mut stepper = EpochStepper::new(&eng, &self.replay.scenario);
        while stepper.step(&mut eng) {}
        let epochs_only = stepper.finish(&mut eng);
        let epoch_secs = t.elapsed().as_secs_f64();
        let mut same = Digest::default();
        digest_timeline(&mut same, &epochs_only);
        if same.value() != timeline.value() {
            println!("check: the epochs-only timeline differs from replay's");
            pass.failed += 1;
        }
        let population: u64 = self.base.counts.iter().map(|&c| u64::from(c)).sum();
        trace.set("replay.serve_s", secs - epoch_secs);
        trace.set("replay.serve_share", (secs - epoch_secs) / secs);
        trace.set(
            "replay.user_window_draws",
            (population * out.windows.len() as u64) as f64,
        );
        trace.set("replay.query_equivalents", out.generated as f64);
        trace.set(
            "replay.served_frac",
            out.served as f64 / out.generated.max(1) as f64,
        );
    }

    /// Runs one regime's storm through `run_storm` with a timed engine
    /// factory.
    fn run_storm(
        &self,
        incidents: &[Incident],
        with_load: bool,
        oracle_every: u64,
        builds: &Cell<(u64, f64)>,
    ) -> (f64, ChaosReport) {
        let factory = |mode: RecomputeMode| {
            let t = Instant::now();
            let eng = self.base.engine(mode);
            let eng = if with_load {
                eng.with_capacities(self.storm.caps.clone())
                    .with_controller(Box::new(HysteresisController::default()))
            } else {
                eng
            };
            let (n, s) = builds.get();
            builds.set((n + 1, s + t.elapsed().as_secs_f64()));
            eng
        };
        let opts = ChaosOptions {
            name: if with_load { "load" } else { "routing" }.into(),
            oracle_every,
            counter_checks: false,
            synthetic_violation_label: None,
            stop_on_violation: false,
        };
        let t = Instant::now();
        let report = run_storm(&factory, incidents, &opts);
        (t.elapsed().as_secs_f64(), report)
    }

    /// `storm`: the chaos harness with its lockstep oracle, one unit per
    /// regime. Each checked epoch counts as an operation; it fails when
    /// it appears in the report's violations.
    fn storm(&self, trace: Option<&mut Trace>, pass: &mut Pass, digest: &mut Digest) {
        let builds = Cell::new((0u64, 0.0));
        let regimes = [(&self.storm.routing, false), (&self.storm.load, true)];
        let (mut secs, mut epochs, mut checks) = (0.0, 0, 0);
        for (incidents, with_load) in regimes {
            let (s, report) = self.run_storm(incidents, with_load, ORACLE_EVERY, &builds);
            let mut bad: Vec<u64> = report.violations.iter().map(|v| v.epoch).collect();
            bad.dedup();
            for v in &report.violations {
                println!("violation: {v}");
            }
            pass.units.push(s);
            pass.work += report.epochs;
            pass.attempted += report.epochs;
            pass.failed += bad.len() as u64;
            for v in [
                report.epochs,
                report.events,
                report.oracle_checks,
                report.controller_rounds,
            ] {
                digest.num(v as f64);
            }
            digest_timeline(digest, &report.timeline);
            secs += s;
            epochs += report.epochs;
            checks += report.oracle_checks;
        }
        let Some(trace) = trace else { return };
        let (n, s) = builds.get();
        trace.set("chaos.engine_builds", n as f64);
        trace.set("chaos.engine_build_s", s);
        trace.set("chaos.epochs", epochs as f64);
        trace.set("chaos.oracle_checks", checks as f64);
        // The same storms with no oracle: the difference is what the
        // lockstep oracle costs.
        let no_oracle: f64 = regimes
            .into_iter()
            .map(|(incidents, with_load)| {
                self.run_storm(incidents, with_load, 0, &Cell::new((0, 0.0))).0
            })
            .sum();
        trace.set("chaos.oracle_s", secs - no_oracle);
        trace.set("chaos.oracle_share", (secs - no_oracle) / secs);
    }
}

impl Workload for Dynamics<'_> {
    /// Work unit: engine operations — churn and storm epochs and replay
    /// windows.
    fn pass(&mut self, mut trace: Option<&mut Trace>) -> Pass {
        let mut pass = Pass::default();
        let mut digest = Digest::default();
        self.churn(trace.as_deref_mut(), &mut pass, &mut digest);
        self.replay(trace.as_deref_mut(), &mut pass, &mut digest);
        self.storm(trace, &mut pass, &mut digest);
        pass.digest = digest.value();
        pass
    }
}
