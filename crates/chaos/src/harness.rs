//! The storm harness: drives a storm through the engine's
//! [`EpochStepper`] epoch by epoch, running the invariant catalogue
//! after every epoch and the on-demand full-recompute oracle every
//! Nth, with optional controller-policy churn applied between epochs.
//!
//! The harness owns no world: the caller supplies an **engine
//! factory** — a closure building an identically-configured engine for
//! a given [`RecomputeMode`] — so the same harness runs a 4-site test
//! world or the million-user columnar expansion unchanged, and the
//! minimizer can rebuild fresh engines per delta-debugging probe. The
//! harness itself only ever asks for [`RecomputeMode::Incremental`]:
//! the oracle re-ranks inside the live engine, so no shadow engine is
//! built.

use crate::invariants::{self, CounterBaseline, Violation};
use crate::storm::{scenario_from, switch_schedule, Incident};
use dynamics::{DynamicsEngine, EpochStepper, RecomputeMode, Timeline};

/// Builds an identically-configured engine in the requested mode. Must
/// be pure: two calls with the same mode must yield engines that replay
/// a scenario byte-identically (every minimizer probe depends on it).
pub(crate) type EngineFactory<'g> = dyn Fn(RecomputeMode) -> DynamicsEngine<'g> + 'g;

/// Knobs of one harness run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Storm name (becomes the scenario and timeline name).
    pub name: String,
    /// Run the on-demand full-recompute oracle every N epochs
    /// (0 = never).
    pub oracle_every: u64,
    /// Check the global-counter ledger identities (requires that no
    /// other engine runs concurrently in the process — `obs` counters
    /// are process-global).
    pub counter_checks: bool,
    /// Fault injection for testing the harness itself: any epoch whose
    /// event label contains this substring raises a synthetic
    /// violation. The acceptance path for the minimizer and the CI
    /// reproducer artifact.
    pub synthetic_violation_label: Option<String>,
    /// Stop stepping at the first violation (minimizer probes want
    /// this; a survey run may prefer the full list).
    pub stop_on_violation: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            name: "storm".into(),
            oracle_every: 16,
            counter_checks: true,
            synthetic_violation_label: None,
            stop_on_violation: true,
        }
    }
}

/// Everything one storm run produces.
#[derive(Debug)]
pub struct ChaosReport {
    /// Epochs stepped (including controller rounds' parent epochs, not
    /// counting `"init"`).
    pub epochs: u64,
    /// Routing events processed (scenario events plus engine-scheduled
    /// drain follow-ups).
    pub events: u64,
    /// Oracle comparisons performed.
    pub oracle_checks: u64,
    /// Violations found, in discovery order (empty = storm survived).
    pub violations: Vec<Violation>,
    /// The incremental engine's timeline.
    pub timeline: Timeline,
    /// The engine's load ledger at the end of the storm (all zero
    /// without capacities/controller).
    pub shed_users: f64,
    /// Controller decision rounds taken.
    pub controller_rounds: u64,
    /// Accumulated overload exposure, user-seconds.
    pub overload_user_s: f64,
}

impl ChaosReport {
    /// Whether the storm completed with zero invariant violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `incidents` through an engine from `factory`, checking the
/// invariant catalogue after every epoch (see [`crate::invariants`]).
/// With `opts.oracle_every > 0`, every Nth epoch also runs the
/// on-demand full-recompute oracle
/// ([`DynamicsEngine::verify_full_recompute`]) on the live engine.
///
/// Emits the `chaos.*` counter family: `chaos.incidents`,
/// `chaos.epochs`, `chaos.oracle_checks`, `chaos.violations`.
pub fn run_storm<'g>(
    factory: &EngineFactory<'g>,
    incidents: &[Incident],
    opts: &ChaosOptions,
) -> ChaosReport {
    let span = obs::span!("chaos.storm", name = opts.name.as_str());
    let scenario = scenario_from(opts.name.clone(), incidents);
    let switches = switch_schedule(incidents);
    obs::counter_add("chaos.incidents", incidents.len() as u64);

    let mut eng = factory(RecomputeMode::Incremental);
    let population = eng.population();
    let mut stepper = EpochStepper::new(&eng, &scenario);
    let baseline = opts.counter_checks.then(CounterBaseline::capture);

    let mut violations: Vec<Violation> = Vec::new();
    let mut epochs = 0u64;
    let mut oracle_checks = 0u64;
    let mut si = 0usize;
    loop {
        // Controller churn scheduled at or before the next epoch takes
        // effect for that epoch — the operator flipped the policy
        // before the event landed.
        if let Some(next) = stepper.next_time() {
            while si < switches.len() && switches[si].0.as_ms() <= next.as_ms() {
                eng.set_controller(Some(switches[si].1.controller()));
                si += 1;
            }
        }
        let before = stepper.records().len();
        if !stepper.step(&mut eng) {
            break;
        }
        epochs += 1;
        let new = &stepper.records()[before..];
        invariants::check_epoch(&eng, new, population, baseline.as_ref(), epochs, &mut violations);
        if let Some(label) = &opts.synthetic_violation_label {
            for r in new {
                if r.event.contains(label.as_str()) {
                    violations.push(Violation {
                        epoch: epochs,
                        t_ms: r.t_ms,
                        invariant: "synthetic",
                        detail: format!("injected fault matched '{}' in '{}'", label, r.event),
                    });
                }
            }
        }
        if opts.oracle_every > 0 && epochs % opts.oracle_every == 0 {
            oracle_checks += 1;
            invariants::check_full_recompute(&mut eng, new, epochs, &mut violations);
        }
        if !violations.is_empty() && opts.stop_on_violation {
            break;
        }
    }
    let events = stepper.events_processed();
    let timeline = stepper.finish(&mut eng);
    // The drain identity only closes once `finish` ledgers the staged
    // remainder — and only when the storm ran to completion (an early
    // stop leaves queued follow-ups unapplied by design).
    if violations.is_empty() {
        invariants::check_final(baseline.as_ref(), &mut violations);
    }
    obs::counter_add("chaos.epochs", epochs);
    obs::counter_add("chaos.oracle_checks", oracle_checks);
    obs::counter_add("chaos.violations", violations.len() as u64);
    span.add_items(epochs);
    let ll = eng.load_ledger();
    ChaosReport {
        epochs,
        events,
        oracle_checks,
        violations,
        timeline,
        shed_users: ll.shed_users,
        controller_rounds: ll.controller_rounds,
        overload_user_s: ll.overload_user_s(),
    }
}
