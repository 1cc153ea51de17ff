//! [`EpochStepper`]: the epoch loop of [`DynamicsEngine::run`], one epoch
//! per call.

use super::DynamicsEngine;
use crate::event::EventQueue;
use crate::scenario::Scenario;
use crate::timeline::{EpochRecord, Timeline};
use netsim::SimTime;

/// A resumable run of one scenario: the exact epoch loop of
/// [`DynamicsEngine::run`], surrendered one epoch at a time so a
/// streaming consumer can interleave its own work — serving replayed
/// queries, say — between epochs while the engine's clock, overload
/// accrual, and controller rounds behave byte-identically to a plain
/// run.
///
/// Usage: [`EpochStepper::new`], then [`EpochStepper::step`] until it
/// returns `false` (peeking [`EpochStepper::next_time`] to schedule
/// work before each epoch applies), then [`EpochStepper::finish`] for
/// the [`Timeline`]. `run` itself is implemented as a stepper driven
/// with no between-epoch work, which is what pins the equivalence.
#[derive(Debug)]
pub struct EpochStepper {
    queue: EventQueue,
    timeline: Timeline,
    processed: u64,
}

impl EpochStepper {
    /// Starts a stepped run of `scenario` over `eng`. The timeline
    /// opens with the engine's `"init"` record, exactly as
    /// [`DynamicsEngine::run`] does.
    pub fn new(eng: &DynamicsEngine<'_>, scenario: &Scenario) -> Self {
        let mut timeline = Timeline::new(scenario.name.clone());
        timeline.records.push(eng.init_record().clone());
        Self {
            queue: EventQueue::from_events(scenario.events.iter().copied()),
            timeline,
            processed: 0,
        }
    }

    /// When the next epoch will fire, or `None` when the scenario (and
    /// every engine-scheduled follow-up) is exhausted. Between-epoch
    /// work scheduled strictly before this instant observes the state
    /// the epoch is about to change.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Applies the next epoch — every pending event at the next
    /// instant, as one batch — and appends its records to the
    /// timeline. Overloaded-site time accrues for the interval ending
    /// now (loads were constant since the last epoch closed) before
    /// the clock advances. Returns `false` (doing nothing) once the
    /// queue is exhausted.
    pub fn step(&mut self, eng: &mut DynamicsEngine<'_>) -> bool {
        let Some(first) = self.queue.pop() else { return false };
        // One epoch = every pending event at this exact instant.
        let mut batch = vec![first.event];
        while self
            .queue
            .next_time()
            .is_some_and(|t| t.as_ms().total_cmp(&first.at.as_ms()).is_eq())
        {
            batch.push(self.queue.pop().expect("peeked").event);
        }
        if eng.capacities.is_some() {
            let dt = first.at.as_ms() - eng.clock.now().as_ms();
            if dt > 0.0 {
                let (over, excess) = eng.overload_snapshot();
                if over > 0 {
                    eng.load_ledger.overload_site_ms += dt * over as f64;
                    eng.load_ledger.overload_user_ms += dt * excess;
                }
            }
        }
        eng.clock.advance_to(first.at);
        obs::counter_add("dynamics.events_processed", batch.len() as u64);
        self.processed += batch.len() as u64;
        self.timeline.records.extend(eng.epoch(&batch, &mut self.queue));
        obs::counter_add("dynamics.epochs", 1);
        true
    }

    /// Events applied so far (the scenario's plus engine-scheduled
    /// follow-ups).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Timeline records accumulated so far — the `"init"` record plus
    /// one or more per stepped epoch.
    pub fn records(&self) -> &[EpochRecord] {
        &self.timeline.records
    }

    /// Closes the run's ledgers (staged-drain and `dynamics.load.*`
    /// counters, exactly as [`DynamicsEngine::run`] emits them) and
    /// returns the timeline.
    pub fn finish(self, eng: &mut DynamicsEngine<'_>) -> Timeline {
        // Close the drain ledger: whatever is still draining when the
        // script runs out stays staged, so
        // `started = staged + aborted + completed` always balances.
        let staged = eng.drains.iter().flatten().count();
        if staged > 0 {
            obs::counter_add("dynamics.drain.staged", staged as u64);
        }
        // Close the load ledger. Overload left standing after the last
        // event accrues nothing (there is no later instant to measure
        // to), which is why controller scenarios end with a restore
        // plus a trailing tick. Emitted only when a controller is
        // attached, so controller-less runs leave metrics untouched.
        if eng.controller.is_some() {
            obs::counter_add(
                "dynamics.load.shed_users",
                eng.load_ledger.shed_users.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.released_users",
                eng.load_ledger.released_users.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.overload_ms",
                eng.load_ledger.overload_site_ms.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.overload_user_ms",
                eng.load_ledger.overload_user_ms.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.controller_rounds",
                eng.load_ledger.controller_rounds,
            );
        }
        self.timeline
    }
}
