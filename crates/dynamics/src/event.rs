//! Routing events and the deterministic discrete-event queue.
//!
//! A [`RoutingEvent`] is one atomic change to a deployment's announced
//! state — the operational vocabulary of anycast: sites failing and
//! recovering, operators draining sites for maintenance, the deployment
//! losing (or regaining) all peering sessions toward one neighbor AS,
//! ring promotions and demotions, and demand and capacity changes. The
//! `EventQueue` orders them by simulated time with insertion order as
//! the tie-break, so a timeline replays identically on every run — the
//! engine's whole output hangs off this ordering.

use geo::GeoPoint;
use netsim::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use topology::{Asn, SiteId};

/// One atomic routing change applied to a deployment at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoutingEvent {
    /// The site fails abruptly and its announcement is withdrawn.
    SiteDown(SiteId),
    /// The site recovers and re-announces.
    SiteUp(SiteId),
    /// A load-aware maintenance drain begins. The site hands its
    /// catchment off gradually: each stage withholds the announcement
    /// from a growing slice of the host's neighbor sessions
    /// (lightest-loaded first), and the final stage withdraws the site
    /// entirely. Drains are the one event family that generates
    /// follow-up events inside the simulation — the engine schedules
    /// each [`RoutingEvent::DrainStage`] and the closing
    /// [`RoutingEvent::DrainEnd`] itself, and only once the stage's
    /// post-recompute load check passes (see the engine's drain state
    /// machine and `docs/DYNAMICS.md`).
    DrainStart {
        /// Site being drained.
        site: SiteId,
        /// Simulated time between successive stage escalations.
        stage_ms: f64,
        /// Total escalation stages, the last being the full withdrawal.
        /// `1` degenerates to the old binary down/up drain.
        stages: u32,
        /// How long the fully-drained site stays down before
        /// re-announcing (the maintenance window proper).
        hold_ms: f64,
    },
    /// Engine-scheduled escalation of a running drain. `gen` is the
    /// drain's generation stamp: a stage whose generation no longer
    /// matches (the drain was aborted, completed, or restarted in the
    /// meantime) is a recorded no-op.
    DrainStage {
        /// Site being drained.
        site: SiteId,
        /// Generation stamp of the drain this stage belongs to.
        gen: u64,
    },
    /// Maintenance drain ends: the site re-announces. Generation-stamped
    /// like [`RoutingEvent::DrainStage`].
    DrainEnd {
        /// Site whose drain ends.
        site: SiteId,
        /// Generation stamp of the drain this end belongs to.
        gen: u64,
    },
    /// The deployment loses every peering/transit session toward one
    /// neighbor AS: all hosts stop announcing to it (the withhold
    /// machinery of §7.1, flipped from optimization to outage).
    PeeringDown(Asn),
    /// Sessions toward the neighbor come back.
    PeeringUp(Asn),
    /// Ring promotion: the engine's effective deployment is replaced by
    /// entry `to` of its registered swap set
    /// (`DynamicsEngine::with_swap_set`) — one batched epoch of site
    /// additions and removals with a single recompute; surviving sites
    /// keep their ids (the rings are nested). Named for the CDN
    /// operation it scripts (R74 → R95). A same-`SimTime`
    /// promote+demote pair targeting one ring cancels into a recorded
    /// no-op.
    RingPromote {
        /// Index of the target deployment in the engine's swap set.
        to: u32,
    },
    /// Ring demotion: the inverse operation (R95 → R74). See
    /// [`RoutingEvent::RingPromote`].
    RingDemote {
        /// Index of the target deployment in the engine's swap set.
        to: u32,
    },
    /// Demand within `radius_km` of `center` scales by `factor`: every
    /// user cohort there multiplies its weight and query volume — the
    /// flash-crowd / regional-surge primitive. A demand change moves
    /// no announcements, so assignments are untouched; only loads (and
    /// any attached load controller's view of them) change. Restore
    /// with a second event carrying the reciprocal factor.
    DemandScale {
        /// Center of the demand change.
        center: GeoPoint,
        /// Radius of the affected region, km.
        radius_km: f64,
        /// Multiplier applied to cohort weight and queries per day
        /// (must be positive and finite).
        factor: f64,
    },
    /// The site's serving capacity scales by `factor` — hardware added
    /// or removed, a rack failure inside a healthy site, a provisioning
    /// change. Like [`RoutingEvent::DemandScale`] it moves no
    /// announcements, so assignments are untouched; only the headroom
    /// ledger (and any attached load controller's decisions) see it.
    /// On an engine without capacities it is a recorded no-op. Restore
    /// with a second event carrying the reciprocal factor.
    CapacityScale {
        /// Site whose capacity changes.
        site: SiteId,
        /// Multiplier applied to the site's capacity (must be positive
        /// and finite).
        factor: f64,
    },
    /// A scheduled no-op observation point: the epoch applies nothing,
    /// but an attached load controller still runs its decision rounds
    /// — how scenarios give a controller a cadence between routing
    /// events (and how oscillating policies are caught oscillating).
    LoadTick,
}

/// An event bound to a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEvent {
    /// When the event fires.
    pub at: SimTime,
    /// What happens.
    pub event: RoutingEvent,
}

/// Heap entry: time first, then insertion sequence so simultaneous
/// events replay in the order they were scheduled.
#[derive(Debug)]
struct Queued {
    at_ms: f64,
    seq: u64,
    event: RoutingEvent,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms.total_cmp(&other.at_ms) == Ordering::Equal && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, seq) out first.
        other
            .at_ms
            .total_cmp(&self.at_ms)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-queue of [`ScheduledEvent`]s.
///
/// Ordering is `(time, insertion sequence)`: ties in simulated time
/// resolve to whichever event was pushed first, never to heap
/// internals, so the replay order is a pure function of the pushes.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Queued>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds a queue from a scenario's event list (pushed in order, so
    /// list order breaks simultaneous-event ties).
    pub(crate) fn from_events(events: impl IntoIterator<Item = ScheduledEvent>) -> Self {
        let mut q = Self::new();
        for e in events {
            q.push(e.at, e.event);
        }
        q
    }

    /// Schedules `event` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics on NaN times — an event must fire at a real instant.
    pub(crate) fn push(&mut self, at: SimTime, event: RoutingEvent) {
        assert!(!at.as_ms().is_nan(), "event time must not be NaN");
        self.heap.push(Queued { at_ms: at.as_ms(), seq: self.seq, event });
        self.seq += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap
            .pop()
            .map(|q| ScheduledEvent { at: SimTime(q.at_ms), event: q.event })
    }

    /// The firing time of the earliest pending event, if any — what the
    /// engine uses to gather every event sharing one `SimTime` into a
    /// single batched epoch.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|q| SimTime(q.at_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30.0), RoutingEvent::SiteUp(SiteId(0)));
        q.push(SimTime::from_secs(10.0), RoutingEvent::SiteDown(SiteId(0)));
        q.push(SimTime::from_secs(20.0), RoutingEvent::PeeringDown(Asn(9)));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.as_secs()).collect();
        assert_eq!(order, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        q.push(t, RoutingEvent::SiteDown(SiteId(1)));
        q.push(t, RoutingEvent::SiteDown(SiteId(2)));
        q.push(t, RoutingEvent::SiteDown(SiteId(0)));
        let order: Vec<RoutingEvent> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(
            order,
            vec![
                RoutingEvent::SiteDown(SiteId(1)),
                RoutingEvent::SiteDown(SiteId(2)),
                RoutingEvent::SiteDown(SiteId(0)),
            ]
        );
    }

    #[test]
    fn next_time_previews_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(SimTime::from_secs(9.0), RoutingEvent::SiteUp(SiteId(0)));
        q.push(SimTime::from_secs(4.0), RoutingEvent::SiteDown(SiteId(0)));
        assert_eq!(q.next_time(), Some(SimTime::from_secs(4.0)));
        let first = q.pop().map(|e| e.at);
        assert_eq!(first, Some(SimTime::from_secs(4.0)), "peeking must not consume");
        assert_eq!(q.next_time(), Some(SimTime::from_secs(9.0)));
        q.pop();
        assert_eq!(q.next_time(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_event_time_panics() {
        EventQueue::new().push(SimTime(f64::NAN), RoutingEvent::SiteUp(SiteId(0)));
    }
}
