//! Routing dynamics: deterministic discrete-event simulation of
//! anycast deployments under operational churn.
//!
//! The static pipeline answers "where does traffic land?"; this crate
//! answers "what happens while that answer is changing?". A
//! [`Scenario`] scripts routing events — site failures and recoveries,
//! load-aware gradual maintenance drains, peering losses, and ring
//! promotions/demotions that swap the whole effective deployment
//! between nested rings (see [`DynamicsEngine::with_swap_set`]) — onto
//! `netsim`'s simulated clock; the [`DynamicsEngine`] replays them
//! over a deployment and emits a per-epoch [`Timeline`]: users shifted, latency inflation, stylized convergence time,
//! queries landing degraded, capacity headroom, and how much per-user
//! work the engine's incremental recomputation saved over a full
//! sweep.
//!
//! Two semantics set this engine apart from a naive event loop, both
//! specified in `docs/DYNAMICS.md`:
//!
//! * **Batched epochs** — every event sharing one `SimTime` applies as
//!   a single epoch with one incremental recompute and defined
//!   precedence; opposing same-timestamp pairs (`SiteUp` + `SiteDown`
//!   of one site) cancel into a recorded no-op flap, so scenario
//!   authors are never insertion-order-sensitive.
//! * **Load-aware drains** — a drain escalates through staged
//!   per-neighbor withholds (lightest sessions first) and, when the
//!   engine carries `analysis` capacities, every stage is checked
//!   against surviving sites' load limits; a stage that would overload
//!   a survivor aborts the drain and rolls the catchment back
//!   byte-identically instead of committing.
//!
//! On top of both sits *closed-loop load management*: attach a
//! `loadmgmt` controller ([`DynamicsEngine::with_controller`]) and
//! each epoch ends with up to `max_rounds` observe → decide → apply
//! rounds at the same `SimTime` — per-neighbor session sheds and
//! releases recorded as `ctrl[…]` timeline rows and ledgered under
//! `dynamics.load.*` (see [`LoadLedger`]). Demand-side events
//! ([`RoutingEvent::DemandScale`], [`RoutingEvent::LoadTick`]) script
//! the flash crowds and controller cadences the `dynload` experiment
//! family compares policies on.
//!
//! Everything is deterministic: the event queue breaks time ties by
//! insertion order, jitter derives from `par`'s per-index seed streams,
//! and re-ranking fans out on `par::ordered_map` — so a scenario's
//! timeline is byte-identical at any `--threads` value.

#![deny(missing_docs)]

pub mod columnar;
pub mod engine;
pub mod event;
pub mod scenario;
pub mod timeline;

pub use columnar::expand_counts;
pub use engine::{
    DynUser, DynamicsEngine, EpochStepper, LoadLedger, MismatchKind, RecomputeMode, ServingCohort,
};
pub use event::{RoutingEvent, ScheduledEvent};
pub use scenario::Scenario;
pub use timeline::{EpochRecord, Timeline};
