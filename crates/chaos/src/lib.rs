//! Long-horizon chaos/storm testing for the anycast dynamics stack.
//!
//! The crate answers one question: does the incremental million-user
//! engine stay *exactly* correct when battered for hours of simulated
//! time by thousands of interleaved incidents — site flaps, staged
//! drains, ring swaps, peering loss, demand surges, capacity dips,
//! and controller-policy churn?
//!
//! Four pieces:
//!
//! - [`storm`]: a **seed-pure storm generator**. Incidents are paired
//!   episodes (outage + recovery, surge + reciprocal restore), so every
//!   sublist of a storm is itself a legal storm — the property the
//!   minimizer's delta debugging relies on.
//! - [`invariants`]: the per-epoch **invariant catalogue** (user
//!   conservation, recompute and drain/load ledger identities, record
//!   sanity) plus the exact-equality full-recompute oracle checks.
//! - [`harness`]: [`run_storm`] drives a storm through an
//!   [`dynamics::EpochStepper`], checking after every epoch and
//!   re-ranking every cohort in place (the on-demand oracle) every Nth.
//! - [`minimize`](mod@minimize) + [`repro`]: on violation, delta-debug the storm to a
//!   minimal failing incident list and write it as a **replayable
//!   reproducer file** (`Reproducer::parse` + [`run_storm`] replays
//!   it bit-for-bit).
//!
//! Typical flow (engine factory elided):
//!
//! ```ignore
//! let incidents = chaos::generate(&storm_config);
//! let report = chaos::run_storm(&factory, &incidents, &ChaosOptions::default());
//! if !report.ok() {
//!     let min = chaos::minimize(&factory, &incidents, &opts, 200);
//!     reproducer.write(Path::new("chaos_repro.txt"))?;
//! }
//! ```

#![deny(missing_docs)]

pub mod harness;
pub mod invariants;
pub mod minimize;
pub mod repro;
pub mod storm;

pub use harness::{run_storm, ChaosOptions, ChaosReport};
pub use invariants::{check_epoch, check_full_recompute, compare_oracle};
pub use minimize::minimize;
pub use repro::Reproducer;
pub use storm::{
    event_total, generate, scenario_from, switch_schedule, Incident, IncidentKind, StormConfig,
    StormRegime,
};
