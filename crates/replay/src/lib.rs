//! Live traffic-replay serving mode: streams DITL-style query traffic
//! *through* the routing-dynamics engine as simulated time advances.
//!
//! The batch pipeline asks "where would these users land?"; this crate
//! asks the operational question the paper's two systems disagree on:
//! "what do the queries actually experience while routing churns?"
//! Each replay window draws per-user query counts from the engine's
//! per-user query volumes (`QuerySchedule`), resolves them against the
//! *current* catchment, pays the *current* anycast RTT, and feeds the
//! served load back into whatever `loadmgmt` controller the engine
//! carries — so a flash crowd sheds, a flap degrades, and the replayed
//! stream feels both.
//!
//! The query model joins the paper's two halves:
//!
//! - **DNS users** (the `.nl`/B-root half) are *amortized*: resolver
//!   caches absorb all but the uncacheable share plus the cacheable
//!   miss rate, via [`dns::resolver::amortized_root_rate`], so a user's
//!   root-visible rate is a small fraction of their daily demand.
//! - **CDN users** (the Wikipedia half) are *per-connection*: every
//!   query opens a connection and pays the full anycast RTT, scaled by
//!   [`ReplayConfig::cdn_conns_per_query`].
//!
//! Determinism is the same contract as the rest of the workspace:
//! every random draw is a pure function of `(seed, window, user)` via
//! `par::seed_for`, shards merge their [`obs::MetricSheet`]s in shard
//! index order, and the per-window statistics are byte-identical at
//! any `--threads` value.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod schedule;

pub use driver::replay;
pub use schedule::ReplayConfig;
