#![warn(missing_docs)]

//! The second of the paper's two systems: a Microsoft-like anycast CDN.
//!
//! * [`rings`] — the CDN's content AS (front-ends collocated with every
//!   peering PoP) and its nested anycast rings R28 ⊂ R47 ⊂ R74 ⊂ R95 ⊂
//!   R110 (§2.2). Rings exist for regulatory scoping, not performance;
//!   users are always routed to the largest allowed ring.
//! * [`logs`] — server-side connection logs: TCP handshake RTTs per
//!   ⟨region, AS⟩ per front-end, the dataset behind §6's inflation
//!   numbers.
//! * [`measurement`] — the client-side measurement system (Odin-like):
//!   clients fetch a small object from *every* ring so ring comparisons
//!   hold the user population fixed (Fig. 4b).
//! * [`pageload`] — Appendix C: synthetic page-load connection plans and
//!   the 10-RTT lower-bound estimate that converts per-RTT anycast
//!   latency into per-page-load user impact (§5.1).

pub mod logs;
pub mod measurement;
pub mod pageload;
pub mod rings;

pub use logs::ServerSideLogs;
pub use measurement::ClientMeasurements;
pub use pageload::{PageLoadStudy, PAGE_LOAD_RTTS};
pub use rings::{Cdn, CdnConfig};
