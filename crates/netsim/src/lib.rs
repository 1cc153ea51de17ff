#![warn(missing_docs)]

//! Packet-level network substrate over routed paths.
//!
//! The topology crate decides *where* traffic goes; this crate decides
//! *how long it takes* and what measurable artifacts it leaves behind:
//!
//! * [`clock`] — simulated time (no wall clock anywhere in the
//!   reproduction),
//! * [`latency`] — the RTT model: fiber propagation along the routed
//!   path, per-hop forwarding overhead, last-mile access delay, and
//!   stochastic jitter,
//! * [`tcp`] — the TCP behaviour the paper measures through: handshake
//!   RTTs (the server-side latency measurements of §2.2) and the
//!   slow-start transfer model of Eq. 4 plus Appendix C's parallel-
//!   connection page-load RTT lower bound,
//! * [`probe`] — ping and traceroute, the RIPE-Atlas-style active
//!   measurements of §5.2/§7.1,
//! * [`capture`] — timestamped record containers standing in for the
//!   DITL PCAPs and CDN server-side logs.

pub mod capture;
pub mod clock;
pub mod latency;
pub mod probe;
pub mod tcp;

pub use capture::Capture;
pub use clock::{SimClock, SimTime};
pub use latency::{sample_standard_normal, LastMile, LatencyModel, PathProfile};
pub use probe::{median_ping_ms, ping, traceroute, TracerouteHop};
pub use tcp::TransportProfile;
