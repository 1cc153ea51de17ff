#![warn(missing_docs)]

//! Geographic primitives for the anycast-context reproduction.
//!
//! Everything in the paper that touches distance — geographic inflation
//! (Eq. 1), the latency lower bound used by Eq. 2, site "coverage" radii
//! (Fig. 7b) — reduces to great-circle geometry plus a propagation-delay
//! model. This crate provides:
//!
//! * [`GeoPoint`] — a latitude/longitude pair with great-circle
//!   ([`GeoPoint::distance_km`]) and constructive geometry helpers,
//! * [`latency`] — speed-of-light-in-fiber constants and the paper's
//!   `2cf/3` achievable-latency lower bound,
//! * [`Region`] and [`Continent`] — the ⟨region⟩ half of the paper's
//!   ⟨region, AS⟩ user-location granularity,
//! * [`world`] — a deterministic synthetic world map of population
//!   centers standing in for Microsoft's 508 internal regions.
//!
//! All geometry is spherical (mean Earth radius); the sub-0.5% error of
//! ignoring the ellipsoid is far below the noise floor of any latency
//! measurement the paper works with.

pub mod coord;
pub mod latency;
pub mod region;
pub mod world;

pub use coord::GeoPoint;
pub use latency::km_to_rtt_lower_bound_ms;
pub use region::{Continent, Region};
pub use world::WorldMap;
