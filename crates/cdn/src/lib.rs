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

use netsim::{LastMile, LatencyModel, PathProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rings::Ring;
use topology::gen::{Internet, UserLocation};
use topology::{Catchment, RouteCache, SiteAssignment};

/// The measurement loop [`ServerSideLogs::collect`] and
/// [`ClientMeasurements::collect`] share. For each ring, under a
/// `cdn.ring` span, it routes every ⟨region, AS⟩ user location from its
/// region's center and hands `row` the ring, the location, the
/// assignment and the median of `samples` pings over that path
/// ([`netsim::median_ping_ms`]; one RNG seeded with `seed` draws them
/// all, ring by ring, location by location). An unroutable location
/// bumps the `unroutable` counter instead.
fn ring_location_medians(
    internet: &Internet,
    cdn: &Cdn,
    model: &LatencyModel,
    samples: u32,
    seed: u64,
    unroutable: &'static str,
    mut row: impl FnMut(&Ring, UserLocation, &SiteAssignment, f64),
) {
    let mut cache = RouteCache::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let locations = internet.user_locations();
    for ring in &cdn.rings {
        let _ring_span = obs::span!("cdn.ring", name = ring.name);
        let catchment = Catchment::compute(
            &internet.graph,
            std::sync::Arc::clone(&ring.deployment),
            &mut cache,
        );
        for &loc in &locations {
            let user_point = internet.world.region(loc.region).center;
            let Some(assignment) = catchment.assign(loc.asn, &user_point) else {
                obs::counter_add(unroutable, 1);
                continue;
            };
            let profile = PathProfile::from_assignment(&assignment, LastMile::Broadband);
            let median_ms = netsim::median_ping_ms(model, &profile, samples as usize, &mut rng);
            row(ring, loc, &assignment, median_ms);
        }
    }
}
