//! The round-trip-time model.
//!
//! An RTT in the reproduction decomposes as:
//!
//! ```text
//! rtt = stretch · (2 · path_km / cf)   fiber along the routed path,
//!                                      with a stretch factor because fiber
//!                                      conduits don't follow great circles
//!     + per_hop · hops                 forwarding/serialization overhead
//!     + last_mile                      access-network delay (eyeballs)
//!     + jitter                         lognormal queueing noise
//! ```
//!
//! The *routing* circuitousness (choosing a far site, hot-potato detours)
//! is already in `path_km` — the topology produced it. The stretch factor
//! covers the residual physical indirection of real fiber, calibrated so
//! that measured RTTs sit above the paper's `2cf/3` achievable bound
//! (Eq. 2) but can approach it on clean direct paths.

use geo::latency::SPEED_OF_LIGHT_FIBER_KM_PER_MS;
use rand::Rng;
use serde::{Deserialize, Serialize};
use topology::SiteAssignment;

/// Access-technology delay added once per RTT.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LastMile {
    /// No access network: server-to-server or probe in a datacenter.
    None,
    /// Residential broadband: a few ms of DOCSIS/DSL/PON scheduling.
    Broadband,
    /// Cellular access: larger and more variable.
    Cellular,
}

impl LastMile {
    /// Median added delay in milliseconds.
    pub(crate) fn median_ms(&self) -> f64 {
        match self {
            LastMile::None => 0.0,
            LastMile::Broadband => 4.0,
            LastMile::Cellular => 25.0,
        }
    }
}

/// The static description of one path, extracted from a routed
/// [`SiteAssignment`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathProfile {
    /// Great-circle length of the routed path, km.
    pub(crate) path_km: f64,
    /// Number of forwarding segments ([`SiteAssignment::hops`]).
    pub(crate) hops: u32,
    /// Access technology at the client end.
    pub(crate) last_mile: LastMile,
}

impl PathProfile {
    /// Builds a profile from a routed assignment.
    pub fn from_assignment(a: &SiteAssignment, last_mile: LastMile) -> Self {
        Self { path_km: a.path_km, hops: a.hops, last_mile }
    }

    /// A direct path of `km` kilometers with `hops` segments, for tests
    /// and synthetic baselines.
    pub fn direct(km: f64, hops: u32, last_mile: LastMile) -> Self {
        Self { path_km: km, hops, last_mile }
    }
}

/// RTT model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Scale (σ) of the lognormal jitter multiplier.
    pub(crate) jitter_sigma: f64,
    /// Probability a sample is a congestion spike.
    pub(crate) spike_prob: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self { jitter_sigma: 0.08, spike_prob: 0.02 }
    }
}

/// Multiplier on great-circle fiber time for physical conduit
/// indirection. 1.0 = fiber laid along great circles.
const FIBER_STRETCH: f64 = 1.4;
/// Per-segment forwarding overhead, ms.
const PER_HOP_MS: f64 = 0.3;
/// Mean size of a spike, ms (exponential).
const SPIKE_MEAN_MS: f64 = 40.0;

impl LatencyModel {
    /// Deterministic median RTT of a path, ms. What the paper's
    /// "median latency over ⟨root, resolver /24, anycast site⟩"
    /// aggregation converges to.
    pub fn median_rtt_ms(&self, p: &PathProfile) -> f64 {
        FIBER_STRETCH * 2.0 * p.path_km / SPEED_OF_LIGHT_FIBER_KM_PER_MS
            + PER_HOP_MS * p.hops as f64
            + p.last_mile.median_ms()
    }

    /// One stochastic RTT sample, ms.
    pub fn sample_rtt_ms<R: Rng>(&self, p: &PathProfile, rng: &mut R) -> f64 {
        let base = self.median_rtt_ms(p);
        // Lognormal multiplicative jitter around the median.
        let z: f64 = sample_standard_normal(rng);
        let mut rtt = base * (self.jitter_sigma * z).exp();
        if rng.gen_bool(self.spike_prob) {
            let u: f64 = rng.gen_range(1e-9..1.0);
            rtt += -SPIKE_MEAN_MS * u.ln();
        }
        rtt.max(0.05)
    }
}

/// One standard normal draw by Box–Muller (keeps the dependency surface
/// to `rand`): two `gen_range` calls, `u1` in `[1e-12, 1)` then `u2` in
/// `[0, 1)`, and the cosine branch.
pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::km_to_rtt_lower_bound_ms;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn median_scales_with_distance() {
        let m = LatencyModel::default();
        let near = m.median_rtt_ms(&PathProfile::direct(100.0, 2, LastMile::None));
        let far = m.median_rtt_ms(&PathProfile::direct(5000.0, 2, LastMile::None));
        assert!(far > near * 10.0);
    }

    #[test]
    fn last_mile_adds_delay() {
        let m = LatencyModel::default();
        let none = m.median_rtt_ms(&PathProfile::direct(1000.0, 3, LastMile::None));
        let bb = m.median_rtt_ms(&PathProfile::direct(1000.0, 3, LastMile::Broadband));
        let cell = m.median_rtt_ms(&PathProfile::direct(1000.0, 3, LastMile::Cellular));
        assert!(bb > none && cell > bb);
    }

    #[test]
    fn median_respects_paper_lower_bound_for_direct_paths() {
        // A direct great-circle path's modeled RTT must not beat the
        // 2cf/3 achievability bound Eq. 2 assumes (FIBER_STRETCH 1.4 <
        // 1.5 covers the bound only together with hop overhead; check at
        // a realistic distance).
        let m = LatencyModel::default();
        let km = 2000.0;
        let rtt = m.median_rtt_ms(&PathProfile::direct(km, 4, LastMile::None));
        // The bound is about the *minimum achievable*; our direct-path
        // median may approach but should not be wildly below it.
        assert!(rtt > 0.8 * km_to_rtt_lower_bound_ms(km), "rtt {rtt}");
    }

    #[test]
    fn samples_center_on_median() {
        let m = LatencyModel { spike_prob: 0.0, ..Default::default() };
        let p = PathProfile::direct(3000.0, 5, LastMile::Broadband);
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples: Vec<f64> = (0..999).map(|_| m.sample_rtt_ms(&p, &mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med = samples[samples.len() / 2];
        let expect = m.median_rtt_ms(&p);
        assert!((med - expect).abs() / expect < 0.05, "median {med} vs {expect}");
    }

    #[test]
    fn spikes_fatten_the_tail() {
        let base = LatencyModel { spike_prob: 0.0, ..Default::default() };
        let spiky = LatencyModel { spike_prob: 0.3, ..Default::default() };
        let p = PathProfile::direct(1000.0, 3, LastMile::None);
        let mut r1 = StdRng::seed_from_u64(2);
        let mut r2 = StdRng::seed_from_u64(2);
        let q99 = |m: &LatencyModel, rng: &mut StdRng| {
            let mut v: Vec<f64> = (0..2000).map(|_| m.sample_rtt_ms(&p, rng)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[(v.len() as f64 * 0.99) as usize]
        };
        assert!(q99(&spiky, &mut r2) > q99(&base, &mut r1));
    }

    #[test]
    fn samples_are_positive() {
        let m = LatencyModel::default();
        let p = PathProfile::direct(0.0, 0, LastMile::None);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(m.sample_rtt_ms(&p, &mut rng) > 0.0);
        }
    }
}
