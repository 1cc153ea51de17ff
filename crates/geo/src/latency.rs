//! Propagation-delay constants and the paper's latency lower bound.
//!
//! Eq. 1 scales geographic distance by the speed of light in fiber
//! (`2/cf` per round trip); Eq. 2 lower-bounds achievable latency with
//! `3/(2·cf) · 2d` — i.e. routes rarely beat great-circle distance divided
//! by `2cf/3` (Katz-Bassett et al., IMC 2006).

/// Speed of light in fiber, in kilometers per millisecond.
///
/// Light in silica travels at roughly 2/3 of c; c ≈ 299.79 km/ms, so
/// fiber ≈ 200 km/ms. This is the `cf` of Eq. 1 and Eq. 2.
pub const SPEED_OF_LIGHT_FIBER_KM_PER_MS: f64 = 200.0;

/// Round-trip time in milliseconds over an idealized direct fiber path of
/// `km` kilometers: `2·km / cf`.
///
/// This is the per-query scaling used by geographic inflation (Eq. 1).
pub fn km_to_rtt_ms(km: f64) -> f64 {
    2.0 * km / SPEED_OF_LIGHT_FIBER_KM_PER_MS
}

/// Lower bound on the achievable round-trip time in milliseconds to a
/// destination `km` kilometers away: `3·2·km / (2·cf)`.
///
/// Eq. 2 subtracts this bound from measured latency: real routes rarely
/// achieve better than great-circle distance at `2cf/3` effective speed
/// because fiber is not laid along great circles and forwarding adds
/// serialization/queueing delay.
pub fn km_to_rtt_lower_bound_ms(km: f64) -> f64 {
    3.0 * 2.0 * km / (2.0 * SPEED_OF_LIGHT_FIBER_KM_PER_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_of_thumb_2000km_is_20ms() {
        // §3.2: "inflated by more than 2,000 km (20 ms)".
        assert!((km_to_rtt_ms(2000.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_is_50_percent_above_ideal() {
        // 2cf/3 effective speed = 1.5x the ideal fiber RTT.
        let km = 1234.5;
        assert!((km_to_rtt_lower_bound_ms(km) - 1.5 * km_to_rtt_ms(km)).abs() < 1e-9);
    }

    #[test]
    fn zero_distance_zero_latency() {
        assert_eq!(km_to_rtt_ms(0.0), 0.0);
        assert_eq!(km_to_rtt_lower_bound_ms(0.0), 0.0);
    }
}
