//! How long BGP takes to settle after an epoch. The model is
//! **stylized**, not derived from BGP propagation: an epoch that shifts
//! anyone converges in a fixed floor plus a slope × the shifted share of
//! users (`docs/DYNAMICS.md` §2). Per-AS path hunting is to replace it
//! here.

/// Floor of the stylized BGP convergence model: even a tiny change
/// takes a couple of seconds to propagate.
const BASE_CONVERGENCE_MS: f64 = 2_000.0;
/// Slope of the convergence model: shifting the entire user base costs
/// an extra ~28 s of path exploration (order of the classic BGP
/// convergence measurements).
const SHIFT_CONVERGENCE_MS: f64 = 28_000.0;

/// Stylized convergence time, ms, of an epoch that shifted `shifted`
/// user weight, `shifted_frac` of the total: zero when nobody moved.
pub(super) fn convergence_ms(shifted: f64, shifted_frac: f64) -> f64 {
    if shifted > 0.0 {
        BASE_CONVERGENCE_MS + SHIFT_CONVERGENCE_MS * shifted_frac
    } else {
        0.0
    }
}
