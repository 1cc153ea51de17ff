//! The cohort table behind million-user populations.
//!
//! The engine's unit of state is the *expansion cohort*, not the user.
//! Every user expanded from one weighted location shares its
//! `(source AS, location)` pair and therefore — because BGP's decision
//! process sees only that pair — one assignment forever. So the engine
//! stores and re-ranks one `Served` row per cohort, and an epoch's
//! cost scales with cohorts, never with the expanded population. The
//! only per-user data is each member's query volume, which replay
//! draws from. This module holds the expansion unit, `Cohort`:
//! [`expand_counts`] fans the ~2k weighted locations out to per-user
//! counts, and each cohort owns a *contiguous* user-id range, so
//! per-user data is sliced per cohort. An epoch's invalidation reads
//! each cohort's group from its stored key in one pass over the
//! cohort table, so it too costs O(cohorts).
//!
//! Everything here is deterministic: [`expand_counts`] seeds its
//! apportionment tie-breaks via [`par::seed_for`], so the expansion is
//! a pure function of its inputs — byte-identical at any `--threads`
//! value.

use geo::GeoPoint;
use topology::Asn;

/// One expansion cohort: the contiguous user-id range `start..end`
/// expanded from one weighted location. Assignment state is uniform
/// across the range (one `(source AS, location)` pair, one BGP
/// outcome), so the engine stores and re-ranks one state row per
/// cohort.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cohort {
    /// Source AS shared by every member.
    pub(crate) asn: Asn,
    /// Dense graph node index of `asn` (precomputed).
    pub(crate) src_idx: u32,
    /// Source location shared by every member.
    pub(crate) location: GeoPoint,
    /// First member's user id.
    pub(crate) start: u32,
    /// One past the last member's user id.
    pub(crate) end: u32,
    /// Sum of the members' equal weight shares (accumulated in member
    /// order, so the value is deterministic), scaled by any demand
    /// surge since.
    pub(crate) weight: f64,
    /// Sum of member query volumes per day (member order), scaled by
    /// any demand surge since.
    pub(crate) queries_per_day: f64,
}

impl Cohort {
    /// Number of users in the cohort.
    pub(crate) fn len(&self) -> u32 {
        self.end - self.start
    }

    /// The member range as `usize` bounds, for slicing per-user data.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Deterministically apportions `target` users across weighted
/// locations: every location gets at least one user, the rest follow
/// the weights by largest-remainder apportionment, with ties broken by
/// [`par::seed_for`]`(seed, index)` so the result is a pure function of
/// `(weights, target, seed)` — byte-identical at any thread count.
///
/// When `target < weights.len()` the floor of one user per location
/// wins and the expanded population is `weights.len()`.
///
/// # Panics
///
/// Panics on an empty `weights` slice.
pub fn expand_counts(weights: &[f64], target: usize, seed: u64) -> Vec<u32> {
    assert!(!weights.is_empty(), "cannot expand an empty location list");
    let n = weights.len();
    let target = target.max(n);
    let extra = (target - n) as f64;
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    // Floor share of the users beyond the one-per-location minimum.
    let ideal: Vec<f64> = if total > 0.0 {
        weights.iter().map(|w| w.max(0.0) / total * extra).collect()
    } else {
        vec![extra / n as f64; n]
    };
    let mut counts: Vec<u32> = ideal.iter().map(|q| 1 + q.floor() as u32).collect();
    let assigned: u64 = counts.iter().map(|&c| c as u64).sum();
    let leftover = target as u64 - assigned;
    // Largest remainders win the leftover units; exact ties fall to the
    // seeded per-index stream, then the index.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (ideal[a] - ideal[a].floor(), ideal[b] - ideal[b].floor());
        rb.total_cmp(&ra)
            .then_with(|| par::seed_for(seed, a as u64).cmp(&par::seed_for(seed, b as u64)))
            .then(a.cmp(&b))
    });
    for &i in order.iter().take(leftover as usize) {
        counts[i] += 1;
    }
    debug_assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), target as u64);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_counts_hits_target_exactly_with_min_one_each() {
        let weights = [5.0, 1.0, 0.0, 3.5, 0.25];
        for target in [0usize, 3, 5, 17, 1_000, 99_999] {
            let counts = expand_counts(&weights, target, 2021);
            assert_eq!(counts.len(), weights.len());
            assert!(counts.iter().all(|&c| c >= 1), "floor of one user per location");
            let total: u64 = counts.iter().map(|&c| c as u64).sum();
            assert_eq!(total, target.max(weights.len()) as u64);
        }
    }

    #[test]
    fn expand_counts_is_deterministic_and_seed_sensitive() {
        // Equal weights force remainder ties, the case the seed breaks.
        let weights = vec![1.0; 7];
        let a = expand_counts(&weights, 24, 2021);
        let b = expand_counts(&weights, 24, 2021);
        assert_eq!(a, b);
        let differs = (0..64).any(|s| expand_counts(&weights, 24, s) != a);
        assert!(differs, "the seed must matter for tie-heavy apportionments");
    }

    #[test]
    fn expand_counts_tracks_weights_proportionally() {
        let weights = [900.0, 90.0, 9.0, 1.0];
        let counts = expand_counts(&weights, 100_000, 7);
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
        // Within one unit of the exact quota (largest remainder bound),
        // modulo the one-per-location floor.
        let total: f64 = weights.iter().sum();
        let extra = (100_000 - weights.len()) as f64;
        for (w, &c) in weights.iter().zip(&counts) {
            let quota = 1.0 + w / total * extra;
            assert!((c as f64 - quota).abs() <= 1.0, "count {c} too far from quota {quota}");
        }
    }
}
