//! Deterministic fork-join parallelism on std threads.
//!
//! The simulator's determinism contract is *thread-count invariance*:
//! for a fixed campaign seed, every artifact must be bit-identical
//! whether the run uses 1 thread or 64. This crate provides the one
//! primitive that makes that cheap to guarantee — an **ordered parallel
//! map** ([`ordered_map`]):
//!
//! 1. work items are indexed `0..n`;
//! 2. any per-item randomness comes from an RNG seeded by
//!    [`seed_for`]`(campaign_seed, index)`, never from a shared stream;
//! 3. workers pull indices from a shared atomic counter (so load
//!    balances dynamically), but results are merged back **in index
//!    order**.
//!
//! Scheduling therefore affects only *when* an item runs, never *what*
//! it computes or *where* its result lands. `rayon` is not on the
//! offline allowlist, so this is `std::thread::scope` +
//! `available_parallelism` only.

#![deny(missing_docs)]

use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Deterministic hash state: `DefaultHasher::new()` uses fixed keys, so
/// for a given insertion/removal sequence the table — and therefore its
/// iteration order — is identical on every run of the same binary.
/// `RandomState` (the `HashMap` default) reseeds per process, which
/// silently reorders float accumulations and breaks the bit-identical
/// artifact contract.
pub(crate) type DetState = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// A `HashMap` with run-to-run deterministic iteration order (given a
/// deterministic insertion sequence). Use for any map whose iteration
/// feeds an artifact, especially float accumulations.
#[allow(clippy::disallowed_types)] // the one sanctioned std map: fixed hasher keys
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, DetState>;

/// A `HashSet` with run-to-run deterministic iteration order.
#[allow(clippy::disallowed_types)] // the one sanctioned std set: fixed hasher keys
pub type DetHashSet<T> = std::collections::HashSet<T, DetState>;

/// Process-wide thread-count override; 0 means "use
/// `available_parallelism`". Set from the `--threads` CLI flag.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of worker threads used by [`ordered_map`].
/// `0` restores the default (all available cores).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The number of worker threads [`ordered_map`] will use: the
/// [`set_threads`] override if set, else `available_parallelism`
/// (falling back to 1 if that is unknowable).
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Derives the RNG seed for work item `index` of a campaign.
///
/// [`splitmix64_mix`] over the pair: statistically independent
/// streams for neighbouring indices, and a pure function of
/// `(campaign_seed, index)` — never of scheduling.
///
/// # Examples
///
/// ```
/// // Pure in its inputs: the same (campaign, index) pair always yields
/// // the same seed, and neighbouring indices get unrelated seeds.
/// assert_eq!(anycast_par::seed_for(2021, 5), anycast_par::seed_for(2021, 5));
/// assert_ne!(anycast_par::seed_for(2021, 5), anycast_par::seed_for(2021, 6));
/// assert_ne!(anycast_par::seed_for(2021, 5), anycast_par::seed_for(2022, 5));
/// ```
pub fn seed_for(campaign_seed: u64, index: u64) -> u64 {
    splitmix64_mix(
        campaign_seed
            .rotate_left(17)
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x243f_6a88_85a3_08d3),
    )
}

/// The SplitMix64 finalizer: two xor-shift-multiply rounds and a final
/// xor-shift, a bijection on `u64` whose every output bit depends on
/// every input bit. The stable hash behind [`seed_for`] and the
/// per-prefix draws of the IP→ASN service and the geolocation database.
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 random bits (say, a [`seed_for`] output) to a uniform `f64`
/// in `[0, 1)`: the top 53 bits over 2⁵³.
///
/// The shifted value is below 2⁵³, so converting it through `i64` is
/// exact and gives the same bits as the unsigned conversion, which
/// baseline x86-64 has no single instruction for.
///
/// # Examples
///
/// ```
/// assert_eq!(anycast_par::unit_f64(0), 0.0);
/// assert!(anycast_par::unit_f64(u64::MAX) < 1.0);
/// ```
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as i64 as f64 / (1u64 << 53) as f64
}

/// Maps `f` over `items` on up to [`threads`] worker threads and
/// returns the results **in item order** — bit-identical for any
/// thread count, including 1.
///
/// `f` receives `(index, &item)`; derive any per-item randomness from
/// the index (see [`seed_for`]), not from shared state. A panic in `f`
/// propagates to the caller after the scope unwinds.
///
/// # Examples
///
/// ```
/// // Results land in item order no matter which worker ran which item,
/// // so a parallel campaign merges identically to a sequential one.
/// let shards: Vec<u64> = (0..40).collect();
/// let sequential = anycast_par::ordered_map_with(1, &shards, |i, s| s * 2 + anycast_par::seed_for(7, i as u64) % 2);
/// let parallel = anycast_par::ordered_map_with(8, &shards, |i, s| s * 2 + anycast_par::seed_for(7, i as u64) % 2);
/// assert_eq!(sequential, parallel);
/// ```
pub fn ordered_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Index-ordered merge: scheduling decided which bucket each result
    // sits in, the sort puts them back in item order.
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    for bucket in &mut buckets {
        tagged.append(bucket);
    }
    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert!(tagged.iter().enumerate().all(|(k, (i, _))| k == *i));
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// [`ordered_map`] with an explicit thread count, ignoring the global
/// setting. `threads = 1` is the sequential reference path.
pub fn ordered_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.swap(threads.max(1), Ordering::Relaxed));
    ordered_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = vec![];
        assert!(ordered_map(&empty, |_, x: &u32| *x).is_empty());
        assert_eq!(ordered_map(&[7u32], |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let reference: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 4, 8, 16] {
            let got = ordered_map_with(t, &items, |_, x| x * 3 + 1);
            assert_eq!(got, reference, "threads={t}");
        }
    }

    #[test]
    fn unit_f64_equals_the_unsigned_conversion() {
        let boundaries = [0, (1 << 11) - 1, 1 << 11, 1 << 63, u64::MAX];
        let random = (0..10_000).map(|i| seed_for(7, i));
        for bits in boundaries.into_iter().chain(random) {
            let unsigned = (bits >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(unit_f64(bits).to_bits(), unsigned.to_bits(), "bits {bits:#x}");
            assert!((0.0..1.0).contains(&unit_f64(bits)));
        }
    }

    #[test]
    fn derived_seeds_are_scheduling_independent() {
        let items: Vec<u64> = (0..64).collect();
        let seq = ordered_map_with(1, &items, |i, _| seed_for(42, i as u64));
        let par = ordered_map_with(8, &items, |i, _| seed_for(42, i as u64));
        assert_eq!(seq, par);
        // Distinct indices get distinct seeds.
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seq.len());
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        let items: Vec<usize> = (0..200).collect();
        let got = ordered_map_with(8, &items, |i, _| {
            // Skew the per-item cost so workers finish out of phase.
            let mut acc = 0u64;
            for k in 0..(i % 17) * 1000 {
                acc = acc.wrapping_add(k as u64).rotate_left(3);
            }
            (i, acc)
        });
        for (k, (i, _)) in got.iter().enumerate() {
            assert_eq!(k, *i);
        }
    }

    #[test]
    fn global_override_round_trips() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
