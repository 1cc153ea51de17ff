//! Per-layer measurements of a traced run, the output digest, and the
//! `obs` counter deltas the probes read from outside the crates.

use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer its workload does not touch
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.world.topology_s", "s"),
    ("core.world.letters_s", "s"),
    ("core.world.cdn_s", "s"),
    ("core.world.population_s", "s"),
    ("core.world.ditl_s", "s"),
    ("core.world.campaigns_s", "s"),
    ("core.world.rest_s", "s"),
    ("core.world_heap_mb", "MB"),
    ("core.exp.roots_s", "s"),
    ("core.exp.cdn_s", "s"),
    ("core.exp.paths_s", "s"),
    ("core.exp.local_s", "s"),
    ("core.exp.tables_s", "s"),
    ("core.exp.extensions_s", "s"),
    ("topology.bgp.origin_computations", "count"),
    ("topology.route_cache.hit_ratio", "1"),
    ("dns.resolver.user_queries", "count"),
    ("dns.resolver.cache_hit_ratio", "1"),
    ("workload.ditl.rows", "count"),
    ("cdn.log_records", "count"),
    ("dynamics.engine_build_s", "s"),
    ("dynamics.engine_heap_mb", "MB"),
    ("dynamics.epoch_busy_s", "s"),
    ("dynamics.epoch_p50_ms", "ms"),
    ("dynamics.epoch_p95_ms", "ms"),
    ("dynamics.epoch_samples", "count"),
    ("dynamics.epoch_ms.flap", "ms"),
    ("dynamics.epoch_ms.drain", "ms"),
    ("dynamics.epoch_ms.peering", "ms"),
    ("dynamics.epoch_ms.surge", "ms"),
    ("dynamics.epoch_ms.cap", "ms"),
    ("dynamics.epoch_ms.tick", "ms"),
    ("dynamics.epochs.flap", "count"),
    ("dynamics.epochs.drain", "count"),
    ("dynamics.epochs.peering", "count"),
    ("dynamics.epochs.surge", "count"),
    ("dynamics.epochs.cap", "count"),
    ("dynamics.epochs.tick", "count"),
    ("dynamics.reuse_ratio", "1"),
    ("dynamics.assign_recomputed", "count"),
    ("dynamics.invalidation.slice_users", "count"),
    ("loadmgmt.decide_calls", "count"),
    ("loadmgmt.decide_s", "s"),
    ("loadmgmt.controller_rounds", "count"),
    ("replay.serve_s", "s"),
    ("replay.serve_share", "1"),
    ("replay.user_window_draws", "count"),
    ("replay.query_equivalents", "count"),
    ("replay.served_frac", "1"),
    ("chaos.oracle_s", "s"),
    ("chaos.oracle_share", "1"),
    ("chaos.oracle_checks", "count"),
    ("chaos.epochs", "count"),
    ("chaos.engine_builds", "count"),
    ("chaos.engine_build_s", "s"),
    ("trace.overhead_frac", "1"),
];

/// Per-layer values gathered by one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, v);
    }

    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        *self.values.entry(name).or_default() += v;
    }

    /// The value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// The `obs` counters the traced runs difference.
const COUNTERS: [&str; 11] = [
    "bgp.origin_computations",
    "route_cache.hit",
    "route_cache.miss",
    "resolver.user_queries",
    "resolver.cache_hits",
    "dynamics.assign_recomputed",
    "dynamics.assign_reused",
    "dynamics.full_equiv",
    "dynamics.invalidation.slice_users",
    "ditl.rows",
    "cdn.log_records",
];

/// A reading of every counter in [`COUNTERS`].
#[derive(Debug, Clone, Copy)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    /// Reads the counters now.
    pub fn read() -> Self {
        Self(COUNTERS.map(obs::counter_value))
    }

    /// How much counter `name` grew since `self`.
    pub fn delta(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("counter is listed");
        (obs::counter_value(name) - self.0[i]) as f64
    }

    /// Records the routing, resolver and dynamics counter deltas since
    /// `self` into `trace`.
    pub fn record_layers(&self, trace: &mut Trace) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let (hit, miss) = (
            self.delta("route_cache.hit"),
            self.delta("route_cache.miss"),
        );
        trace.set(
            "topology.bgp.origin_computations",
            self.delta("bgp.origin_computations"),
        );
        trace.set("topology.route_cache.hit_ratio", ratio(hit, hit + miss));
        let queries = self.delta("resolver.user_queries");
        trace.set("dns.resolver.user_queries", queries);
        trace.set(
            "dns.resolver.cache_hit_ratio",
            ratio(self.delta("resolver.cache_hits"), queries),
        );
        trace.set(
            "dynamics.reuse_ratio",
            ratio(
                self.delta("dynamics.assign_reused"),
                self.delta("dynamics.full_equiv"),
            ),
        );
        trace.set(
            "dynamics.assign_recomputed",
            self.delta("dynamics.assign_recomputed"),
        );
        trace.set(
            "dynamics.invalidation.slice_users",
            self.delta("dynamics.invalidation.slice_users"),
        );
    }
}

/// FNV-1a over everything a workload outputs: equal digests mean equal
/// outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in, with a terminator so field boundaries count.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Folds a number in, bit for bit.
    pub fn num(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
