//! Shared harness for the workspace-level determinism suites: build a
//! world at a fixed worker-thread count, run a set of experiments, and
//! hand back everything a byte-identity check needs — the rendered
//! artifacts plus the deltas the run added to named `obs` counters.

#![allow(dead_code)] // each test binary uses the subset it needs

use anycast_context::{experiments, obs, World, WorldConfig};

/// Runs `ids` over a fresh world at `threads` worker threads and
/// returns every artifact rendered both ways (CSV, text) together
/// with the per-counter deltas the experiments produced.
///
/// The caller owns restoring the process-global thread count
/// (`par::set_threads(0)`) once its last run is done.
pub fn run_at_threads(
    config: &WorldConfig,
    ids: &[&str],
    threads: usize,
    counters: &[&str],
) -> (Vec<(String, String)>, Vec<u64>) {
    par::set_threads(threads);
    let world = World::build(config);
    let before: Vec<u64> = counters.iter().map(|n| obs::counter_value(n)).collect();
    let mut artifacts = Vec::new();
    for id in ids {
        for a in experiments::run(id, &world) {
            artifacts.push((a.render_csv(), a.render_text()));
        }
    }
    let deltas = counters
        .iter()
        .zip(before)
        .map(|(n, b)| obs::counter_value(n) - b)
        .collect();
    (artifacts, deltas)
}

/// Asserts two renders of the same experiment set are byte-identical,
/// artifact by artifact, in both the CSV and the text form.
pub fn assert_artifacts_identical(single: &[(String, String)], other: &[(String, String)]) {
    assert_eq!(single.len(), other.len());
    for (i, (s, e)) in single.iter().zip(other).enumerate() {
        assert_eq!(s.0, e.0, "artifact {i}: CSV differs between 1 and 8 threads");
        assert_eq!(s.1, e.1, "artifact {i}: text differs between 1 and 8 threads");
    }
}

/// The scale-0.2 world the population sweep, the replay floor and the
/// letter-preference ablation share: seed 2021 with trimmed probe and
/// sample counts, so one build stays well under a second.
pub fn sweep_config() -> WorldConfig {
    WorldConfig {
        scale: 0.2,
        atlas_probes: 150,
        log_samples: 7,
        client_samples: 5,
        ..WorldConfig::paper(2021)
    }
}
