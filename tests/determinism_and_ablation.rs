//! Cross-cutting guarantees: determinism (same seed ⇒ identical
//! artifacts) and the two single-knob ablations of DESIGN decision 8:
//! §7.1's peering (investment is what keeps CDN inflation low) and
//! §3's letter preference (it is what keeps All-Roots inflation low).

mod common;

use anycast_context::analysis::{cdn_inflation, preprocess, root_inflation, FilterOptions};
use anycast_context::workload::{DitlConfig, DitlDataset};
use anycast_context::{experiments, World, WorldConfig};
use proptest::prelude::*;

#[test]
fn same_seed_same_artifacts() {
    let config = WorldConfig::small(77);
    let a = World::build(&config);
    let b = World::build(&config);
    for id in ["fig3", "fig5", "tab4", "fig10"] {
        let ra: Vec<String> =
            experiments::run(id, &a).iter().map(|x| x.render_text()).collect();
        let rb: Vec<String> =
            experiments::run(id, &b).iter().map(|x| x.render_text()).collect();
        assert_eq!(ra, rb, "{id} not deterministic");
    }
}

/// The tentpole guarantee of the parallel execution layer: for a fixed
/// seed, every artifact is **byte-identical** (full-precision CSV and
/// rendered text) whether the run uses 1 worker thread or 8. The ids
/// cover all parallel hot paths: catchment prefill (fig2/fig5), the
/// DITL campaign (fig3), and the sharded resolver campaign (fig12).
#[test]
fn artifacts_byte_identical_across_thread_counts() {
    let config = WorldConfig::small(77);
    let ids = ["fig2", "fig3", "fig5", "fig12"];
    let (single, _) = common::run_at_threads(&config, &ids, 1, &[]);
    let (eight, _) = common::run_at_threads(&config, &ids, 8, &[]);
    par::set_threads(0);
    common::assert_artifacts_identical(&single, &eight);
}

#[test]
fn different_seeds_differ() {
    let a = World::build(&WorldConfig::small(1));
    let b = World::build(&WorldConfig::small(2));
    let ra: Vec<String> =
        experiments::run("fig3", &a).iter().map(|x| x.render_text()).collect();
    let rb: Vec<String> =
        experiments::run("fig3", &b).iter().map(|x| x.render_text()).collect();
    assert_ne!(ra, rb);
}

#[test]
fn removing_peering_raises_cdn_inflation() {
    let engineered = World::build(&WorldConfig {
        scale: 0.2,
        ..WorldConfig::paper(5)
    });
    let ablated = World::build(&WorldConfig {
        scale: 0.2,
        cdn_eyeball_peering: 0.05,
        ..WorldConfig::paper(5)
    });
    let ring_name = engineered.cdn.largest_ring().name.clone();
    let eng_users = engineered.users_by_location();
    let abl_users = ablated.users_by_location();
    let eng = cdn_inflation(
        &engineered.server_logs,
        engineered.cdn.largest_ring(),
        &engineered.internet,
        &eng_users,
    );
    let abl = cdn_inflation(
        &ablated.server_logs,
        ablated.cdn.largest_ring(),
        &ablated.internet,
        &abl_users,
    );
    assert_eq!(eng.ring, ring_name);
    // The mechanism claim of §7.1: peering investment, not anycast
    // magic, keeps inflation down.
    assert!(
        abl.geo.intercept(1.0) < eng.geo.intercept(1.0) - 0.05,
        "ablated zero-inflation share {} should fall below engineered {}",
        abl.geo.intercept(1.0),
        eng.geo.intercept(1.0)
    );
    assert!(abl.latency.mean() > eng.latency.mean());
}

/// The §3 mechanism check (DESIGN decision 8): the root DNS as a whole
/// inflates less than its letters because recursives prefer nearby
/// letters. Weakening that preference (more exploration) must raise
/// the All-Roots geographic-inflation median at every step.
#[test]
fn letter_exploration_raises_all_roots_inflation() {
    let world = World::build(&common::sweep_config());
    let users = world.users_by_prefix();
    let medians: Vec<f64> = [0.0, 0.3, 0.6, 1.0]
        .into_iter()
        .map(|letter_exploration| {
            let ditl = DitlDataset::generate(
                &world.internet,
                &world.letters,
                &world.population,
                &world.model,
                &DitlConfig { letter_exploration, ..DitlConfig::default() },
            );
            let clean = preprocess(&ditl, &FilterOptions::default());
            root_inflation(&clean, &world.letters, &world.geolocator, &users).geo_all_roots.median()
        })
        .collect();
    assert!(
        medians.windows(2).all(|w| w[0] < w[1]),
        "All-Roots inflation must rise strictly with exploration: {medians:?}"
    );
}

#[test]
fn all_experiments_run_on_a_small_world() {
    let world = World::build(&WorldConfig::small(3));
    for id in experiments::ALL_IDS {
        if id == "fig11" || id == "fig12" {
            continue; // covered separately (fig11 builds a second world;
                      // fig12 runs a long workload) to keep this test fast
        }
        let artifacts = experiments::run(id, &world);
        assert!(!artifacts.is_empty(), "{id} produced nothing");
        for a in &artifacts {
            assert!(!a.render_text().is_empty());
            assert!(!a.render_csv().is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The ordered parallel map is an exact drop-in for a sequential
    /// map: same results, same order, at any worker count, for work
    /// whose output depends on the item index (the seed-derivation
    /// pattern every campaign uses).
    #[test]
    fn ordered_map_matches_sequential_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..200usize),
        threads in 2usize..9,
    ) {
        let sequential: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| par::seed_for(*x, i as u64) ^ x.rotate_left((i % 63) as u32))
            .collect();
        let parallel = par::ordered_map_with(threads, &items, |i, x| {
            par::seed_for(*x, i as u64) ^ x.rotate_left((i % 63) as u32)
        });
        prop_assert_eq!(sequential, parallel);
    }
}

#[test]
fn year_2020_world_builds_and_letters_grow() {
    let w2018 = World::build(&WorldConfig::small(9));
    let w2020 = World::build(&WorldConfig { year: 2020, ..WorldConfig::small(9) });
    use anycast_context::dns::Letter;
    for letter in [Letter::A, Letter::J, Letter::K] {
        assert!(
            w2020.letters.get(letter).meta.census_global_sites
                >= w2018.letters.get(letter).meta.census_global_sites,
            "{letter} should not shrink 2018→2020"
        );
    }
    assert_eq!(w2020.letters.geo_analysis_letters().len(), 7);
}
