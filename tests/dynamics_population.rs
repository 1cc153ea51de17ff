//! The columnar engine's population claims, checked in counts at 10k,
//! 100k and 1M expanded users: invalidation checks fewer users than a
//! scan would (`dynscale`), the closed loop acts (`dynload`),
//! and the epoch work is set by catchment structure, not by the
//! population: the cohort count and the distributed controller's
//! rounds are the same at every population.

mod common;

use anycast_context::{experiments, Artifact, World};

const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// The header and rows of the table artifact `id` among `artifacts`.
fn table<'a>(artifacts: &'a [Artifact], id: &str) -> (&'a [String], &'a [Vec<String>]) {
    artifacts
        .iter()
        .find_map(|a| match a {
            Artifact::Table { id: tid, header, rows, .. } if tid == id => {
                Some((header.as_slice(), rows.as_slice()))
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {id} table"))
}

/// The value of `metric` in a two-column `metric,value` summary.
fn metric(rows: &[Vec<String>], metric: &str) -> u64 {
    rows.iter()
        .find(|r| r[0] == metric)
        .unwrap_or_else(|| panic!("no {metric} row"))[1]
        .parse()
        .expect("integer metric")
}

#[test]
fn slice_invalidation_and_controller_work_are_population_independent() {
    // Building the world does not read `dyn_population`; only the
    // dynamics experiments do, so one world serves every population.
    let mut world = World::build(&common::sweep_config());
    let mut per_population = Vec::new();
    for population in POPULATIONS {
        world.config.dyn_population = Some(population);

        let scale = experiments::run("dynscale", &world);
        let (_, rows) = table(&scale, "dynscalesum");
        assert_eq!(metric(rows, "population"), population as u64);
        let (slice, scan) = (metric(rows, "slice_users"), metric(rows, "scan_equivalent_users"));
        assert!(
            0 < slice && slice < scan,
            "invalidation checked {slice} of {scan} scan-equivalent users at {population}"
        );
        let cohorts = metric(rows, "cohorts");

        let load = experiments::run("dynload", &world);
        let (header, rows) = table(&load, "dynloadsum");
        let col = header.iter().position(|h| h == "controller_rounds").expect("rounds column");
        let row = rows.iter().find(|r| r[0] == "distributed").expect("distributed row");
        let rounds: u64 = row[col].parse().expect("integer rounds");
        assert!(rounds >= 1, "the crowd must make the controller act at {population} users");

        per_population.push((population, cohorts, rounds));
    }
    let (_, cohorts, rounds) = per_population[0];
    for &(population, c, r) in &per_population[1..] {
        assert_eq!(
            (c, r),
            (cohorts, rounds),
            "cohorts and controller rounds at {population} users must equal those at {}",
            POPULATIONS[0]
        );
    }
}
