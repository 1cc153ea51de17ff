//! Reproduction driver: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--seed N] [--scale F] [--population N] [--year 2018|2020] [--threads 0-256] [--verbose] [--out DIR] [ids…|all]
//! ```
//!
//! Experiments run concurrently on the deterministic parallel layer
//! (`par`); output is buffered and emitted in id order, so the text and
//! CSV artifacts are byte-identical at any `--threads` value. Each
//! artifact prints to stdout and, with `--out`, is also written as CSV
//! for plotting, alongside two JSON records:
//!
//! * `timings.json` — wall-clock per experiment (the one output that
//!   legitimately varies run to run), and
//! * `metrics.json` — the `obs` sink: counters, histograms, and span
//!   item counts, byte-identical for a fixed seed at any `--threads`.
//!
//! Progress reporting goes through `obs` spans: `--verbose` streams the
//! span tree to stderr as stages finish and prints the aggregated tree
//! at the end; the default run is silent apart from the artifacts.

use anycast_core::cli::{parse_args, Command, RunArgs, USAGE};
use anycast_core::experiments::{run, ALL_IDS, EXPERIMENTS};
use anycast_core::{Artifact, World, WorldConfig};

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::List) => return print_list(),
        Ok(Command::Help) => {
            println!("{USAGE}");
            println!("ids: {}", ALL_IDS.join(" "));
            println!("run `repro --list` for one-line descriptions");
            return;
        }
        Err(msg) => die(&msg),
    };
    let RunArgs { seed, scale, year, threads, population, out_dir, verbose, ids } = args;
    if verbose {
        obs::set_verbose(true);
    }
    par::set_threads(threads);

    // Fail on an unusable `--out` before the world is built, not after.
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create --out directory {dir:?}: {e}"));
        }
    }

    let config = WorldConfig { seed, scale, year, dyn_population: population, ..WorldConfig::paper(seed) };
    // World::build opens the `world` span (and its stage children) on
    // this thread; it closes before the experiments fan out below, so no
    // span is open across the parallel region — the recorded span paths
    // are therefore identical at any thread count.
    let world = World::build(&config);

    // Run the registry concurrently; results come back in id order, so
    // the streamed output below is identical to a sequential run. Each
    // experiment opens its own `exp{id=…}` span inside the worker.
    let t_run = std::time::Instant::now();
    let results: Vec<(Vec<Artifact>, f64)> = par::ordered_map(&ids, |_, id| {
        let t = std::time::Instant::now();
        let artifacts = run(id, &world);
        (artifacts, t.elapsed().as_secs_f64())
    });
    let run_secs = t_run.elapsed().as_secs_f64();

    let emit_span = obs::span!("repro.emit");
    let mut timings: Vec<(String, f64, u64)> = Vec::new();
    for (id, (artifacts, secs)) in ids.iter().zip(&results) {
        for artifact in artifacts {
            println!("{}", artifact.render_text());
            if let Some(dir) = &out_dir {
                let path = format!("{dir}/{}.csv", artifact.id());
                let csv = artifact.render_csv();
                // Data rows only (header excluded): the metrics
                // integration test cross-checks this counter against the
                // written files.
                obs::counter_add(
                    "repro.csv_rows",
                    (csv.lines().count() as u64).saturating_sub(1),
                );
                std::fs::write(&path, csv)
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            }
        }
        let items: u64 = artifacts.iter().map(Artifact::item_count).sum();
        emit_span.add_items(items);
        timings.push((id.clone(), *secs, items));
    }
    drop(emit_span);

    if let Some(dir) = &out_dir {
        let path = format!("{dir}/timings.json");
        std::fs::write(&path, render_timings(&timings, par::threads(), run_secs))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        let metrics_path = format!("{dir}/metrics.json");
        std::fs::write(&metrics_path, obs::render_metrics_json())
            .unwrap_or_else(|e| die(&format!("cannot write {metrics_path}: {e}")));
        if obs::verbose() {
            eprintln!("[obs] timings → {path}");
            eprintln!("[obs] metrics → {metrics_path}");
        }
    }
    if obs::verbose() {
        eprint!("{}", obs::render_tree());
        eprintln!(
            "[obs] all experiments done in {run_secs:.1}s (threads={})",
            par::threads()
        );
    }
}

/// Hand-rendered JSON (the build is offline; no serde_json available).
fn render_timings(timings: &[(String, f64, u64)], threads: usize, total_secs: f64) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"total_secs\": {total_secs:.3},\n"));
    s.push_str("  \"experiments\": [\n");
    for (i, (id, secs, items)) in timings.iter().enumerate() {
        let rate = if *secs > 0.0 { *items as f64 / secs } else { 0.0 };
        s.push_str(&format!(
            "    {{\"id\": \"{id}\", \"secs\": {secs:.3}, \"items\": {items}, \"items_per_sec\": {rate:.1}}}{}\n",
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `--list`: the catalogue grouped by experiment family, registry
/// order within each group.
fn print_list() {
    let family = |id: &str| {
        if id.starts_with("dyn") {
            "dynamics & replay"
        } else if id.starts_with("ext") {
            "extensions"
        } else {
            "core paper artifacts"
        }
    };
    let width = 2 + EXPERIMENTS.iter().map(|(id, ..)| id.len()).max().unwrap_or(0);
    let mut current = "";
    for (id, desc, _) in EXPERIMENTS {
        let f = family(id);
        if f != current {
            if !current.is_empty() {
                println!();
            }
            println!("{f}:");
            current = f;
        }
        println!("  {id:<width$}{desc}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
