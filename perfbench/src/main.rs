//! End-to-end and per-layer benchmark of the anycast-context workspace
//! at paper scale (`WorldConfig::paper`, one thread).
//!
//! ```text
//! anycast-perfbench --workload <paper|dynamics> --seed <n> --seconds <s> --trace <0|1>
//!                   [--world-seed <n>]
//! ```
//!
//! The world is `WorldConfig::paper(world_seed)`, 2021 unless
//! `--world-seed` names another for re-checking a claim on a second
//! world. `--seed` makes the workload's inputs: the storms' start time,
//! the replayed query draws, the order of the paper's ids.
//!
//! Untraced (`--trace 0`), a run sets the workload up several times and
//! reports the median set-up time, then times passes until `--seconds`
//! have elapsed and reports the typical pass: each unit's median over
//! the passes, summed.
//! Traced (`--trace 1`), it builds the world stage by stage, times one
//! untraced and one traced pass, and reports the per-layer metrics.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; every pass's outputs
//! are checked and digested, and all digests of a run must agree.

mod alloc;
mod dynwork;
mod host;
mod paper;
mod probe;
mod trace;
mod world;

use anycast_core::{World, WorldConfig};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Trace, PER_LAYER};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One timed pass over a workload's prepared inputs.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Wall time of the timed phase, split into units that every pass
    /// repeats in the same order (an id, an epoch, a replay, a storm), s.
    pub units: Vec<f64>,
    /// Work units done (deterministic per seed).
    pub work: u64,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Digest of every output the pass produced.
    pub digest: u64,
}

impl Pass {
    /// Wall time of the timed phase, s.
    pub fn secs(&self) -> f64 {
        self.units.iter().sum()
    }
}

/// A workload with its inputs prepared.
pub trait Workload {
    /// Runs one pass; with `trace`, also records per-layer metrics.
    fn pass(&mut self, trace: Option<&mut Trace>) -> Pass;
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Paper,
    Dynamics,
}

struct Args {
    kind: Kind,
    seed: u64,
    world_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut world_seed, mut seconds, mut trace) = (None, 1, 2021, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(match value.as_str() {
                    "paper" => Kind::Paper,
                    "dynamics" => Kind::Dynamics,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--world-seed" => {
                world_seed = value
                    .parse()
                    .map_err(|_| format!("bad --world-seed {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        world_seed,
        seconds,
        trace,
    })
}

fn prepare<'w>(args: &Args, world: &'w World, trace: Option<&mut Trace>) -> Box<dyn Workload + 'w> {
    let seed = args.seed;
    match args.kind {
        Kind::Paper => Box::new(paper::Paper::new(world, seed)),
        Kind::Dynamics => Box::new(dynwork::Dynamics::new(world, seed, trace)),
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What a run prints last.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks that every pass produced the same work and outputs.
fn agree(passes: &[Pass]) -> bool {
    passes.iter().all(|p| {
        p.digest == passes[0].digest
            && p.work == passes[0].work
            && p.units.len() == passes[0].units.len()
    })
}

/// Each unit's `stat` over `passes`, summed.
fn per_unit(passes: &[Pass], stat: fn(&[f64]) -> f64) -> f64 {
    (0..passes[0].units.len())
        .map(|u| stat(&passes.iter().map(|p| p.units[u]).collect::<Vec<_>>()))
        .sum()
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn untraced(args: &Args, config: &WorldConfig) -> Outcome {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let t = Instant::now();
        let world = World::build(config);
        let wl = prepare(args, &world, None);
        setups.push(t.elapsed().as_secs_f64());
        drop(wl);
    }
    let t = Instant::now();
    let world = World::build(config);
    let mut wl = prepare(args, &world, None);
    setups.push(t.elapsed().as_secs_f64());

    let mut passes = Vec::new();
    let t = Instant::now();
    while passes.len() < 2 || t.elapsed().as_secs_f64() < args.seconds {
        passes.push(wl.pass(None));
    }
    // Each unit's median: a slow spell of the host, or the first pass's
    // cold caches and fresh pages, that hits one pass in one place
    // moves no median. The fastest times show how much of the run such
    // spells took.
    let run_s = per_unit(&passes, median);
    println!("run_s by per-unit minimum: {}", per_unit(&passes, min));
    let (attempted, failed) = passes
        .iter()
        .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    let secs: Vec<f64> = passes.iter().map(Pass::secs).collect();
    println!("setup_s samples: {setups:?}");
    println!("pass seconds: {secs:?}");
    println!("work per pass: {}", passes[0].work);
    println!("digest: {:016x}", passes[0].digest);
    Outcome {
        correct: failed == 0 && agree(&passes),
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("run_s", run_s, "s"),
            ("work_per_s", passes[0].work as f64 / run_s, "1/s"),
            ("peak_heap_mb", alloc::mb(alloc::peak()), "MB"),
            (
                "ok_frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "1",
            ),
        ],
    }
}

fn traced(args: &Args, config: &WorldConfig) -> Outcome {
    let mut trace = Trace::default();
    let expected = world::fingerprint(&World::build(config));
    let world = world::build_staged(config, &mut trace);
    let same_world = world::fingerprint(&world) == expected;
    if !same_world {
        println!("check: the staged world differs from World::build");
    }
    let mut wl = prepare(args, &world, Some(&mut trace));
    let warm = wl.pass(None);
    let plain = wl.pass(None);
    let traced = wl.pass(Some(&mut trace));
    trace.set("trace.overhead_frac", traced.secs() / plain.secs() - 1.0);
    println!(
        "run_s untraced {:.3} s, traced {:.3} s",
        plain.secs(),
        traced.secs()
    );
    println!(
        "digest: {:016x} untraced, {:016x} traced",
        plain.digest, traced.digest
    );
    let (attempted, failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    let passes = [warm, plain, traced];
    Outcome {
        correct: same_world && failed == 0 && agree(&passes),
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, trace.get(name), unit))
            .collect(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    par::set_threads(1);
    let host = host::Snapshot::take();
    let config = WorldConfig::paper(args.world_seed);
    let mut outcome = if args.trace {
        traced(&args, &config)
    } else {
        untraced(&args, &config)
    };
    // JSON has no NaN or infinity: a metric that is not a number is a
    // broken measurement.
    for m in &mut outcome.metrics {
        if !m.1.is_finite() {
            println!("check: metric {} is {}", m.0, m.1);
            m.1 = 0.0;
            outcome.correct = false;
        }
    }
    println!("host: {}", host::facts_json(host));
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
