//! The `repro` command line. [`parse_args`] turns an argument list into
//! a [`Command`], or into the one-line message `repro` prints after
//! `error:` before it exits with status 2; it never panics.

use crate::experiments::ALL_IDS;

/// The usage line `--help` prints.
pub const USAGE: &str = "repro [--seed N] [--scale F] [--population N] [--year 2018|2020] \
                         [--threads 0-256] [--verbose] [--list] [--out DIR] [ids…|all]";

/// The largest `--threads` value. Parallel maps start one scoped thread
/// per item up to the thread count, and some map over thousands of
/// items, so a larger value could ask the OS for thousands of threads.
const MAX_THREADS: usize = 256;

/// What one `repro` invocation asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run experiments and emit their artifacts.
    Run(RunArgs),
    /// `--list`: print the experiment catalogue.
    List,
    /// `--help`: print the usage line and the ids.
    Help,
}

/// The settings of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `--seed` (default 2021).
    pub seed: u64,
    /// `--scale`, in `(0, 1]` (default 0.5).
    pub scale: f64,
    /// `--year`, 2018 or 2020 (default 2018).
    pub year: u16,
    /// `--threads`, at most 256 (default 0: available parallelism).
    pub threads: usize,
    /// `--population`: the dynamics engines' expanded user count.
    pub population: Option<usize>,
    /// `--out`: directory for the CSVs, `timings.json` and
    /// `metrics.json`.
    pub out_dir: Option<String>,
    /// `--verbose` / `-v`: stream the span tree to stderr.
    pub verbose: bool,
    /// Known experiment ids in the order given; none, or `all` among
    /// them, means every id in registry order.
    pub ids: Vec<String>,
}

/// Parses `repro`'s arguments (without the program name). Flags are
/// read left to right: `--list` and `--help` answer at once, and the
/// first malformed or missing flag value, or an unknown id, is the
/// error.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
    let mut args = args.into_iter();
    let mut run = RunArgs {
        seed: 2021,
        scale: 0.5,
        year: 2018,
        threads: 0,
        population: None,
        out_dir: None,
        verbose: false,
        ids: Vec::new(),
    };
    while let Some(arg) = args.next() {
        let mut value = |flag_error: &str| args.next().ok_or_else(|| flag_error.to_string());
        match arg.as_str() {
            "--seed" => {
                let msg = "--seed needs an integer";
                run.seed = value(msg)?.parse().map_err(|_| msg)?;
            }
            "--scale" => {
                let msg = "--scale needs a float in (0,1]";
                run.scale = value(msg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                    .ok_or(msg)?;
            }
            "--threads" => {
                let msg = "--threads needs an integer in 0..=256 (0: one per core)";
                run.threads = value(msg)?
                    .parse()
                    .ok()
                    .filter(|t: &usize| *t <= MAX_THREADS)
                    .ok_or(msg)?;
            }
            "--population" => {
                let msg = "--population needs a positive integer";
                run.population = Some(
                    value(msg)?
                        .parse()
                        .ok()
                        .filter(|p: &usize| *p >= 1)
                        .ok_or(msg)?,
                );
            }
            "--out" => run.out_dir = Some(value("--out needs a directory")?),
            "--year" => {
                let msg = "--year must be 2018 or 2020";
                run.year = value(msg)?
                    .parse()
                    .ok()
                    .filter(|y| *y == 2018 || *y == 2020)
                    .ok_or(msg)?;
            }
            "--verbose" | "-v" => run.verbose = true,
            "--list" => return Ok(Command::List),
            "--help" | "-h" => return Ok(Command::Help),
            other => run.ids.push(other.to_string()),
        }
    }
    if run.ids.is_empty() || run.ids.iter().any(|i| i == "all") {
        run.ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(id) = run.ids.iter().find(|id| !ALL_IDS.contains(&id.as_str())) {
        let hint = closest_id(id)
            .map(|c| format!(" (did you mean {c:?}?)"))
            .unwrap_or_default();
        return Err(format!(
            "unknown experiment {id:?}{hint}; run `repro --list` to see every id"
        ));
    }
    Ok(Command::Run(run))
}

/// The known id nearest to `input` by edit distance, if any comes
/// within two edits (typo range). Ties go to registry order.
fn closest_id(input: &str) -> Option<&'static str> {
    ALL_IDS
        .iter()
        .map(|id| (edit_distance(input, id), *id))
        .filter(|(d, _)| *d <= 2)
        .min_by_key(|(d, _)| *d)
        .map(|(_, id)| id)
}

/// Plain Levenshtein distance (the inputs are short ids).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}
