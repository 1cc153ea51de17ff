//! `cli::parse_args` over arbitrary argument lists: real flags mixed
//! with junk values, `nan`, negative numbers and missing values. It
//! returns `Err` for every malformed list and never panics; `repro`
//! turns the `Err` into exit status 2 (`cli_errors.rs`).

use anycast_core::cli::{parse_args, Command};
use anycast_core::experiments::ALL_IDS;
use proptest::prelude::*;

/// Every flag `repro` reads, and `fig2` standing for an id.
const FLAGS: &[&str] = &[
    "--seed",
    "--scale",
    "--threads",
    "--population",
    "--year",
    "--out",
    "--verbose",
    "-v",
    "fig2",
];

/// Values, good for some flag or for none.
const VALUES: &[&str] = &[
    "nan",
    "-1",
    "-0.5",
    "0",
    "1",
    "0.5",
    "1.5",
    "2018",
    "2020",
    "2019",
    "7",
    "1e309",
    "inf",
    "-inf",
    "",
    "all",
    "fig2",
    "fgi2",
    "--",
    "-",
    "18446744073709551616",
    "0x10",
    " 1",
    "--scale",
];

/// An argument list drawn token by token from both pools.
fn argv(tokens: &[(bool, usize)]) -> Vec<String> {
    tokens
        .iter()
        .map(|&(flag, i)| {
            if flag {
                FLAGS[i % FLAGS.len()].to_string()
            } else {
                VALUES[i % VALUES.len()].to_string()
            }
        })
        .collect()
}

/// A value the flag rejects, by the flag's position in `FLAGS`.
fn bad_value(flag: usize, pick: usize) -> &'static str {
    let bad: &[&str] = match FLAGS[flag] {
        "--seed" => &["nan", "-1", "0.5", "", "18446744073709551616", "1e3"],
        "--scale" => &["nan", "-1", "0", "1.5", "inf", "", "x"],
        "--threads" => &["nan", "-1", "0.5", "", "x", "257", "100000", "18446744073709551615"],
        "--population" => &["nan", "-1", "0", "0.5", "", "x"],
        _ => &["nan", "-1", "2019", "0", "", "x"], // --year
    };
    bad[pick % bad.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Anything parses to a command or an error, never a panic, and a
    /// parsed run holds only values `repro` accepts.
    #[test]
    fn arbitrary_argv_never_panics(
        tokens in proptest::collection::vec((0u8..2, 0usize..64), 0..10),
    ) {
        let tokens: Vec<(bool, usize)> = tokens.iter().map(|&(f, i)| (f == 1, i)).collect();
        if let Ok(Command::Run(run)) = parse_args(argv(&tokens)) {
            prop_assert!(run.scale > 0.0 && run.scale <= 1.0, "scale {}", run.scale);
            prop_assert!(run.year == 2018 || run.year == 2020, "year {}", run.year);
            prop_assert!(run.threads <= 256, "threads {}", run.threads);
            prop_assert!(run.population.is_none_or(|p| p >= 1));
            prop_assert!(!run.ids.is_empty());
            prop_assert!(run.ids.iter().all(|id| ALL_IDS.contains(&id.as_str())));
        }
    }

    /// A valid prefix followed by a numeric flag with a rejected value,
    /// or with no value at all, is an error.
    #[test]
    fn malformed_or_missing_values_are_errors(
        flag in 0usize..5,
        pick in 0usize..64,
        missing in 0u8..2,
        verbose in 0u8..2,
    ) {
        let mut args: Vec<String> = vec!["--seed".into(), "7".into()];
        if verbose == 1 {
            args.push("-v".into());
        }
        args.push(FLAGS[flag].into());
        if missing == 0 {
            args.push(bad_value(flag, pick).into());
            args.push("fig2".into());
        }
        let out = parse_args(args.clone());
        prop_assert!(out.is_err(), "{args:?} parsed as {out:?}");
    }
}

#[test]
fn defaults_and_expansion() {
    let Ok(Command::Run(run)) = parse_args(Vec::<String>::new()) else {
        panic!("no args")
    };
    assert_eq!(
        (run.seed, run.scale, run.year, run.threads),
        (2021, 0.5, 2018, 0)
    );
    assert_eq!(run.ids.len(), ALL_IDS.len());
    let args = ["--scale", "0.2", "--out", "x", "fig2", "all"].map(String::from);
    let Ok(Command::Run(run)) = parse_args(args) else {
        panic!("valid args")
    };
    assert_eq!(run.scale, 0.2);
    assert_eq!(run.out_dir.as_deref(), Some("x"));
    assert_eq!(run.ids.len(), ALL_IDS.len(), "`all` expands to every id");
    assert_eq!(
        parse_args(["--list", "--scale"].map(String::from)),
        Ok(Command::List)
    );
    let err = parse_args(["fgi2"].map(String::from)).expect_err("unknown id");
    assert!(err.contains("did you mean \"fig2\""), "{err}");
}
