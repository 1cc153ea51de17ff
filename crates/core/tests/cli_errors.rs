//! Misconfigured `repro` invocations exit with status 2 and a one-line
//! `error:` message, never a panic.

use std::process::Command;

/// Runs `repro` with `args` and asserts the clean-rejection contract.
fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: stderr {stderr}");
    assert!(stderr.starts_with("error:"), "repro {args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}: stderr {stderr}");
}

#[test]
fn out_of_range_scales_exit_2() {
    for scale in ["0", "-1", "nan", "1.5"] {
        assert_rejected(&["--scale", scale, "fig2"]);
    }
}

#[test]
fn an_out_dir_that_cannot_be_created_exits_2() {
    let base = std::env::temp_dir().join("anycast-cli-errors");
    std::fs::create_dir_all(&base).expect("create temp dir");
    let file = base.join("regular-file");
    std::fs::write(&file, b"not a directory").expect("write regular file");
    let out = file.join("out");
    assert_rejected(&["--scale", "0.12", "--out", out.to_str().expect("utf8 path"), "fig2"]);
}

#[test]
fn an_output_file_that_cannot_be_written_exits_2() {
    let out = std::env::temp_dir().join("anycast-cli-errors-unwritable");
    // `fig2` writes fig2a.csv and fig2b.csv; a directory where the
    // first one should go makes the write itself fail.
    std::fs::create_dir_all(out.join("fig2a.csv")).expect("create blocking directory");
    assert_rejected(&["--scale", "0.12", "--out", out.to_str().expect("utf8 path"), "fig2"]);
}
