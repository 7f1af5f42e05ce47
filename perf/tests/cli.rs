//! Input validation of the built `tracefill-perf` binary: every bad input
//! is a clear message and exit status 2, never a panic, and nothing is
//! simulated.

use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracefill-perf"))
        .args(args)
        .output()
        .expect("the binary runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = perf(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(message),
        "{args:?}: expected `{message}` in {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: printed a result");
}

#[test]
fn unknown_workload_is_rejected() {
    assert_usage_error(&["--only", "m88k"], "unknown workload `m88k`");
    assert_usage_error(
        &["--workload", "m88k-all,nonesuch"],
        "unknown workload `nonesuch`",
    );
}

#[test]
fn zero_reps_and_seconds_are_rejected() {
    assert_usage_error(&["--reps", "0"], "--reps must be at least 1");
    assert_usage_error(&["--seconds", "0"], "--seconds must be at least 1");
}

#[test]
fn malformed_numbers_are_rejected() {
    assert_usage_error(&["--seed", "x1"], "--seed: `x1` is not a valid number");
    assert_usage_error(&["--seed", "-3"], "--seed: `-3` is not a valid number");
    assert_usage_error(&["--reps", "2.5"], "--reps: `2.5` is not a valid number");
    assert_usage_error(&["--seed"], "--seed needs a value");
}

#[test]
fn unknown_arguments_are_rejected() {
    assert_usage_error(&["--frobnicate"], "unknown argument `--frobnicate`");
}

#[test]
fn unwritable_json_path_is_rejected_before_running() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("results.json");
    assert_usage_error(
        &["--smoke", "--json", path.to_str().expect("utf-8 path")],
        "--json",
    );
    assert!(!path.exists());
}
