//! End-to-end tests of the `tracefill` binary itself: output-path
//! validation must fail fast with a clear message and nonzero exit, the
//! ledger report must be byte-deterministic across invocations, and the
//! sweep subcommands must reproduce the goldens under `tests/golden/`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracefill"))
}

/// A per-test scratch directory under the system temp dir.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracefill-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny kernel that halts in a few hundred cycles.
fn smoke_program(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("smoke.s");
    std::fs::write(
        &path,
        "        .text
main:   li   $s0, 64
loop:   andi $t0, $s0, 3
        add  $s1, $s1, $t0
        addi $s0, $s0, -1
        bgtz $s0, loop
        li   $a0, 0
        li   $v0, 10
        syscall
",
    )
    .unwrap();
    path
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs `tracefill <args>` and compares its stdout byte for byte with
/// `tests/golden/<name>`. To regenerate a golden after an intended
/// format change, run the same command and redirect stdout to the file.
fn assert_golden(name: &str, args: &[&str]) {
    let out = bin().args(args).output().unwrap();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        out.stdout == want,
        "`tracefill {}` no longer matches {}; got:\n{}",
        args.join(" "),
        path.display(),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn fault_sweeps_match_goldens() {
    let sweep = ["--seed", "1", "--trials", "3", "--budget", "6000", "--json"];
    assert_golden("inject.json", &[&["inject"], &sweep[..]].concat());
    assert_golden(
        "inject-self-repair.json",
        &[
            &["inject", "--self-repair", "--detect", "oracle"],
            &sweep[..],
        ]
        .concat(),
    );
    assert_golden(
        "heal.json",
        &[
            "heal", "--seed", "7", "--trials", "3", "--budget", "6000", "--json",
        ],
    );
}

#[test]
fn ledger_and_adapt_match_goldens() {
    assert_golden(
        "ledger.json",
        &[
            "ledger", "--bench", "m88k", "--seed", "1", "--warmup", "1000", "--budget", "8000",
            "--json",
        ],
    );
    assert_golden(
        "adapt.json",
        &[
            "adapt", "--bench", "m88k", "--opts", "none:all", "--seed", "1", "--warmup", "2000",
            "--budget", "2000", "--epoch", "64", "--json",
        ],
    );
}

#[test]
fn verify_and_suite_match_goldens() {
    assert_golden(
        "verify.txt",
        &["verify", "--opts", "none:all", "--budget", "2000"],
    );
    assert_golden("suite.txt", &["suite", "--opts", "all", "--budget", "2000"]);
}

#[test]
fn run_stats_json_rejects_missing_parent_before_simulating() {
    let dir = scratch("stats-json");
    let prog = smoke_program(&dir);
    let bad = dir.join("no-such-dir").join("stats.json");
    let out = bin()
        .args(["run", prog.to_str().unwrap(), "--stats-json"])
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cannot write"), "unhelpful error: {err}");
    assert!(
        err.contains("does not exist"),
        "should name the missing parent: {err}"
    );
    assert!(!bad.exists());
}

#[test]
fn trace_out_rejects_missing_parent_and_directory_targets() {
    let dir = scratch("trace-out");
    let prog = smoke_program(&dir);
    let bad = dir.join("absent").join("trace.jsonl");
    let out = bin()
        .args(["trace", prog.to_str().unwrap(), "--out"])
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot write"), "{}", stderr(&out));

    // Naming an existing directory is just as unwritable.
    let out = bin()
        .args(["trace", prog.to_str().unwrap(), "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("is a directory"), "{}", stderr(&out));
}

#[test]
fn ledger_out_rejects_missing_parent() {
    let dir = scratch("ledger-out");
    let bad = dir.join("absent").join("ledger.json");
    let out = bin()
        .args(["ledger", "--bench", "m88k", "--budget", "2000", "--out"])
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot write"), "{}", stderr(&out));
}

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    let dir = scratch("usage");
    let prog = smoke_program(&dir);
    let out = bin()
        .args(["run", prog.to_str().unwrap(), "--max-cycles", "banana"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid value"), "{}", stderr(&out));
}

#[test]
fn zero_sized_axes_are_rejected_with_exit_1() {
    // `adapt --epoch 0` used to be silently clamped to 1; it is now a
    // hard, explained error — as are empty campaign axes and a
    // zero-cycle run cap.
    let out = bin().args(["adapt", "--epoch", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--epoch"), "{}", stderr(&out));

    let out = bin().args(["adapt", "--bench", ","]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("no benchmarks"), "{}", stderr(&out));

    let out = bin().args(["adapt", "--opts", ":"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("no optimization"), "{}", stderr(&out));

    let out = bin().args(["adapt", "--budget", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--budget"), "{}", stderr(&out));

    let dir = scratch("axes");
    let prog = smoke_program(&dir);
    let out = bin()
        .args(["run", prog.to_str().unwrap(), "--max-cycles", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--max-cycles"), "{}", stderr(&out));

    // The fault sweeps, `verify` and `suite` reject the same zero-sized
    // axes instead of printing a vacuous pass or `NaN` rows.
    for (args, needle) in [
        (&["heal", "--trials", "0", "--json"][..], "--trials"),
        (&["inject", "--trials", "0"], "--trials"),
        (&["heal", "--budget", "0"], "--budget"),
        (&["inject", "--budget", "0"], "--budget"),
        (&["inject", "--kinds", ","], "--kinds"),
        (&["heal", "--kinds", ","], "--kinds"),
        (&["inject", "--opts", ":"], "no optimization"),
        (&["heal", "--opts", ":"], "no optimization"),
        (&["inject", "--bench", ","], "no benchmarks"),
        (&["heal", "--bench", ","], "no benchmarks"),
        (&["verify", "--opts", ":"], "no optimization"),
        (&["verify", "--budget", "0"], "--budget"),
        (&["suite", "--opts", ":"], "no optimization"),
        (&["suite", "--budget", "0"], "--budget"),
    ] {
        let out = bin().args(args).output().unwrap();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

#[test]
fn a_flag_in_place_of_the_file_argument_is_a_usage_error() {
    // `tracefill run --json` used to try to read a file named `--json`.
    for cmd in ["run", "interp", "characterize", "trace"] {
        let out = bin().args([cmd, "--json"]).output().unwrap();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(err.contains("usage:"), "{cmd}: {err}");
        assert!(!err.contains("cannot read"), "{cmd}: {err}");
    }
}

#[test]
fn heal_sweep_has_zero_fatal_divergences_and_is_byte_deterministic() {
    let args = [
        "heal", "--trials", "3", "--budget", "6000", "--seed", "7", "--json",
    ];
    let a = bin().args(args).output().unwrap();
    // Exit 0 IS the acceptance assertion: heal exits 1 on any fatal run.
    assert!(a.status.success(), "stderr: {}", stderr(&a));
    let b = bin().args(args).output().unwrap();
    assert_eq!(a.stdout, b.stdout, "same seed must emit identical bytes");
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(text.contains("\"recovered\""), "{text}");
    assert!(text.contains("\"fatal\": 0"), "{text}");
    assert!(text.contains("\"ladder\""), "{text}");
}

#[test]
fn inject_gains_recovered_and_fatal_columns_under_self_repair() {
    let out = bin()
        .args([
            "inject",
            "--self-repair",
            "--detect",
            "oracle",
            "--trials",
            "3",
            "--budget",
            "6000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("self-repair=on"), "{text}");
    assert!(text.contains("recovered"), "{text}");
    assert!(text.contains("fatal"), "{text}");

    // Self-repair without any oracle is a contradiction, not a run.
    let out = bin()
        .args(["inject", "--self-repair", "--detect", "none"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("oracle"), "{}", stderr(&out));
}

#[test]
fn ledger_json_is_byte_deterministic() {
    let args = [
        "ledger", "--bench", "m88k", "--seed", "1", "--warmup", "1000", "--budget", "8000",
        "--json",
    ];
    let a = bin().args(args).output().unwrap();
    let b = bin().args(args).output().unwrap();
    assert!(a.status.success(), "stderr: {}", stderr(&a));
    assert_eq!(a.stdout, b.stdout, "same seed must emit identical bytes");
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(text.contains("\"per_pass\""), "{text}");
    assert!(text.contains("\"doa\""), "{text}");
}
