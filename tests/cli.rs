//! End-to-end tests of the `tracefill` binary itself: output-path
//! validation must fail fast with a clear message and nonzero exit, the
//! ledger report must be byte-deterministic across invocations, and the
//! sweep subcommands must reproduce the goldens under `tests/golden/`.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use tracefill_util::Json;

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
    assert_golden_from(bin().args(args), name);
}

/// [`assert_golden`] for a prepared command (e.g. one run in another
/// working directory).
fn assert_golden_from(cmd: &mut Command, name: &str) {
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        out.stdout == want,
        "`{cmd:?}` no longer matches {}; got:\n{}",
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
    // Two benchmarks through one ledger invocation.
    assert_golden(
        "ledger-two.json",
        &[
            "ledger",
            "--bench",
            "m88k,comp",
            "--seed",
            "1",
            "--warmup",
            "1000",
            "--budget",
            "8000",
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
    // The file form, run beside the program so the golden names no
    // temporary directory.
    let dir = scratch("verify-file");
    smoke_program(&dir);
    assert_golden_from(
        bin().current_dir(&dir).args([
            "verify", "smoke.s", "--opts", "none:all", "--budget", "2000",
        ]),
        "verify-file.txt",
    );
    assert_golden("suite.txt", &["suite", "--opts", "all", "--budget", "2000"]);
    // Each pass alone: the per-pass IPC behind Figs 3-6.
    assert_golden(
        "suite-passes.txt",
        &[
            "suite",
            "--opts",
            "moves:reassoc:scadd:placement",
            "--budget",
            "2000",
        ],
    );
}

/// The observers' exports on the smoke program: every trace kind (fetch,
/// issue, execute, complete, retire, recover, activate), the ledger's
/// segment tracks (squashed uops, refreshed and resident lines), and a
/// report with every observer armed. Each golden also parses into the
/// shape its consumers expect.
#[test]
fn observer_exports_match_goldens() {
    let dir = scratch("observed");
    let prog = smoke_program(&dir);
    let prog = prog.to_str().unwrap();
    assert_golden("trace.jsonl", &["trace", prog]);
    assert_golden(
        "trace-ledger.chrome.json",
        &["trace", prog, "--format", "chrome", "--ledger"],
    );
    assert_golden(
        "run-observed.json",
        &[
            "run",
            prog,
            "--ledger",
            "--self-repair",
            "--trace",
            "64",
            "--json",
        ],
    );

    let jsonl = include_str!("golden/trace.jsonl");
    for line in jsonl.lines() {
        let event = Json::parse(line).unwrap();
        assert!(event.get("cycle").is_some() && event.get("kind").is_some());
    }
    let chrome = Json::parse(include_str!("golden/trace-ledger.chrome.json")).unwrap();
    let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
    let segments = jsonl.lines().count()..events.len();
    assert_eq!(segments.len(), 22, "one track per ledgered segment");
    let report = Json::parse(include_str!("golden/run-observed.json")).unwrap();
    for member in ["stats", "cpi", "metrics"] {
        assert!(report.get(member).is_some(), "run-observed.json: {member}");
    }
}

/// `doc` without any `ledger.*` member, at any depth.
fn without_ledger(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !k.starts_with("ledger."))
                .map(|(k, v)| (k.clone(), without_ledger(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Arming the ledger and self-repair on a healthy run changes no byte of
/// the `--stats-json` report outside `ledger.*`; the plain report carries
/// no `ledger.*` or `repair.*` key.
#[test]
fn observed_and_plain_stats_json_agree_outside_the_ledger() {
    let dir = scratch("stats-identity");
    let prog = smoke_program(&dir);
    let report = |name: &str, extra: &[&str]| {
        let path = dir.join(name);
        let out = bin()
            .args(["run", prog.to_str().unwrap(), "--stats-json"])
            .arg(&path)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
    };
    let plain = report("plain.json", &[]);
    let observed = report("observed.json", &["--ledger", "--self-repair"]);
    let plain_text = plain.dump();
    assert!(!plain_text.contains("\"ledger.") && !plain_text.contains("\"repair."));
    assert!(observed.dump().contains("\"ledger.segments\""));
    assert_eq!(without_ledger(&observed).dump(), plain_text);
}

#[test]
fn a_closed_stdout_ends_the_process_without_a_panic() {
    let dir = scratch("closed-stdout");
    let prog = smoke_program(&dir);
    for args in [
        &["trace", prog.to_str().unwrap()][..],
        &["ledger", "--bench", "m88k", "--budget", "2000"],
    ] {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Hang up before the simulation finishes and prints.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let err = stderr(&out);
        assert!(!out.status.success(), "{args:?}: {:?}", out.status);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// `verify` passes a run only if it ends `ok`: one stopped by the cycle
/// watchdog before its budget fails the command, naming the status.
#[test]
fn verify_fails_a_run_stopped_by_the_cycle_limit() {
    let dir = scratch("verify-cycle-limit");
    let prog = smoke_program(&dir);
    let out = bin()
        .args(["verify", prog.to_str().unwrap(), "--opts", "all"])
        .args(["--max-cycles", "50"])
        .output()
        .unwrap();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("FAIL") && err.contains("cycle-limit"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("PASS"), "{text}");
    assert!(text.contains("1 failed"), "{text}");
}

#[test]
fn trace_rejects_ledger_without_chrome_format() {
    let dir = scratch("trace-ledger-jsonl");
    let prog = smoke_program(&dir);
    for format in [&[][..], &["--format", "jsonl"]] {
        let out = bin()
            .args(["trace", prog.to_str().unwrap(), "--ledger"])
            .args(format)
            .output()
            .unwrap();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{format:?}: {err}");
        assert!(
            err.contains("--ledger") && err.contains("--format chrome"),
            "{err}"
        );
        assert!(out.stdout.is_empty());
    }
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
fn programs_without_instructions_are_rejected() {
    // An empty file used to run 200M cycles over zeroed memory and exit 0.
    let dir = scratch("no-instructions");
    for (name, src) in [
        ("empty.s", ""),
        ("data-only.s", "        .data\nvals:   .word 1, 2, 3\n"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        let file = path.to_str().unwrap();
        let want = format!("{file}: no instructions");
        for cmd in ["run", "trace", "interp", "characterize", "verify"] {
            let out = bin().args([cmd, file]).output().unwrap();
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {err}");
            assert!(err.contains(&want), "{cmd} {name}: {err}");
            assert!(out.stdout.is_empty(), "{cmd} {name} printed a result");
        }
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
