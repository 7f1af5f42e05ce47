//! Byte-for-byte goldens of the correctness path's reports: the fatal
//! [`DivergenceReport`](tracefill_sim::DivergenceReport) (its `Display`
//! and its JSON) and the contained run's `RepairEvent` lines and
//! `RepairReport` JSON. No CLI command prints these, so the CLI goldens
//! cannot pin them.
//!
//! Each golden is the report's text followed by its one-line JSON dump.
//! On a mismatch the test writes what it got next to the system temp dir
//! and names the file, so an intended format change can be reviewed and
//! copied over the golden.

use std::path::PathBuf;
use tracefill_core::config::OptConfig;
use tracefill_sim::{FaultKind, FaultPlan, SimConfig, Simulator};
use tracefill_workloads::gen::{generate, PatternMix};

/// A fault plan striking the trace-cache read path, past the fill-side
/// verifier, so the oracle is the checker that catches it.
fn read_path_cfg(plan_seed: u64, self_repair: bool) -> SimConfig {
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    cfg.fill.strict_verify = false;
    cfg.self_repair.enabled = self_repair;
    cfg.fault_plan = Some(FaultPlan::generate(
        plan_seed,
        16,
        64,
        &[FaultKind::BitFlipLookup, FaultKind::CorruptImm],
    ));
    cfg
}

/// Compares `got` with `tests/golden/<name>` byte for byte.
fn assert_golden(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join(format!("tracefill-golden-{name}"));
        std::fs::write(&actual, got).unwrap();
        panic!(
            "{} no longer matches; got (also in {}):\n{got}",
            path.display(),
            actual.display()
        );
    }
}

/// Every repair event's log line, then the whole report's JSON.
fn repair_text(sim: &Simulator) -> String {
    let mut text: String = sim.repairs().iter().map(|e| format!("{e}\n")).collect();
    text.push_str(&sim.repair_report().to_json().dump());
    text.push('\n');
    text
}

#[test]
fn fatal_divergence_report_matches_golden() {
    let prog = generate(&PatternMix::default(), 24, 200, 11).unwrap();
    let mut sim = Simulator::new(&prog, read_path_cfg(5, false));
    let err = sim.run(50_000_000).expect_err("this plan is fatal");
    let rep = err.divergence().expect("a structured divergence");
    assert_golden(
        "divergence-seed5.txt",
        &format!("{rep}{}\n", rep.to_json().dump()),
    );
}

#[test]
fn contained_repair_report_matches_golden() {
    let prog = generate(&PatternMix::default(), 24, 200, 11).unwrap();
    let mut sim = Simulator::new(&prog, read_path_cfg(5, true));
    sim.run(50_000_000).expect("self-repair contains the plan");
    assert_golden("repair-seed5.txt", &repair_text(&sim));
}

#[test]
fn repeated_repair_report_matches_golden() {
    let prog = generate(&PatternMix::default(), 24, 120, 13).unwrap();
    let mut sim = Simulator::new(&prog, read_path_cfg(41, true));
    sim.run(50_000_000).expect("self-repair contains the plan");
    assert_golden("repair-seed41.txt", &repair_text(&sim));
}
