//! Self-repair acceptance: divergence containment, architectural
//! restoration, the escalation ladder, and determinism.
//!
//! * with self-repair armed, fault campaigns that are *fatal* on the
//!   stock machine complete cleanly — and end bit-identical to the ISA
//!   interpreter (registers, memory, output, halt) for every
//!   optimization set;
//! * the first offense attributed to a real pass climbs the ladder when
//!   the thresholds say so;
//! * same seed + same plan ⇒ byte-identical repair JSON;
//! * a clean self-repair-on run is byte-identical to a plain run.

mod common;

use tracefill_core::config::OptConfig;
use tracefill_isa::interp::Interp;
use tracefill_isa::ArchReg;
use tracefill_sim::{FaultKind, FaultPlan, SimConfig, Simulator};
use tracefill_workloads::gen::{generate, PatternMix};

/// Every optimization set the paper evaluates (plus the CSE extension).
fn opt_sets() -> Vec<(&'static str, OptConfig)> {
    let one = |f: fn(&mut OptConfig)| {
        let mut o = OptConfig::none();
        f(&mut o);
        o
    };
    vec![
        ("none", OptConfig::none()),
        ("moves", one(|o| o.moves = true)),
        ("reassoc", one(|o| o.reassoc = true)),
        ("scadd", one(|o| o.scadd = true)),
        ("placement", one(|o| o.placement = true)),
        ("cse", one(|o| o.cse = true)),
        ("all", OptConfig::all()),
        ("all+cse", {
            let mut o = OptConfig::all();
            o.cse = true;
            o
        }),
    ]
}

/// A self-repair configuration whose fault plan strikes the trace-cache
/// read path, bypassing the fill-side verifier — without repair, these
/// plans end in fatal divergences.
fn repair_cfg(opts: OptConfig, plan_seed: u64) -> SimConfig {
    let mut cfg = SimConfig::with_opts(opts);
    cfg.fill.strict_verify = false;
    cfg.self_repair.enabled = true;
    cfg.fault_plan = Some(FaultPlan::generate(
        plan_seed,
        16,
        64,
        &[FaultKind::BitFlipLookup, FaultKind::CorruptImm],
    ));
    cfg
}

#[test]
fn repaired_runs_end_architecturally_identical_to_the_interpreter() {
    // Satellite property: after forced divergence + repair, architectural
    // state (registers and every touched memory location) is bit-identical
    // to the interpreter at the replay point — for every opt set. The run
    // completing and matching at halt subsumes every intermediate replay
    // point: each repair restores from the interpreter, and every
    // subsequent retirement is oracle-checked.
    let mut total_repairs = 0u64;
    for seed in 1..=2u64 {
        let prog = generate(&PatternMix::default(), 24, 60, seed).unwrap();
        let mut oracle = Interp::new(&prog);
        let halt = oracle.run(10_000_000).expect("interpreter must halt");
        for (label, opts) in opt_sets() {
            let mut sim = Simulator::new(&prog, repair_cfg(opts, seed * 7 + 5));
            sim.run(50_000_000).unwrap_or_else(|e| {
                panic!("seed {seed} opts={label}: self-repair must contain faults:\n{e}")
            });
            total_repairs += sim.repairs().len() as u64;
            assert_eq!(sim.halted(), Some(halt), "seed {seed} opts={label}: halt");
            assert_eq!(
                sim.io().output,
                oracle.io().output,
                "seed {seed} opts={label}: output stream"
            );
            for r in ArchReg::all() {
                assert_eq!(
                    sim.arch_reg(r),
                    oracle.reg(r),
                    "seed {seed} opts={label}: final value of {r}"
                );
            }
            if let Some(addr) = sim.mem().diff(oracle.mem()) {
                panic!("seed {seed} opts={label}: memory differs at {addr:#010x}");
            }
        }
    }
    assert!(
        total_repairs > 0,
        "the campaign must actually force repairs, or this test proves nothing"
    );
}

#[test]
fn self_repair_contains_what_the_fatal_path_reports() {
    // The exact plan the fatal-path acceptance test uses (seed 5): without
    // self-repair it aborts with a divergence; with it, the run completes
    // and the report carries the same attribution.
    let prog = generate(&PatternMix::default(), 24, 200, 11).unwrap();
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    cfg.fill.strict_verify = false;
    cfg.fault_plan = Some(FaultPlan::generate(
        5,
        16,
        64,
        &[FaultKind::BitFlipLookup, FaultKind::CorruptImm],
    ));
    let mut fatal = Simulator::new(&prog, cfg.clone());
    fatal
        .run(50_000_000)
        .expect_err("without repair this plan is fatal");

    cfg.self_repair.enabled = true;
    let mut sim = Simulator::new(&prog, cfg);
    sim.run(50_000_000)
        .unwrap_or_else(|e| panic!("self-repair must contain the divergence:\n{e}"));
    assert!(
        !sim.repairs().is_empty(),
        "the contained failure is recorded"
    );
    let ev = &sim.repairs()[0];
    assert!(ev.site.cycle > 0 && !ev.site.expected.is_empty() && !ev.site.actual.is_empty());
    let src = ev
        .site
        .provenance
        .as_ref()
        .expect("the event names the offending segment");
    assert!(src.fault.is_some(), "the injected-fault note rides along");
    // The availability counters surface in the metrics registry.
    let m = sim.report().metrics;
    assert_eq!(m.counter("repair.total"), sim.repairs().len() as u64);
    assert!(
        m.counter("repair.invalidated") > 0,
        "offender left the cache"
    );
}

#[test]
fn first_attributed_offense_climbs_the_ladder() {
    let prog = generate(&PatternMix::default(), 24, 200, 11).unwrap();
    let mut cfg = repair_cfg(OptConfig::all(), 5);
    cfg.self_repair.ladder.quarantine_after = 1;
    cfg.self_repair.ladder.disable_after = 2;
    let mut sim = Simulator::new(&prog, cfg);
    sim.run(50_000_000).expect("contained");
    // The first repair whose segment was touched by real passes must
    // quarantine every one of them (threshold 1).
    if let Some(ev) = sim.repairs().iter().find(|e| {
        e.site
            .provenance
            .as_ref()
            .is_some_and(|p| !p.passes.is_empty())
    }) {
        assert!(
            !ev.escalations.is_empty(),
            "threshold-1 ladder must escalate on the first attributed offense: {ev}"
        );
    }
    // The ladder's final state serializes into the report.
    let report = sim.repair_report();
    let text = report.to_json().dump();
    assert!(text.contains("\"ladder\""), "{text}");
    assert!(text.contains("\"repairs\""), "{text}");
}

#[test]
fn repair_reports_are_byte_identical_across_runs() {
    let prog = generate(&PatternMix::default(), 24, 120, 13).unwrap();
    let run = || {
        let mut sim = Simulator::new(&prog, repair_cfg(OptConfig::all(), 41));
        let exit = sim.run(50_000_000).map_err(|e| e.to_string());
        (
            format!("{exit:?}"),
            sim.repair_report().to_json().dump(),
            sim.report().to_json().dump(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "exit state must be deterministic");
    assert_eq!(a.1, b.1, "repair JSON must be byte-identical");
    assert_eq!(a.2, b.2, "the full report JSON must be byte-identical");
}

/// The full observer matrix on a generated program run to its exit
/// syscall: arming self-repair on a healthy machine, alone or with the
/// other observers, changes no simulated quantity and no report byte.
#[test]
fn clean_self_repair_runs_are_byte_identical_to_plain_runs() {
    common::assert_observation_never_perturbs_simulation(&[common::Case {
        label: "gen",
        prog: generate(&PatternMix::default(), 24, 120, 17).unwrap(),
        opts: OptConfig::all(),
        instrs: None,
        sets: common::matrix(),
    }]);
}
