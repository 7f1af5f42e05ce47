//! Randomized differential testing against the functional oracle, plus
//! the fault-injection acceptance paths.
//!
//! * seeded random workloads × every optimization set must finish with the
//!   exact architectural state (registers, memory, output) the ISA
//!   interpreter computes — with the lockstep oracle *and* strict segment
//!   verification armed the whole way;
//! * a deliberately corrupted immediate must produce a structured
//!   [`DivergenceReport`] naming the faulted trace segment;
//! * strict mode must catch fill-side corruption at the cache boundary
//!   before it retires, also when the fill unit replayed the clean
//!   segment from its build memo;
//! * fault injection must be bit-identical given the same seed.

use tracefill_core::config::OptConfig;
use tracefill_isa::interp::Interp;
use tracefill_isa::ArchReg;
use tracefill_sim::{FaultKind, FaultPlan, FaultSpec, SimConfig, Simulator};
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

/// Runs `prog` through the pipeline (oracle + strict verify on) and through
/// the interpreter, then compares the complete architectural state.
fn assert_matches_interp(prog: &tracefill_isa::Program, label: &str, seed: u64) {
    let mut oracle = Interp::new(prog);
    let halt = oracle.run(10_000_000).expect("interpreter must halt");

    let mut sim = Simulator::new(prog, SimConfig::with_opts(opt_sets_lookup(label)));
    sim.run(50_000_000).unwrap_or_else(|e| {
        panic!("seed {seed} opts={label}: pipeline diverged:\n{e}");
    });

    assert_eq!(
        sim.halted(),
        Some(halt),
        "seed {seed} opts={label}: halt state"
    );
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

fn opt_sets_lookup(label: &str) -> OptConfig {
    opt_sets()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, o)| o)
        .unwrap()
}

#[test]
fn randomized_workloads_match_interp_under_every_opt_set() {
    for seed in 1..=4u64 {
        // Vary the mix with the seed so different seeds stress different
        // optimization passes.
        let mix = PatternMix {
            moves: 1 + (seed % 3) as u32,
            imm_chains: 1 + ((seed >> 2) % 3) as u32,
            shift_adds: 1 + ((seed >> 4) % 3) as u32,
            alu: 4,
            memory: 2,
        };
        let prog = generate(&mix, 24, 30, seed).unwrap();
        for (label, _) in opt_sets() {
            assert_matches_interp(&prog, label, seed);
        }
    }
}

#[test]
fn corrupted_immediate_produces_attributed_divergence_report() {
    let prog = generate(&PatternMix::default(), 24, 200, 11).unwrap();
    // Read-path strikes bypass the fill-side verifier entirely, so the
    // oracle is the only checker left — exactly the layer under test.
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    cfg.fill.strict_verify = false;
    cfg.fault_plan = Some(FaultPlan::generate(
        5,
        16,
        64,
        &[FaultKind::BitFlipLookup, FaultKind::CorruptImm],
    ));
    let mut sim = Simulator::new(&prog, cfg);
    let err = sim
        .run(50_000_000)
        .expect_err("a corrupted immediate must not retire silently");
    let rep = err
        .divergence()
        .expect("the error must be a structured divergence report");
    assert!(rep.cycle > 0);
    assert!(!rep.expected.is_empty() && !rep.actual.is_empty());
    let src = rep
        .provenance
        .as_ref()
        .expect("the report must name the originating trace segment");
    assert!(
        src.fault.is_some(),
        "the segment's provenance must carry the injected-fault note, got {src:?}"
    );
    assert!(
        !rep.recent.is_empty(),
        "the retired-instruction ring must be populated"
    );
    // The report serializes for machine consumption.
    let js = rep.to_json().dump();
    assert!(js.contains("\"kind\""));
}

#[test]
fn strict_mode_catches_fill_side_corruption_at_the_cache_boundary() {
    let prog = generate(&PatternMix::default(), 24, 200, 3).unwrap();
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    cfg.fault_plan = Some(FaultPlan::generate(
        9,
        12,
        48,
        &[FaultKind::CorruptImm, FaultKind::BitFlipFill],
    ));
    let mut sim = Simulator::new(&prog, cfg);
    // Strict mode drops corrupted segments before they can retire, so the
    // run completes *correctly*…
    let mut oracle = Interp::new(&prog);
    let halt = oracle.run(10_000_000).unwrap();
    sim.run(50_000_000).unwrap_or_else(|e| {
        panic!("strict mode should contain fill-side corruption:\n{e}");
    });
    assert_eq!(sim.halted(), Some(halt));
    assert_eq!(sim.io().output, oracle.io().output);
    // …and the detections are visible in the metrics.
    assert!(sim.faults_fired() > 0, "the plan must actually fire");
    assert!(
        sim.report().metrics.counter("fault.detected.fill_verify") > 0,
        "strict verification must report the dropped segments"
    );
}

/// The fill unit's build memo vouches only for segments as the passes
/// left them. A `CorruptImm` strike on a segment the fill unit replayed
/// from its memo (its clean twin was built long before) is caught by the
/// cache-boundary check, which runs the verifier on the corrupted copy
/// itself rather than asking the memo.
#[test]
fn memoized_segments_are_verified_again_when_faulted() {
    const AT: u64 = 3_000;
    let b = tracefill_workloads::by_name("m88k").unwrap();
    let prog = b.program(b.scale_for(100_000)).unwrap();
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    assert!(cfg.fill.strict_verify && cfg.oracle_check);
    cfg.fault_plan = Some(FaultPlan {
        seed: 0,
        faults: vec![FaultSpec {
            kind: FaultKind::CorruptImm,
            at_event: AT,
            payload: 0x2a17,
        }],
    });
    let mut sim = Simulator::new(&prog, cfg);
    while sim.fill_stats().segments < AT / 2 {
        sim.step_cycle().unwrap();
    }
    let misses = sim.fill_unit().memo_misses();
    assert!(misses * 10 < AT, "m88k rebuilds few distinct segments");
    while sim.faults_fired() == 0 {
        sim.step_cycle().unwrap();
    }
    // No finalize from fill event AT/2 through the struck one missed the
    // memo: the struck segment is a replayed build.
    assert_eq!(sim.fill_unit().memo_misses(), misses);
    let detected = |sim: &Simulator| sim.report().metrics.counter("fault.detected.fill_verify");
    assert_eq!(detected(&sim), 1, "caught at the cache boundary");
    let mut oracle = Interp::new(&prog);
    let halt = oracle.run(100_000_000).unwrap();
    sim.run(500_000_000).unwrap();
    assert_eq!(sim.halted(), Some(halt));
    assert_eq!(detected(&sim), 1);
    assert_eq!(sim.report().metrics.counter("fill.verify.fail"), 0);
}

#[test]
fn fault_injection_is_bit_identical_given_the_same_seed() {
    let prog = generate(&PatternMix::default(), 24, 100, 17).unwrap();
    let run = |seed: u64| {
        let mut cfg = SimConfig::with_opts(OptConfig::all());
        cfg.fill.strict_verify = false;
        cfg.oracle_check = false; // measure, do not abort
        cfg.fault_plan = Some(FaultPlan::generate(seed, 8, 256, &FaultKind::ALL));
        let mut sim = Simulator::new(&prog, cfg);
        let exit = sim.run(50_000_000).map_err(|e| e.to_string());
        (
            format!("{exit:?}"),
            sim.faults_fired(),
            sim.io().output.clone(),
            sim.report().to_json().dump(),
        )
    };
    let a = run(21);
    let b = run(21);
    assert_eq!(a.0, b.0, "exit state must be deterministic");
    assert_eq!(a.1, b.1, "fired-fault count must be deterministic");
    assert_eq!(a.2, b.2, "output stream must be deterministic");
    assert_eq!(a.3, b.3, "the full report JSON must be byte-identical");
    let c = run(22);
    assert_ne!(
        (a.1, &a.3),
        (c.1, &c.3),
        "a different seed should perturb the run (plan or report)"
    );
}

#[test]
fn dropped_and_stalled_segments_never_corrupt_architecture() {
    // Drop/stall faults are pure performance events; under the oracle the
    // run must still complete with correct state.
    let prog = generate(&PatternMix::default(), 24, 120, 29).unwrap();
    let mut oracle = Interp::new(&prog);
    let halt = oracle.run(10_000_000).unwrap();
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    cfg.fault_plan = Some(FaultPlan::generate(
        31,
        10,
        64,
        &[FaultKind::DropSegment, FaultKind::StallFill],
    ));
    let mut sim = Simulator::new(&prog, cfg);
    sim.run(50_000_000)
        .unwrap_or_else(|e| panic!("drop/stall must be architecturally invisible:\n{e}"));
    assert_eq!(sim.halted(), Some(halt));
    assert_eq!(sim.io().output, oracle.io().output);
}
