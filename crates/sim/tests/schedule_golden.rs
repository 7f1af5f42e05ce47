//! A golden of the machine's schedule: for each (program, config) case,
//! the cycles a run took, the instructions it retired and the FNV-1a of
//! its whole report's JSON, one line per case in `tests/golden/schedule.txt`.
//!
//! The cases cover every edge on which a waiting uop or a blocked load
//! becomes ready: same-address store-to-load forwarding whose store data
//! arrives late, a partial overlap that waits for the store to retire, a
//! store whose unknown address blocks younger loads, deferred memory ops
//! in an inactive shadow that activates, a `$v0` consumer of a syscall
//! in the same bundle, loads that miss to DRAM (also under a slower
//! hierarchy), the cross-cluster bypass at 0, 1 and 3 cycles with
//! placement on and off, and a self-repair run that squashes everything.
//! Any change to when a uop executes moves a cycle count or a report
//! hash.
//!
//! On a mismatch the test writes what it got to the system temp dir and
//! names the file, so an intended timing change can be reviewed and
//! copied over the golden.

use std::fmt::Write;
use std::path::PathBuf;
use tracefill_core::config::OptConfig;
use tracefill_isa::asm::assemble;
use tracefill_isa::syscall::IoCtx;
use tracefill_isa::Program;
use tracefill_sim::{FaultKind, FaultPlan, SimConfig, Simulator};
use tracefill_util::fnv1a64;
use tracefill_workloads::gen::{generate, PatternMix};

/// Same-address forwarding behind a multiply, and a byte store inside the
/// word a younger load reads (the load waits for the store to retire).
const STORE_LOAD: &str = r#"
        .text
main:   li   $s0, 600
        la   $s3, buf
        li   $s4, 7
loop:   mul  $t1, $s0, $s4
        sw   $t1, 0($s3)        # data arrives late (multiply)
        lw   $t2, 0($s3)        # same address: forwarded once it has
        add  $s1, $s1, $t2
        sb   $s0, 5($s3)
        lw   $t3, 4($s3)        # partial overlap with the byte store
        add  $s1, $s1, $t3
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 10
        syscall
        .data
buf:    .space 64
"#;

/// A store whose base register comes from a divide: its address stays
/// unknown for the divide's latency and blocks every younger load.
const DIV_BASE: &str = r#"
        .text
main:   li   $s0, 500
        la   $s3, buf
        li   $s5, 3
loop:   andi $t0, $s0, 7
        sll  $t0, $t0, 3
        mul  $t0, $t0, $s5
        div  $t0, $t0, $s5
        add  $t1, $s3, $t0
        sw   $s0, 0($t1)        # address waits for the divide
        lw   $t2, 128($s3)      # younger load, different word
        lw   $t3, 0($t1)        # younger load, same word
        add  $s1, $s1, $t2
        add  $s1, $s1, $t3
        sw   $s1, 128($s3)
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 10
        syscall
        .data
buf:    .space 256
"#;

/// A data-dependent branch the predictor cannot learn, with memory ops
/// past it: trace lines issue them inactively (deferred) and activate
/// them when the embedded path turns out right.
const SHADOW_MEM: &str = r#"
        .text
main:   li   $s0, 1500
        li   $s2, 12345
        la   $s3, buf
        nop                     # aligns the loop so that its trace
        nop                     # lines run past the random branch
        nop
        nop
loop:   li   $t9, 1103515245
        mul  $s2, $s2, $t9
        addi $s2, $s2, 12345
        srl  $t0, $s2, 13
        andi $t0, $t0, 1
        beqz $t0, skip
        sw   $s0, 0($s3)
        lw   $t1, 4($s3)
        add  $s1, $s1, $t1
skip:   lw   $t2, 0($s3)
        add  $t2, $t2, $s1
        sw   $t2, 4($s3)
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 10
        syscall
        .data
buf:    .space 64
"#;

/// A syscall in the middle of a loop body whose `$v0` result is read by
/// the next instructions of the same bundle.
const SYSCALL_V0: &str = r#"
        .text
main:   li   $s0, 120
loop:   li   $v0, 5
        syscall                 # READ_INT publishes $v0 at retire
        add  $s1, $s1, $v0
        sll  $t0, $v0, 1
        add  $s2, $s2, $t0
        addi $s0, $s0, -1
        bgtz $s0, loop
        add  $a0, $s1, $s2
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 10
        syscall
"#;

/// Loads that walk cold lines (every one misses to DRAM), with a store
/// into each line so later loads of it forward or hit.
const DRAM_MISS: &str = r#"
        .text
main:   li   $s0, 400
        lui  $s3, 0x1100
loop:   lw   $t0, 0($s3)
        add  $s1, $s1, $t0
        sw   $s1, 4($s3)
        lw   $t1, 4($s3)
        add  $s1, $s1, $t1
        addi $s3, $s3, 4160
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 10
        syscall
"#;

/// The raw-throughput configuration the full-window benchmark runs.
fn raw(opts: OptConfig) -> SimConfig {
    let mut cfg = SimConfig::with_opts(opts);
    cfg.oracle_check = false;
    cfg.fill.strict_verify = false;
    cfg
}

/// Runs `prog` on `cfg` until it exits or retires `budget` instructions.
fn run(prog: &Program, cfg: SimConfig, io: IoCtx, budget: u64) -> Simulator {
    let mut sim = Simulator::with_io(prog, cfg, io);
    sim.run_budgeted(budget, 20_000_000, None).unwrap();
    sim
}

/// A run's golden line: its cycles, retired count and report hash.
fn line(name: &str, sim: &Simulator) -> String {
    let stats = sim.stats();
    let json = sim.report().to_json().dump();
    format!(
        "{name} cycles={} retired={} report={:016x}\n",
        stats.cycles,
        stats.retired,
        fnv1a64(json.as_bytes())
    )
}

fn asm(src: &str) -> Program {
    assemble(src).unwrap()
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

#[test]
fn schedule_matches_golden() {
    let mut out = String::new();
    let none = IoCtx::default;
    let budget = 1_000_000;

    // Programs of the full-window benchmark's generator: its memory
    // blocks store and reload one address behind a serial chain.
    for seed in [11, 29] {
        let prog = generate(&PatternMix::default(), 24, 60, seed).unwrap();
        for (label, opts) in [("none", OptConfig::none()), ("all", OptConfig::all())] {
            let sim = run(&prog, raw(opts), none(), 20_000);
            out.push_str(&line(&format!("gen24-seed{seed}-{label}"), &sim));
        }
    }

    for (name, src) in [
        ("store-load", STORE_LOAD),
        ("div-base", DIV_BASE),
        ("dram-miss", DRAM_MISS),
        ("shadow-mem", SHADOW_MEM),
    ] {
        for (label, opts) in [("none", OptConfig::none()), ("all", OptConfig::all())] {
            let sim = run(&asm(src), SimConfig::with_opts(opts), none(), budget);
            if name == "shadow-mem" {
                assert!(sim.stats().inactive_rescues > 0, "no shadow activated");
            }
            out.push_str(&line(&format!("{name}-{label}"), &sim));
        }
    }

    let input = || IoCtx::with_input((1..=120).map(|i| i * 37 % 101));
    for (label, opts) in [("none", OptConfig::none()), ("all", OptConfig::all())] {
        let sim = run(
            &asm(SYSCALL_V0),
            SimConfig::with_opts(opts),
            input(),
            budget,
        );
        out.push_str(&line(&format!("syscall-v0-{label}"), &sim));
    }

    // A slower hierarchy and divider: latencies well past the default
    // longest.
    let mut slow = SimConfig::default();
    slow.hierarchy.timings.l2_hit = 20;
    slow.hierarchy.timings.dram = 300;
    slow.latency.div = 70;
    for (name, src) in [("dram-miss-slow", DRAM_MISS), ("div-base-slow", DIV_BASE)] {
        out.push_str(&line(name, &run(&asm(src), slow.clone(), none(), budget)));
    }

    // The cross-cluster bypass, with and without placement.
    let m88k = tracefill_workloads::suite::by_name("m88k").unwrap();
    let prog = m88k.program(m88k.scale_for(6_000)).unwrap();
    for cross in [0, 1, 3] {
        for placement in [false, true] {
            let mut cfg = SimConfig::with_opts(OptConfig::all());
            cfg.fill.opts.placement = placement;
            cfg.cross_cluster_latency = cross;
            let sim = run(&prog, cfg, none(), 6_000);
            out.push_str(&line(
                &format!("m88k-cross{cross}-placement-{placement}"),
                &sim,
            ));
        }
    }

    // Self-repair: every contained divergence squashes the whole machine.
    let prog = generate(&PatternMix::default(), 24, 200, 11).unwrap();
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    cfg.fill.strict_verify = false;
    cfg.self_repair.enabled = true;
    cfg.fault_plan = Some(FaultPlan::generate(
        5,
        16,
        64,
        &[FaultKind::BitFlipLookup, FaultKind::CorruptImm],
    ));
    let sim = run(&prog, cfg, none(), budget);
    assert!(!sim.repairs().is_empty(), "no divergence was contained");
    let mut repaired = line("self-repair-seed5", &sim);
    repaired.pop();
    let _ = writeln!(repaired, " repairs={}", sim.repairs().len());
    out.push_str(&repaired);

    assert_golden("schedule.txt", &out);
}
