//! End-to-end correctness: diverse programs × every machine configuration.
//!
//! Every run executes with oracle lockstep enabled, so completing at all
//! means every retired register write, store, branch direction and
//! indirect target matched the functional interpreter — under wrong-path
//! execution, inactive issue, checkpoint repair and all four fill-unit
//! optimizations.

use tracefill_core::config::OptConfig;
use tracefill_isa::asm::assemble;
use tracefill_isa::syscall::IoCtx;
use tracefill_isa::Program;
use tracefill_sim::{RunExit, SimConfig, Simulator};

/// Recursive fib: deep call/return chains exercise the RAS and `jr`.
const FIB: &str = r#"
        .text
main:   li   $a0, 12
        jal  fib
        move $a0, $v1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
fib:    slti $t0, $a0, 2
        beqz $t0, rec
        move $v1, $a0
        jr   $ra
rec:    addi $sp, $sp, -12
        sw   $ra, 0($sp)
        sw   $a0, 4($sp)
        addi $a0, $a0, -1
        jal  fib
        sw   $v1, 8($sp)
        lw   $a0, 4($sp)
        addi $a0, $a0, -2
        jal  fib
        lw   $t1, 8($sp)
        add  $v1, $v1, $t1
        lw   $ra, 0($sp)
        addi $sp, $sp, 12
        jr   $ra
"#;

/// Bubble sort: data-dependent branches, heavy load/store aliasing.
const SORT: &str = r#"
        .text
main:   la   $s0, arr
        li   $s1, 24            # n
        li   $t9, 7919
        li   $t0, 0             # fill with pseudo-random values
fill:   mul  $t1, $t0, $t9
        andi $t1, $t1, 1023
        sll  $t2, $t0, 2
        add  $t3, $s0, $t2
        sw   $t1, 0($t3)
        addi $t0, $t0, 1
        blt  $t0, $s1, fill

        li   $t0, 0             # outer
outer:  li   $t1, 0             # inner
inner:  sll  $t2, $t1, 2
        add  $t3, $s0, $t2
        lw   $t4, 0($t3)
        lw   $t5, 4($t3)
        ble  $t4, $t5, noswap
        sw   $t5, 0($t3)
        sw   $t4, 4($t3)
noswap: addi $t1, $t1, 1
        addi $t6, $s1, -2
        ble  $t1, $t6, inner
        addi $t0, $t0, 1
        blt  $t0, $s1, outer

        li   $t0, 0             # print checksum of sorted array
        li   $t7, 0
chk:    sll  $t2, $t0, 2
        lwx  $t4, $s0, $t2
        mul  $t5, $t4, $t0
        add  $t7, $t7, $t5
        addi $t0, $t0, 1
        blt  $t0, $s1, chk
        move $a0, $t7
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        .data
arr:    .space 128
"#;

/// Jump-table dispatch: indirect jumps through a table (interpreter-like).
const DISPATCH: &str = r#"
        .text
main:   li   $s0, 0             # accumulator
        li   $s1, 40            # iterations
        la   $s2, table
loop:   andi $t0, $s1, 3        # op = i % 4
        sll  $t1, $t0, 2
        lwx  $t2, $s2, $t1
        jr   $t2
op0:    addi $s0, $s0, 3
        j    next
op1:    sll  $s0, $s0, 1
        andi $s0, $s0, 0xffff
        j    next
op2:    addi $s0, $s0, -1
        j    next
op3:    xori $s0, $s0, 0x5a
        j    next
next:   addi $s1, $s1, -1
        bgtz $s1, loop
        move $a0, $s0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        .data
table:  .word op0, op1, op2, op3
"#;

/// Store-to-load forwarding and partial-overlap hazards.
const ALIAS: &str = r#"
        .text
main:   la   $s0, buf
        li   $s1, 64
        li   $t7, 0
loop:   andi $t0, $s1, 15
        sll  $t1, $t0, 2
        add  $t2, $s0, $t1
        sw   $s1, 0($t2)        # word store
        lw   $t3, 0($t2)        # exact-match forward
        sb   $s1, 1($t2)        # byte store into the same word
        lw   $t4, 0($t2)        # partial overlap: must wait for retire
        lbu  $t5, 1($t2)
        add  $t7, $t7, $t3
        add  $t7, $t7, $t4
        add  $t7, $t7, $t5
        addi $s1, $s1, -1
        bgtz $s1, loop
        move $a0, $t7
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        .data
buf:    .space 64
"#;

/// Optimization-pattern-dense kernel: moves, immediate chains, shift+add.
const PATTERNS: &str = r#"
        .text
main:   li   $s1, 300
        la   $s0, data
        li   $s3, 0
loop:   andi $t0, $s1, 31
        sll  $t1, $t0, 2        # scaled add fodder
        add  $t2, $s0, $t1
        lw   $t3, 0($t2)
        move $t4, $t3           # move idiom
        addi $t5, $t4, 4        # immediate chain
        addi $t6, $t5, 4
        addi $t7, $t6, 8
        add  $s3, $s3, $t7
        sw   $s3, 0($t2)
        move $a1, $s3
        addi $s1, $s1, -1
        bgtz $s1, loop
        move $a0, $s3
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        .data
data:   .space 128
"#;

/// Input-driven program: READ_INT / serialization under speculation.
const INPUTS: &str = r#"
        .text
main:   li   $s0, 0
        li   $s1, 5
loop:   li   $v0, 5
        syscall                 # read
        add  $s0, $s0, $v0
        addi $s1, $s1, -1
        bgtz $s1, loop
        move $a0, $s0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#;

fn reference_output(prog: &Program, input: &[u32]) -> Vec<u32> {
    let mut i =
        tracefill_isa::interp::Interp::with_io(prog, IoCtx::with_input(input.iter().copied()));
    i.run(10_000_000).expect("reference run exits");
    i.io().output.clone()
}

fn configs() -> Vec<(&'static str, SimConfig)> {
    let mut v = vec![
        ("baseline", SimConfig::default()),
        ("moves", SimConfig::with_opts(OptConfig::only_moves())),
        ("reassoc", SimConfig::with_opts(OptConfig::only_reassoc())),
        ("scadd", SimConfig::with_opts(OptConfig::only_scadd())),
        (
            "placement",
            SimConfig::with_opts(OptConfig::only_placement()),
        ),
        ("all", SimConfig::with_opts(OptConfig::all())),
    ];
    let mut lat10 = SimConfig::with_opts(OptConfig::all());
    lat10.fill.latency = 10;
    v.push(("all+lat10", lat10));
    let mut nopack = SimConfig::default();
    nopack.fill.packing = false;
    v.push(("nopack", nopack));
    let mut noinactive = SimConfig::with_opts(OptConfig::all());
    noinactive.inactive_issue = false;
    v.push(("noinactive", noinactive));
    let mut nopromo = SimConfig::default();
    nopromo.fill.promotion = false;
    v.push(("nopromo", nopromo));
    let mut with_cse = OptConfig::all();
    with_cse.cse = true;
    v.push(("all+cse", SimConfig::with_opts(with_cse)));
    let mut tiny_tc = SimConfig::with_opts(OptConfig::all());
    tiny_tc.tcache.entries = 16;
    tiny_tc.tcache.ways = 2;
    v.push(("tinytc", tiny_tc));
    v
}

fn check_program(name: &str, src: &str, input: &[u32]) {
    check_under(name, src, input, configs());
}

/// Runs `src` on every config of `configs` and compares its output with
/// the interpreter's.
fn check_under(name: &str, src: &str, input: &[u32], configs: Vec<(&str, SimConfig)>) {
    let prog = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let expect = reference_output(&prog, input);
    for (cname, cfg) in configs {
        let mut sim = Simulator::with_io(&prog, cfg, IoCtx::with_input(input.iter().copied()));
        let exit = sim
            .run(20_000_000)
            .unwrap_or_else(|e| panic!("{name}/{cname}: {e}"));
        assert!(
            matches!(exit, RunExit::Exited(_)),
            "{name}/{cname}: did not exit ({exit:?})"
        );
        assert_eq!(sim.io().output, expect, "{name}/{cname}: output mismatch");
        assert!(sim.stats().retired > 0);
    }
}

#[test]
fn fib_under_all_configs() {
    check_program("fib", FIB, &[]);
}

#[test]
fn sort_under_all_configs() {
    check_program("sort", SORT, &[]);
}

#[test]
fn dispatch_under_all_configs() {
    check_program("dispatch", DISPATCH, &[]);
}

#[test]
fn alias_under_all_configs() {
    check_program("alias", ALIAS, &[]);
}

#[test]
fn patterns_under_all_configs() {
    check_program("patterns", PATTERNS, &[]);
}

#[test]
fn inputs_under_all_configs() {
    check_program("inputs", INPUTS, &[3, 1, 4, 1, 5]);
}

/// Latencies at both ends of the scheduler's rings: every class at one
/// cycle, and a slow divider and memory with a three-cycle cross-cluster
/// hop.
#[test]
fn extreme_latencies_under_every_program() {
    let mut unit = SimConfig::with_opts(OptConfig::all());
    unit.latency.mul = 1;
    unit.latency.div = 1;
    unit.hierarchy.timings.l2_hit = 1;
    unit.hierarchy.timings.dram = 1;
    let mut slow = SimConfig::with_opts(OptConfig::all());
    slow.latency.div = 70;
    slow.hierarchy.timings.l2_hit = 20;
    slow.hierarchy.timings.dram = 300;
    slow.cross_cluster_latency = 3;
    for (name, src, input) in [
        ("fib", FIB, &[][..]),
        ("sort", SORT, &[]),
        ("dispatch", DISPATCH, &[]),
        ("alias", ALIAS, &[]),
        ("patterns", PATTERNS, &[]),
        ("inputs", INPUTS, &[3, 1, 4, 1, 5]),
    ] {
        let configs = vec![("unit", unit.clone()), ("slow", slow.clone())];
        check_under(name, src, input, configs);
    }
}

/// A zero latency would file a completion under the cycle being
/// completed; construction rejects it and names the field.
#[test]
#[should_panic(expected = "LatencyConfig::div is 0")]
fn zero_latency_is_rejected_naming_the_field() {
    let prog = assemble(FIB).unwrap();
    let mut cfg = SimConfig::default();
    cfg.latency.div = 0;
    let _ = Simulator::new(&prog, cfg);
}

#[test]
fn optimizations_do_not_hurt_patterns_kernel() {
    let prog = assemble(PATTERNS).unwrap();
    let mut base = Simulator::new(&prog, SimConfig::default());
    base.run(10_000_000).unwrap();
    let mut opt = Simulator::new(&prog, SimConfig::with_opts(OptConfig::all()));
    opt.run(10_000_000).unwrap();
    let (b, o) = (base.stats().ipc(), opt.stats().ipc());
    assert!(
        o > b * 0.98,
        "optimized IPC {o:.3} should not regress below baseline {b:.3}"
    );
    // The kernel is dense in optimizable patterns; expect a visible win.
    assert!(
        o > b * 1.02,
        "optimized IPC {o:.3} should beat baseline {b:.3} on this kernel"
    );
    assert!(opt.stats().retired_moves > 0);
    assert!(opt.stats().retired_scadd > 0);
}

#[test]
fn trace_cache_supplies_most_instructions_in_loops() {
    let prog = assemble(PATTERNS).unwrap();
    let mut sim = Simulator::new(&prog, SimConfig::default());
    sim.run(10_000_000).unwrap();
    assert!(
        sim.stats().tc_fraction() > 0.5,
        "tc fraction {:.3} too low",
        sim.stats().tc_fraction()
    );
    assert!(sim.tcache_stats().hits > 0);
}
