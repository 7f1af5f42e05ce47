//! The pipeline event trace: end-to-end coverage of every event kind,
//! and tracing never changes what the machine does.

mod common;

use tracefill_core::config::OptConfig;
use tracefill_sim::tracelog::Event;
use tracefill_sim::{SimConfig, Simulator};

#[test]
fn trace_captures_the_full_pipeline_lifecycle() {
    let prog = tracefill_isa::asm::assemble(
        r#"
        .text
main:   li   $s0, 4000
        li   $s1, 0
        li   $s2, 12345
loop:   li   $t9, 1103515245
        mul  $s2, $s2, $t9
        addi $s2, $s2, 12345
        srl  $t0, $s2, 13
        andi $t0, $t0, 1
        beqz $t0, skip          # effectively random: forces recoveries
        addi $s1, $s1, 3
skip:   addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 10
        syscall
"#,
    )
    .unwrap();
    let cfg = SimConfig {
        trace_depth: 2_000_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&prog, cfg);
    sim.run(10_000_000).unwrap();

    let mut fetches = 0;
    let mut tc_fetches = 0;
    let mut issues = 0;
    let mut executes = 0;
    let mut completes = 0;
    let mut retires = 0;
    let mut recovers = 0;
    let mut activates = 0;
    let mut last_cycle = 0;
    for (cycle, e) in sim.trace().events() {
        assert!(cycle >= last_cycle, "events must be time-ordered");
        last_cycle = cycle;
        match e {
            Event::Fetch { seg, .. } => {
                fetches += 1;
                tc_fetches += seg.is_some() as u32;
            }
            Event::Issue { .. } => issues += 1,
            Event::Execute { done, .. } => {
                assert!(done > cycle, "execution must take at least a cycle");
                executes += 1;
            }
            Event::Complete { .. } => completes += 1,
            Event::Retire { .. } => retires += 1,
            Event::Recover { .. } => recovers += 1,
            Event::Activate { .. } => activates += 1,
            Event::Repair { .. } => panic!("clean run must not repair"),
        }
    }
    assert!(fetches > 100);
    assert!(tc_fetches > 0, "trace cache never supplied a bundle");
    assert!(issues >= retires, "cannot retire more than was issued");
    assert!(executes > 0 && completes > 0);
    assert_eq!(retires as u64, sim.stats().retired);
    assert!(recovers > 0, "the random branch must cause recoveries");
    // Whether rescues occur depends on where the divergent branch falls
    // within its segment; this program is known to produce them.
    assert!(activates > 0, "inactive issue must rescue at least once");

    // The renderer produces one line per event and mentions each kind.
    let text = sim.trace().render();
    assert_eq!(text.lines().count(), sim.trace().len());
    for needle in [
        "fetch", "issue", "execute", "complete", "retire", "recover", "activate",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in render");
    }
}

/// The full observer matrix on ijpeg on the machine with every fill-unit
/// optimization off: tracing, alone or with the other observers, changes
/// no simulated quantity and no report byte.
#[test]
fn tracing_does_not_change_timing() {
    common::assert_observation_never_perturbs_simulation(&[common::Case {
        label: "ijpeg",
        prog: tracefill_workloads::by_name("ijpeg")
            .unwrap()
            .program(20)
            .unwrap(),
        opts: OptConfig::none(),
        instrs: Some(50_000),
        sets: common::matrix(),
    }]);
}
