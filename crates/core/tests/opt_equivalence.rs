//! Property tests: the fill unit's optimizations preserve dataflow
//! equivalence on arbitrary retire streams, and segment invariants hold.

mod common;

use common::stream;
use tracefill_core::builder::{build_segments, FillInput};
use tracefill_core::config::{ClusterConfig, FillConfig, OptConfig};
use tracefill_core::opt::{self, verify};
use tracefill_isa::{ArchReg, Instr, Op};
use tracefill_util::prop::{check, range};
use tracefill_util::SplitMix64;

const CASES: u64 = 256;

/// One instruction of a synthetic retire stream, weighted toward the
/// patterns the optimizations target.
fn stream_instr(rng: &mut SplitMix64) -> Instr {
    let reg = |rng: &mut SplitMix64| ArchReg::gpr(rng.range_u32(0, 16) as u8);
    match rng.range_u32(0, 11) {
        // Plain ALU.
        0 => Instr::alu(Op::Add, reg(rng), reg(rng), reg(rng)),
        1 => Instr::alu(Op::Sub, reg(rng), reg(rng), reg(rng)),
        2 => Instr::alu(Op::Xor, reg(rng), reg(rng), reg(rng)),
        // Immediate adds (reassociation fodder), including move idioms.
        3 => Instr::alu_imm(Op::Addi, reg(rng), reg(rng), range(rng, -64, 64)),
        4 => {
            let imm = [0, 0, 4, 8][rng.range_u32(0, 4) as usize];
            Instr::alu_imm(Op::Addi, reg(rng), reg(rng), imm)
        }
        // Short shifts (scaled-add fodder).
        5 => Instr::alu_imm(Op::Sll, reg(rng), reg(rng), range(rng, 0, 5)),
        // Loads and stores.
        6 => Instr::load(Op::Lw, reg(rng), reg(rng), 4 * range(rng, -32, 32)),
        7 => Instr::store(Op::Sw, reg(rng), reg(rng), 4 * range(rng, -32, 32)),
        8 => Instr::alu(Op::Lwx, reg(rng), reg(rng), reg(rng)),
        // Conditional branches to break blocks.
        9 => Instr::branch(Op::Beq, reg(rng), reg(rng), range(rng, 1, 8)),
        _ => Instr::branch(Op::Bgtz, reg(rng), ArchReg::ZERO, range(rng, 1, 8)),
    }
}

fn arb_stream(rng: &mut SplitMix64) -> Vec<FillInput> {
    stream(rng, 64, stream_instr)
}

/// Optimizing every segment of a random stream with `opts` keeps its
/// structural invariants and its dataflow equivalence.
fn opts_preserve_equivalence(name: &str, opts: OptConfig) {
    check(name, CASES, |rng| {
        let stream = arb_stream(rng);
        let seed = rng.next_u64();
        for mut seg in build_segments(&stream, &FillConfig::default()) {
            opt::apply_all(&mut seg, &opts, &ClusterConfig::default());
            assert_eq!(seg.check_invariants(), Ok(()));
            if let Err(e) = verify::equivalent(&seg, seed) {
                panic!("equivalence broken: {e}");
            }
        }
    });
}

/// Full optimization preserves equivalence and structural invariants.
#[test]
fn all_opts_preserve_equivalence() {
    opts_preserve_equivalence("all_opts", OptConfig::all());
}

/// Same with in-block reassociation allowed (the paper's unrestricted
/// variant) and a wider scaled-add limit.
#[test]
fn aggressive_opts_preserve_equivalence() {
    let opts = OptConfig {
        reassoc_cross_block_only: false,
        scadd_max_shift: 4,
        cse: true,
        ..OptConfig::all()
    };
    opts_preserve_equivalence("aggressive_opts", opts);
}

/// Segments straight out of the builder always satisfy invariants and
/// trivially verify.
#[test]
fn builder_output_is_well_formed() {
    check("builder_output", CASES, |rng| {
        let cfg = FillConfig::default();
        for seg in build_segments(&arb_stream(rng), &cfg) {
            assert_eq!(seg.check_invariants(), Ok(()));
            assert!(seg.slots.len() <= cfg.max_slots);
            assert!(seg.branches.len() <= cfg.max_cond_branches);
            assert_eq!(verify::equivalent(&seg, 0), Ok(()));
        }
    });
}

/// Placement alone never changes the dependency structure, only the
/// issue permutation.
#[test]
fn placement_only_permutes() {
    check("placement_only", CASES, |rng| {
        for seg in build_segments(&arb_stream(rng), &FillConfig::default()) {
            let mut placed = seg.clone();
            let only = OptConfig::only_placement();
            opt::apply_all(&mut placed, &only, &ClusterConfig::default());
            assert_eq!(&placed.slots, &seg.slots);
            let mut sorted = placed.issue_pos.clone();
            sorted.sort_unstable();
            let expect: Vec<u8> = (0..seg.slots.len() as u8).collect();
            assert_eq!(sorted, expect);
        }
    });
}
