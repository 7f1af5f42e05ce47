//! Property tests for the ISA: encode/decode roundtrips and assembler
//! output validity.

use tracefill_isa::encode::{decode, encode};
use tracefill_isa::{ArchReg, Instr, Op};
use tracefill_util::prop::check;
use tracefill_util::SplitMix64;

const CASES: u64 = 256;

fn arb_reg(rng: &mut SplitMix64) -> ArchReg {
    ArchReg::gpr(rng.range_u32(0, 32) as u8)
}

/// A random *valid* instruction (one `validate` accepts).
fn arb_instr(rng: &mut SplitMix64) -> Instr {
    let ops: Vec<Op> = Op::all().collect();
    let opi = rng.range_u64(0, ops.len() as u64) as usize;
    let (rd, rs, rt) = (arb_reg(rng), arb_reg(rng), arb_reg(rng));
    let raw = rng.next_u32() as i32;
    let op = ops[opi];
    use Op::*;
    let imm = match op {
        Sll | Srl | Sra => raw.rem_euclid(32),
        Addi | Slti | Sltiu | Lb | Lbu | Lh | Lhu | Lw | Sb | Sh | Sw | Beq | Bne | Blez | Bgtz
        | Bltz | Bgez => (raw as i16) as i32,
        Andi | Ori | Xori => (raw as u16) as i32,
        Lui => ((raw as u16) as i32) << 16,
        J | Jal => raw & 0x03ff_ffff,
        _ => 0,
    };
    // Normalize unused register fields to $zero the way the
    // constructors do, so decode output compares equal.
    match op {
        Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Sllv | Srlv | Srav | Mul | Mulh | Div
        | Rem | Lwx => Instr::alu(op, rd, rs, rt),
        Sll | Srl | Sra | Addi | Andi | Ori | Xori | Slti | Sltiu => {
            Instr::alu_imm(op, rd, rs, imm)
        }
        Lui => Instr::alu_imm(op, rd, ArchReg::ZERO, imm),
        Lb | Lbu | Lh | Lhu | Lw => Instr::load(op, rd, rs, imm),
        Sb | Sh | Sw => Instr::store(op, rt, rs, imm),
        Beq | Bne => Instr::branch(op, rs, rt, imm),
        Blez | Bgtz | Bltz | Bgez => Instr::branch(op, rs, ArchReg::ZERO, imm),
        J | Jal => Instr {
            op,
            rd: ArchReg::ZERO,
            rs: ArchReg::ZERO,
            rt: ArchReg::ZERO,
            imm,
        },
        Jr => Instr {
            op,
            rd: ArchReg::ZERO,
            rs,
            rt: ArchReg::ZERO,
            imm: 0,
        },
        Jalr => Instr {
            op,
            rd,
            rs,
            rt: ArchReg::ZERO,
            imm: 0,
        },
        Syscall | Break => Instr {
            op,
            rd: ArchReg::ZERO,
            rs: ArchReg::ZERO,
            rt: ArchReg::ZERO,
            imm: 0,
        },
    }
}

/// encode → decode is the identity on valid instructions.
#[test]
fn encode_decode_roundtrip() {
    check("encode_decode_roundtrip", CASES, |rng| {
        let i = arb_instr(rng);
        let word = encode(&i).expect("generated instruction must encode");
        let back = decode(word).expect("encoded word must decode");
        assert_eq!(back, i);
    });
}

/// decode → encode is the identity on words that decode at all and
/// whose decode re-validates (canonical encodings).
fn assert_decode_encode(word: u32) {
    if let Ok(i) = decode(word) {
        assert!(i.validate().is_ok(), "decode produced invalid instr {i:?}");
        // Re-encoding may differ only in don't-care fields; decoding
        // again must give the same instruction.
        let w2 = encode(&i).unwrap();
        assert_eq!(decode(w2).unwrap(), i, "word {word:#010x}");
    }
}

#[test]
fn decode_encode_roundtrip() {
    // A word that once failed this property.
    assert_decode_encode(17_902_272);
    check("decode_encode_roundtrip", CASES, |rng| {
        assert_decode_encode(rng.next_u32())
    });
}

/// Moves detected by `as_register_move` really are value-preserving:
/// executing the instruction writes exactly the source's value.
#[test]
fn detected_moves_preserve_values() {
    use tracefill_isa::semantics::alu_result;
    check("detected_moves_preserve_values", CASES, |rng| {
        let i = arb_instr(rng);
        let (a, b) = (rng.next_u32(), rng.next_u32());
        if let Some(src) = i.as_register_move() {
            // Only ALU-class instructions are detected as moves.
            let va = if i.rs.is_zero() { 0 } else { a };
            let vb = if i.rt.is_zero() { 0 } else { b };
            let result = alu_result(i.op, va, vb, i.imm);
            let src_val = if src.is_zero() {
                0
            } else if src == i.rs {
                va
            } else {
                vb
            };
            assert_eq!(result, src_val, "move idiom {i} did not copy its source");
        }
    });
}

/// The disassembly of any valid instruction reassembles to the same
/// instruction (for non-control instructions, whose text is position
/// independent).
#[test]
fn disasm_reassembles() {
    use tracefill_isa::op::OpKind;
    check("disasm_reassembles", CASES, |rng| {
        let i = arb_instr(rng);
        if matches!(
            i.op.kind(),
            OpKind::IntAlu
                | OpKind::Shift
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Load
                | OpKind::Store
        ) {
            let text = format!("        .text\nmain:   {i}\n");
            let prog = tracefill_isa::asm::assemble(&text)
                .unwrap_or_else(|e| panic!("reassembly of `{i}` failed: {e}"));
            let words: Vec<u32> = prog.text_words().map(|(_, w)| w).collect();
            assert_eq!(words.len(), 1);
            assert_eq!(decode(words[0]).unwrap(), i);
        }
    });
}
