//! Opcodes of the SSA ISA and their static classification.
//!
//! The opcode set is modeled on the SimpleScalar PISA (itself a MIPS-IV
//! derivative) with the properties that matter to the fill-unit study:
//!
//! * **no architectural register-to-register move** — compilers synthesize
//!   moves from `ADDI rd <- rs + 0`, `ADD rd <- rs + $zero`, `OR rd <- rs |
//!   $zero`, and friends;
//! * **16-bit immediates** — sign-extended for arithmetic/compare ops and
//!   memory displacements, zero-extended for the logical ops;
//! * **short immediate shifts** — the `SLL/SRL/SRA rd <- rs << shamt` forms
//!   used for array index scaling;
//! * **indexed (register + register) loads** (`LWX`), which SimpleScalar 2.0
//!   adds over MIPS;
//! * **no architectural delay slots**.
//!
//! Multiply and divide are single-destination (`MUL`, `MULH`, `DIV`, `REM`):
//! there are no `HI`/`LO` registers in this ISA.

use std::fmt;

/// Every opcode of the SSA ISA.
///
/// Operand roles are uniform per format; see [`crate::instr::Instr`] for how
/// `rd`/`rs`/`rt`/`imm` are interpreted for each opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is documented by the table in `kind`
pub enum Op {
    // Three-register ALU: rd <- rs OP rt.
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Sllv,
    Srlv,
    Srav,
    // Multiply / divide (single destination): rd <- rs OP rt.
    Mul,
    Mulh,
    Div,
    Rem,
    // Shift by immediate: rd <- rs SHIFT shamt (shamt in `imm`, 0..32).
    Sll,
    Srl,
    Sra,
    // ALU with 16-bit immediate: rd <- rs OP imm.
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    // Load upper immediate: rd <- imm << 16.
    Lui,
    // Loads: rd <- mem[rs + imm].
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    // Indexed load: rd <- mem[rs + rt].
    Lwx,
    // Stores: mem[rs + imm] <- rt. (There is no indexed store: every SSA
    // instruction has at most two register sources, which is what lets the
    // trace segment encode live-in information with one bit per source.)
    Sb,
    Sh,
    Sw,
    // Conditional branches (PC-relative, offset in instructions in `imm`).
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
    // Unconditional control: absolute-target jumps and register jumps.
    J,
    Jal,
    Jr,
    Jalr,
    // System: `Syscall` is serializing; `Break` halts with an error code.
    Syscall,
    Break,
}

/// Broad execution class of an opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Single-cycle integer ALU operation (including compares and `LUI`).
    IntAlu,
    /// Shift (immediate or variable).
    Shift,
    /// Integer multiply (`MUL`, `MULH`).
    Mul,
    /// Integer divide / remainder.
    Div,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    CondBranch,
    /// Unconditional jump (direct, call, register-indirect, call-indirect).
    Jump,
    /// Serializing system operation.
    System,
}

impl Op {
    /// The execution class of this opcode.
    pub fn kind(self) -> OpKind {
        use Op::*;
        match self {
            Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Addi | Andi | Ori | Xori | Slti
            | Sltiu | Lui => OpKind::IntAlu,
            Sll | Srl | Sra | Sllv | Srlv | Srav => OpKind::Shift,
            Mul | Mulh => OpKind::Mul,
            Div | Rem => OpKind::Div,
            Lb | Lbu | Lh | Lhu | Lw | Lwx => OpKind::Load,
            Sb | Sh | Sw => OpKind::Store,
            Beq | Bne | Blez | Bgtz | Bltz | Bgez => OpKind::CondBranch,
            J | Jal | Jr | Jalr => OpKind::Jump,
            Syscall | Break => OpKind::System,
        }
    }

    /// Whether this opcode is a conditional branch.
    pub fn is_cond_branch(self) -> bool {
        self.kind() == OpKind::CondBranch
    }

    /// Whether this opcode is any control transfer (branch or jump).
    pub fn is_control(self) -> bool {
        matches!(self.kind(), OpKind::CondBranch | OpKind::Jump)
    }

    /// Whether this opcode reads memory.
    pub fn is_load(self) -> bool {
        self.kind() == OpKind::Load
    }

    /// Whether this opcode writes memory.
    pub fn is_store(self) -> bool {
        self.kind() == OpKind::Store
    }

    /// Whether this opcode is an indirect (register-target) control transfer.
    ///
    /// Indirect transfers (`JR`, `JALR`) terminate trace segments in the
    /// fill unit, as do returns (which the ISA expresses as `JR $ra`).
    pub fn is_indirect(self) -> bool {
        matches!(self, Op::Jr | Op::Jalr)
    }

    /// Whether this opcode is a subroutine call (`JAL`, `JALR`).
    ///
    /// Calls do *not* terminate trace segments.
    pub fn is_call(self) -> bool {
        matches!(self, Op::Jal | Op::Jalr)
    }

    /// Whether this opcode serializes the pipeline (forces segment
    /// termination and drains the machine before executing).
    pub fn is_serializing(self) -> bool {
        self.kind() == OpKind::System
    }

    /// Whether an instruction with this opcode uses its `imm` field at all.
    pub fn has_imm(self) -> bool {
        use Op::*;
        matches!(
            self,
            Sll | Srl
                | Sra
                | Addi
                | Andi
                | Ori
                | Xori
                | Slti
                | Sltiu
                | Lui
                | Lb
                | Lbu
                | Lh
                | Lhu
                | Lw
                | Sb
                | Sh
                | Sw
                | Beq
                | Bne
                | Blez
                | Bgtz
                | Bltz
                | Bgez
                | J
                | Jal
        )
    }

    /// Number of bytes a memory opcode accesses, or `None` for non-memory.
    pub fn access_size(self) -> Option<u32> {
        use Op::*;
        match self {
            Lb | Lbu | Sb => Some(1),
            Lh | Lhu | Sh => Some(2),
            Lw | Lwx | Sw => Some(4),
            _ => None,
        }
    }

    /// The lower-case mnemonic of this opcode.
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Nor => "nor",
            Slt => "slt",
            Sltu => "sltu",
            Sllv => "sllv",
            Srlv => "srlv",
            Srav => "srav",
            Mul => "mul",
            Mulh => "mulh",
            Div => "div",
            Rem => "rem",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slti => "slti",
            Sltiu => "sltiu",
            Lui => "lui",
            Lb => "lb",
            Lbu => "lbu",
            Lh => "lh",
            Lhu => "lhu",
            Lw => "lw",
            Lwx => "lwx",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Beq => "beq",
            Bne => "bne",
            Blez => "blez",
            Bgtz => "bgtz",
            Bltz => "bltz",
            Bgez => "bgez",
            J => "j",
            Jal => "jal",
            Jr => "jr",
            Jalr => "jalr",
            Syscall => "syscall",
            Break => "break",
        }
    }

    /// Iterates over every opcode.
    pub fn all() -> impl Iterator<Item = Op> {
        use Op::*;
        [
            Add, Sub, And, Or, Xor, Nor, Slt, Sltu, Sllv, Srlv, Srav, Mul, Mulh, Div, Rem, Sll,
            Srl, Sra, Addi, Andi, Ori, Xori, Slti, Sltiu, Lui, Lb, Lbu, Lh, Lhu, Lw, Lwx, Sb, Sh,
            Sw, Beq, Bne, Blez, Bgtz, Bltz, Bgez, J, Jal, Jr, Jalr, Syscall, Break,
        ]
        .into_iter()
    }

    /// Parses a mnemonic into an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Op> {
        Op::all().find(|op| op.mnemonic() == s)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_roundtrip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Op::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn classification_is_consistent() {
        for op in Op::all() {
            assert_eq!(op.is_load(), op.kind() == OpKind::Load);
            assert_eq!(op.is_store(), op.kind() == OpKind::Store);
            if op.is_indirect() {
                assert!(op.is_control());
            }
            if op.is_cond_branch() {
                assert!(op.has_imm(), "{op} branches need an offset");
            }
            if let Some(sz) = op.access_size() {
                assert!(op.is_load() || op.is_store());
                assert!(matches!(sz, 1 | 2 | 4));
            }
        }
    }

    #[test]
    fn calls_do_not_serialize() {
        assert!(Op::Jal.is_call());
        assert!(Op::Jalr.is_call());
        assert!(!Op::Jal.is_serializing());
        assert!(Op::Syscall.is_serializing());
    }
}
