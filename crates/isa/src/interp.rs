//! Functional interpreter — the architectural oracle.
//!
//! The interpreter executes programs one instruction at a time with no
//! timing model. The pipeline simulator retires instructions against a
//! lockstepped interpreter and asserts that every architectural effect
//! (register writes, memory writes, control flow, I/O) matches, which is the
//! workspace's primary end-to-end correctness check.

use crate::instr::Instr;
use crate::mem::Memory;
use crate::op::{Op, OpKind};
use crate::program::{Program, STACK_TOP};
use crate::reg::{ArchReg, NUM_ARCH_REGS};
use crate::semantics::{alu_result, branch_taken, effective_addr, extend_load};
use crate::syscall::{self, IoCtx};
use std::fmt;

/// Why the interpreter stopped making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// The program exited via the `EXIT` service with this code.
    Exited(u32),
    /// A `BREAK` instruction was executed.
    Break,
}

/// An unrecoverable execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The word at `pc` is not a valid instruction.
    BadInstruction {
        /// Faulting PC.
        pc: u32,
        /// The invalid word.
        word: u32,
    },
    /// A `SYSCALL` used an unknown service number.
    UnknownSyscall {
        /// Faulting PC.
        pc: u32,
        /// The `$v0` service number.
        service: u32,
    },
    /// The program ran past its instruction budget without exiting.
    InstrLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::BadInstruction { pc, word } => {
                write!(f, "invalid instruction {word:#010x} at pc {pc:#010x}")
            }
            InterpError::UnknownSyscall { pc, service } => {
                write!(f, "unknown syscall service {service} at pc {pc:#010x}")
            }
            InterpError::InstrLimit { limit } => {
                write!(f, "instruction budget of {limit} exhausted before exit")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The architectural effects of retiring one instruction.
///
/// This is the unit of comparison for pipeline-vs-oracle lockstep checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// PC of the retired instruction.
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// PC of the next instruction in program order.
    pub next_pc: u32,
    /// Register written, with the value, if any.
    pub reg_write: Option<(ArchReg, u32)>,
    /// `(addr, size, value)` stored, if the instruction is a store.
    pub store: Option<(u32, u32, u32)>,
    /// Branch direction, if the instruction is a conditional branch.
    pub taken: Option<bool>,
    /// Whether the program halted at this instruction.
    pub halt: Option<Halt>,
}

/// The functional interpreter.
///
/// # Examples
///
/// ```
/// use tracefill_isa::{asm::assemble, interp::Interp};
///
/// let prog = assemble(r#"
///         .text
/// main:   li   $t0, 6
///         li   $t1, 7
///         mul  $a0, $t0, $t1
///         li   $v0, 1         # print $a0
///         syscall
///         li   $v0, 10        # exit
///         syscall
/// "#)?;
/// let mut interp = Interp::new(&prog);
/// interp.run(1_000)?;
/// assert_eq!(interp.io().output, vec![42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interp {
    regs: [u32; NUM_ARCH_REGS],
    pc: u32,
    mem: Memory,
    io: IoCtx,
    halted: Option<Halt>,
    icount: u64,
}

impl Interp {
    /// Creates an interpreter with the program loaded and `$sp` initialized.
    pub fn new(program: &Program) -> Interp {
        Interp::with_io(program, IoCtx::default())
    }

    /// Creates an interpreter with an input stream for `READ_INT`.
    pub fn with_io(program: &Program, io: IoCtx) -> Interp {
        let mut regs = [0u32; NUM_ARCH_REGS];
        regs[ArchReg::SP.index()] = STACK_TOP;
        Interp {
            regs,
            pc: program.entry,
            mem: program.load(),
            io,
            halted: None,
            icount: 0,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: ArchReg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes an architectural register (writes to `$zero` are ignored).
    pub fn set_reg(&mut self, r: ArchReg, val: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = val;
        }
    }

    /// The memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// The I/O channels.
    pub fn io(&self) -> &IoCtx {
        &self.io
    }

    /// Number of instructions retired so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// How the program halted, if it has.
    pub fn halted(&self) -> Option<Halt> {
        self.halted
    }

    /// Executes one instruction and reports its architectural effects.
    ///
    /// Calling `step` on a halted interpreter returns the halt condition
    /// again without executing anything.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::BadInstruction`] or
    /// [`InterpError::UnknownSyscall`]; the interpreter is left at the
    /// faulting instruction.
    pub fn step(&mut self) -> Result<Retired, InterpError> {
        if let Some(h) = self.halted {
            return Ok(Retired {
                pc: self.pc,
                instr: crate::instr::NOP,
                next_pc: self.pc,
                reg_write: None,
                store: None,
                taken: None,
                halt: Some(h),
            });
        }
        let pc = self.pc;
        let instr = self
            .mem
            .fetch(pc)
            .map_err(|word| InterpError::BadInstruction { pc, word })?;
        let a = self.reg(instr.rs);
        let b = self.reg(instr.rt);

        let mut next_pc = pc.wrapping_add(4);
        let mut reg_write = None;
        let mut store = None;
        let mut taken = None;
        let mut halt = None;

        match instr.op.kind() {
            OpKind::IntAlu | OpKind::Shift | OpKind::Mul | OpKind::Div => {
                if let Some(d) = instr.dest() {
                    reg_write = Some((d, alu_result(instr.op, a, b, instr.imm)));
                }
            }
            OpKind::Load => {
                let addr = effective_addr(instr.op, a, b, instr.imm);
                let size = instr.op.access_size().unwrap();
                let val = extend_load(instr.op, self.mem.read_sized(addr, size));
                if let Some(d) = instr.dest() {
                    reg_write = Some((d, val));
                }
            }
            OpKind::Store => {
                let addr = effective_addr(instr.op, a, b, instr.imm);
                let size = instr.op.access_size().unwrap();
                store = Some((addr, size, b));
            }
            OpKind::CondBranch => {
                let t = branch_taken(instr.op, a, b);
                taken = Some(t);
                if t {
                    next_pc = instr.taken_target(pc).unwrap();
                }
            }
            OpKind::Jump => match instr.op {
                Op::J => next_pc = instr.taken_target(pc).unwrap(),
                Op::Jal => {
                    reg_write = Some((ArchReg::RA, pc.wrapping_add(4)));
                    next_pc = instr.taken_target(pc).unwrap();
                }
                Op::Jr => next_pc = a,
                Op::Jalr => {
                    if let Some(d) = instr.dest() {
                        reg_write = Some((d, pc.wrapping_add(4)));
                    }
                    next_pc = a;
                }
                _ => unreachable!(),
            },
            OpKind::System => match instr.op {
                Op::Syscall => {
                    let service = self.reg(ArchReg::V0);
                    let a0 = self.reg(ArchReg::A0);
                    let outcome = syscall::execute(service, a0, &mut self.io).map_err(|e| {
                        InterpError::UnknownSyscall {
                            pc,
                            service: e.service,
                        }
                    })?;
                    reg_write = outcome.reg_write;
                    if let Some(code) = outcome.exit {
                        halt = Some(Halt::Exited(code));
                    }
                }
                Op::Break => halt = Some(Halt::Break),
                _ => unreachable!(),
            },
        }

        if let Some((r, v)) = reg_write {
            self.set_reg(r, v);
            if r.is_zero() {
                // Architecturally invisible; do not report it.
                reg_write = None;
            }
        }
        if let Some((addr, size, val)) = store {
            self.mem.write_sized(addr, size, val);
        }
        self.pc = next_pc;
        self.halted = halt;
        self.icount += 1;

        Ok(Retired {
            pc,
            instr,
            next_pc,
            reg_write,
            store,
            taken,
            halt,
        })
    }

    /// Runs until the program halts or `limit` instructions retire.
    ///
    /// # Errors
    ///
    /// Propagates [`step`](Interp::step) errors and returns
    /// [`InterpError::InstrLimit`] if the budget runs out first.
    pub fn run(&mut self, limit: u64) -> Result<Halt, InterpError> {
        for _ in 0..limit {
            let r = self.step()?;
            if let Some(h) = r.halt {
                return Ok(h);
            }
        }
        Err(InterpError::InstrLimit { limit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_program(src: &str, input: &[u32]) -> Interp {
        let prog = assemble(src).expect("assembly failed");
        let mut i = Interp::with_io(&prog, IoCtx::with_input(input.iter().copied()));
        i.run(1_000_000).expect("program did not exit cleanly");
        i
    }

    #[test]
    fn loop_sums_to_output() {
        let i = run_program(
            r#"
                .text
        main:   li   $t0, 0          # sum
                li   $t1, 10         # counter
        loop:   add  $t0, $t0, $t1
                addi $t1, $t1, -1
                bgtz $t1, loop
                move $a0, $t0
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
        "#,
            &[],
        );
        assert_eq!(i.io().output, vec![55]);
    }

    #[test]
    fn memory_and_calls() {
        let i = run_program(
            r#"
                .text
        main:   la   $t0, table
                li   $t1, 3
                sll  $t2, $t1, 2
                lwx  $a0, $t0, $t2    # a0 = table[3]
                jal  double
                move $a0, $v1
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
        double: add  $v1, $a0, $a0
                jr   $ra
                .data
        table:  .word 10, 20, 30, 40, 50
        "#,
            &[],
        );
        assert_eq!(i.io().output, vec![80]);
    }

    #[test]
    fn read_int_feeds_v0() {
        let i = run_program(
            r#"
                .text
        main:   li   $v0, 5
                syscall              # v0 <- 21
                add  $a0, $v0, $v0
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
        "#,
            &[21],
        );
        assert_eq!(i.io().output, vec![42]);
    }

    #[test]
    fn break_halts() {
        let prog = assemble("        .text\nmain:   break\n").unwrap();
        let mut i = Interp::new(&prog);
        assert_eq!(i.run(10).unwrap(), Halt::Break);
        // Further steps keep reporting the halt.
        assert_eq!(i.step().unwrap().halt, Some(Halt::Break));
    }

    #[test]
    fn instr_limit_is_an_error() {
        let prog = assemble("        .text\nmain:   j main\n").unwrap();
        let mut i = Interp::new(&prog);
        assert!(matches!(
            i.run(100),
            Err(InterpError::InstrLimit { limit: 100 })
        ));
    }

    #[test]
    fn stores_take_effect() {
        let i = run_program(
            r#"
                .text
        main:   la   $t0, buf
                li   $t1, 0x1234
                sw   $t1, 0($t0)
                lh   $a0, 0($t0)
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
                .data
        buf:    .space 8
        "#,
            &[],
        );
        assert_eq!(i.io().output, vec![0x1234]);
    }
}
