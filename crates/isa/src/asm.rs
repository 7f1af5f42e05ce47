//! Two-pass assembler for the SSA ISA.
//!
//! The accepted syntax is a small MIPS-style assembly:
//!
//! ```text
//!         .text                 # optional address argument
//! main:   li   $t0, 100        # pseudo-instructions expand automatically
//! loop:   addi $t0, $t0, -1
//!         bgtz $t0, loop
//!         li   $v0, 10
//!         syscall
//!         .data
//! table:  .word 1, 2, 3, main   # label references allowed in .word
//! buf:    .space 64
//! ```
//!
//! Comments run from `#` or `;` to end of line. Labels may appear on their
//! own line or before an instruction/directive. Simple `symbol+offset`
//! expressions are allowed wherever an address is expected.
//!
//! # Pseudo-instructions
//!
//! | pseudo | expansion |
//! |---|---|
//! | `nop` | `sll $zero, $zero, 0` |
//! | `move rd, rs` | `addi rd, rs, 0` |
//! | `li rd, imm` | `addi`/`ori`/`lui`+`ori` depending on the value |
//! | `la rd, sym` | `lui rd, hi` ; `ori rd, rd, lo` |
//! | `b lbl` | `beq $zero, $zero, lbl` |
//! | `beqz/bnez rs, lbl` | `beq/bne rs, $zero, lbl` |
//! | `blt/bge/bgt/ble rs, rt, lbl` | `slt $at, …` ; `bne/beq $at, $zero, lbl` |
//! | `neg rd, rs` | `sub rd, $zero, rs` |
//! | `not rd, rs` | `nor rd, rs, $zero` |
//! | `ret` | `jr $ra` |

use crate::encode::encode;
use crate::instr::Instr;
use crate::op::Op;
use crate::program::{Program, Section, SectionKind, DATA_BASE, TEXT_BASE};
use crate::reg::ArchReg;
use std::collections::BTreeMap;
use std::fmt;

/// Error produced while assembling, with a 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// A symbol reference plus a constant offset.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expr {
    symbol: Option<String>,
    offset: i64,
}

impl Expr {
    fn literal(v: i64) -> Expr {
        Expr {
            symbol: None,
            offset: v,
        }
    }

    fn eval(&self, symbols: &BTreeMap<String, u32>, line: usize) -> Result<i64, AsmError> {
        let base = match &self.symbol {
            Some(name) => *symbols.get(name).ok_or_else(|| AsmError {
                line,
                msg: format!("undefined symbol `{name}`"),
            })? as i64,
            None => 0,
        };
        Ok(base + self.offset)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    Reg(ArchReg),
    Expr(Expr),
    /// `disp(base)` memory operand.
    Mem(Expr, ArchReg),
}

#[derive(Debug, Clone)]
enum Item {
    /// One real instruction, possibly not yet resolvable.
    Instr {
        line: usize,
        mnemonic: String,
        operands: Vec<Operand>,
    },
    Words(Vec<Expr>, usize),
    Halves(Vec<Expr>, usize),
    Bytes(Vec<Expr>, usize),
    Space(usize),
}

impl Item {
    /// Size in bytes; instruction sizes account for pseudo expansion.
    fn size(&self, line: usize) -> Result<usize, AsmError> {
        Ok(match self {
            Item::Instr {
                mnemonic, operands, ..
            } => 4 * expansion_len(mnemonic, operands, line)?,
            Item::Words(v, _) => 4 * v.len(),
            Item::Halves(v, _) => 2 * v.len(),
            Item::Bytes(v, _) => v.len(),
            Item::Space(n) => *n,
        })
    }
}

/// Number of real instructions a (possibly pseudo) mnemonic expands to.
fn expansion_len(mnemonic: &str, operands: &[Operand], line: usize) -> Result<usize, AsmError> {
    Ok(match mnemonic {
        "nop" | "move" | "b" | "beqz" | "bnez" | "ret" | "neg" | "not" => 1,
        "la" => 2,
        "blt" | "bge" | "bgt" | "ble" => 2,
        "li" => {
            let v = match operands.get(1) {
                Some(Operand::Expr(e)) if e.symbol.is_none() => e.offset,
                _ => {
                    return Err(AsmError {
                        line,
                        msg: "li needs a literal immediate (use la for addresses)".into(),
                    })
                }
            };
            if (-(1 << 15)..(1 << 15)).contains(&v) || (0..(1 << 16)).contains(&v) {
                1
            } else {
                2
            }
        }
        _ => 1,
    })
}

struct Cursor {
    line: usize,
}

impl Cursor {
    fn err(&self, msg: impl Into<String>) -> AsmError {
        AsmError {
            line: self.line,
            msg: msg.into(),
        }
    }
}

fn parse_operand(cur: &Cursor, text: &str) -> Result<Operand, AsmError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(cur.err("empty operand"));
    }
    if text.starts_with('$') {
        let reg: ArchReg = text.parse().map_err(|e| cur.err(format!("{e}")))?;
        return Ok(Operand::Reg(reg));
    }
    // disp(base) form.
    if let Some(open) = text.find('(') {
        let close = text
            .rfind(')')
            .ok_or_else(|| cur.err("unterminated memory operand"))?;
        let disp = &text[..open];
        let base: ArchReg = text[open + 1..close]
            .trim()
            .parse()
            .map_err(|e| cur.err(format!("{e}")))?;
        let expr = if disp.trim().is_empty() {
            Expr::literal(0)
        } else {
            parse_expr(cur, disp)?
        };
        return Ok(Operand::Mem(expr, base));
    }
    Ok(Operand::Expr(parse_expr(cur, text)?))
}

fn parse_number(cur: &Cursor, text: &str) -> Result<i64, AsmError> {
    let text = text.trim();
    let (neg, body) = match text.strip_prefix('-') {
        Some(b) => (true, b.trim()),
        None => (false, text),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| cur.err(format!("invalid number `{text}`")))?;
    Ok(if neg { -v } else { v })
}

fn parse_expr(cur: &Cursor, text: &str) -> Result<Expr, AsmError> {
    let text = text.trim();
    let first = text
        .chars()
        .next()
        .ok_or_else(|| cur.err("empty expression"))?;
    if first.is_ascii_digit() || first == '-' {
        return Ok(Expr::literal(parse_number(cur, text)?));
    }
    // symbol[+|- offset]
    let split = text[1..]
        .find(['+', '-'])
        .map(|i| i + 1)
        .unwrap_or(text.len());
    let (sym, rest) = text.split_at(split);
    let sym = sym.trim();
    if !sym
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    {
        return Err(cur.err(format!("invalid symbol name `{sym}`")));
    }
    let offset = if rest.is_empty() {
        0
    } else {
        parse_number(cur, rest)?
    };
    Ok(Expr {
        symbol: Some(sym.to_owned()),
        offset,
    })
}

/// Encodes one source instruction (expanding pseudos) at address `addr`.
fn emit_instr(
    line: usize,
    mnemonic: &str,
    operands: &[Operand],
    addr: u32,
    symbols: &BTreeMap<String, u32>,
    out: &mut Vec<Instr>,
) -> Result<(), AsmError> {
    let err = |msg: String| AsmError { line, msg };
    let reg_at = |i: usize| -> Result<ArchReg, AsmError> {
        match operands.get(i) {
            Some(Operand::Reg(r)) => Ok(*r),
            _ => Err(err(format!(
                "operand {} of {mnemonic} must be a register",
                i + 1
            ))),
        }
    };
    let expr_at = |i: usize| -> Result<i64, AsmError> {
        match operands.get(i) {
            Some(Operand::Expr(e)) => e.eval(symbols, line),
            _ => Err(err(format!(
                "operand {} of {mnemonic} must be an immediate or label",
                i + 1
            ))),
        }
    };
    let mem_at = |i: usize| -> Result<(i64, ArchReg), AsmError> {
        match operands.get(i) {
            Some(Operand::Mem(e, base)) => Ok((e.eval(symbols, line)?, *base)),
            // Bare `label` is accepted as absolute address with $zero base
            // only when it fits; keep it strict instead: require (base).
            _ => Err(err(format!(
                "operand {} of {mnemonic} must be of the form disp(base)",
                i + 1
            ))),
        }
    };
    let narg = |n: usize| -> Result<(), AsmError> {
        if operands.len() == n {
            Ok(())
        } else {
            Err(err(format!(
                "{mnemonic} takes {n} operand(s), got {}",
                operands.len()
            )))
        }
    };
    // Branch displacement from the *current* expansion position.
    let branch_disp = |target: i64, slot: usize| -> Result<i32, AsmError> {
        let pc = addr as i64 + 4 * slot as i64;
        let delta = target - (pc + 4);
        if delta % 4 != 0 {
            return Err(err(format!(
                "branch target {target:#x} is not word aligned"
            )));
        }
        let words = delta / 4;
        if !(-(1 << 15)..(1 << 15)).contains(&words) {
            return Err(err(format!("branch target out of range ({words} words)")));
        }
        Ok(words as i32)
    };

    // Pseudo-instructions first.
    match mnemonic {
        "nop" => {
            narg(0)?;
            out.push(crate::instr::NOP);
            return Ok(());
        }
        "move" => {
            narg(2)?;
            out.push(Instr::alu_imm(Op::Addi, reg_at(0)?, reg_at(1)?, 0));
            return Ok(());
        }
        "li" | "la" => {
            narg(2)?;
            let rd = reg_at(0)?;
            let v = expr_at(1)? as u32 as i64;
            let signed = expr_at(1)?;
            let force_wide = mnemonic == "la";
            if !force_wide && (-(1 << 15)..(1 << 15)).contains(&signed) {
                out.push(Instr::alu_imm(Op::Addi, rd, ArchReg::ZERO, signed as i32));
            } else if !force_wide && (0..(1 << 16)).contains(&signed) {
                out.push(Instr::alu_imm(Op::Ori, rd, ArchReg::ZERO, signed as i32));
            } else {
                let hi = ((v as u32) >> 16) as i32;
                let lo = (v as u32 & 0xffff) as i32;
                out.push(Instr::alu_imm(Op::Lui, rd, ArchReg::ZERO, hi << 16));
                out.push(Instr::alu_imm(Op::Ori, rd, rd, lo));
            }
            return Ok(());
        }
        "b" => {
            narg(1)?;
            let disp = branch_disp(expr_at(0)?, 0)?;
            out.push(Instr::branch(Op::Beq, ArchReg::ZERO, ArchReg::ZERO, disp));
            return Ok(());
        }
        "beqz" | "bnez" => {
            narg(2)?;
            let op = if mnemonic == "beqz" { Op::Beq } else { Op::Bne };
            let disp = branch_disp(expr_at(1)?, 0)?;
            out.push(Instr::branch(op, reg_at(0)?, ArchReg::ZERO, disp));
            return Ok(());
        }
        "blt" | "bge" | "bgt" | "ble" => {
            narg(3)?;
            let (rs, rt) = (reg_at(0)?, reg_at(1)?);
            let (ca, cb, br) = match mnemonic {
                "blt" => (rs, rt, Op::Bne),
                "bge" => (rs, rt, Op::Beq),
                "bgt" => (rt, rs, Op::Bne),
                _ => (rt, rs, Op::Beq),
            };
            out.push(Instr::alu(Op::Slt, ArchReg::AT, ca, cb));
            let disp = branch_disp(expr_at(2)?, 1)?;
            out.push(Instr::branch(br, ArchReg::AT, ArchReg::ZERO, disp));
            return Ok(());
        }
        "neg" => {
            narg(2)?;
            out.push(Instr::alu(Op::Sub, reg_at(0)?, ArchReg::ZERO, reg_at(1)?));
            return Ok(());
        }
        "not" => {
            narg(2)?;
            out.push(Instr::alu(Op::Nor, reg_at(0)?, reg_at(1)?, ArchReg::ZERO));
            return Ok(());
        }
        "ret" => {
            narg(0)?;
            out.push(Instr {
                op: Op::Jr,
                rd: ArchReg::ZERO,
                rs: ArchReg::RA,
                rt: ArchReg::ZERO,
                imm: 0,
            });
            return Ok(());
        }
        _ => {}
    }

    let op =
        Op::from_mnemonic(mnemonic).ok_or_else(|| err(format!("unknown mnemonic `{mnemonic}`")))?;
    use Op::*;
    let instr = match op {
        Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Sllv | Srlv | Srav | Mul | Mulh | Div
        | Rem | Lwx => {
            narg(3)?;
            Instr::alu(op, reg_at(0)?, reg_at(1)?, reg_at(2)?)
        }
        Sll | Srl | Sra | Addi | Andi | Ori | Xori | Slti | Sltiu => {
            narg(3)?;
            Instr::alu_imm(op, reg_at(0)?, reg_at(1)?, expr_at(2)? as i32)
        }
        Lui => {
            narg(2)?;
            let v = expr_at(1)?;
            if !(0..(1 << 16)).contains(&v) {
                return Err(err(format!("lui immediate {v} exceeds 16 bits")));
            }
            Instr::alu_imm(op, reg_at(0)?, ArchReg::ZERO, (v as i32) << 16)
        }
        Lb | Lbu | Lh | Lhu | Lw => {
            narg(2)?;
            let (disp, base) = mem_at(1)?;
            Instr::load(op, reg_at(0)?, base, disp as i32)
        }
        Sb | Sh | Sw => {
            narg(2)?;
            let (disp, base) = mem_at(1)?;
            Instr::store(op, reg_at(0)?, base, disp as i32)
        }
        Beq | Bne => {
            narg(3)?;
            Instr::branch(op, reg_at(0)?, reg_at(1)?, branch_disp(expr_at(2)?, 0)?)
        }
        Blez | Bgtz | Bltz | Bgez => {
            narg(2)?;
            Instr::branch(op, reg_at(0)?, ArchReg::ZERO, branch_disp(expr_at(1)?, 0)?)
        }
        J | Jal => {
            narg(1)?;
            let target = expr_at(0)?;
            if target % 4 != 0 {
                return Err(err(format!("jump target {target:#x} is not word aligned")));
            }
            Instr {
                op,
                rd: ArchReg::ZERO,
                rs: ArchReg::ZERO,
                rt: ArchReg::ZERO,
                imm: (target / 4) as i32,
            }
        }
        Jr => {
            narg(1)?;
            Instr {
                op,
                rd: ArchReg::ZERO,
                rs: reg_at(0)?,
                rt: ArchReg::ZERO,
                imm: 0,
            }
        }
        Jalr => {
            // Accept both `jalr rs` (link in $ra) and `jalr rd, rs`.
            let (rd, rs) = match operands.len() {
                1 => (ArchReg::RA, reg_at(0)?),
                2 => (reg_at(0)?, reg_at(1)?),
                n => return Err(err(format!("jalr takes 1 or 2 operands, got {n}"))),
            };
            Instr {
                op,
                rd,
                rs,
                rt: ArchReg::ZERO,
                imm: 0,
            }
        }
        Syscall | Break => {
            narg(0)?;
            Instr {
                op,
                rd: ArchReg::ZERO,
                rs: ArchReg::ZERO,
                rt: ArchReg::ZERO,
                imm: 0,
            }
        }
    };
    instr
        .validate()
        .map_err(|msg| err(format!("invalid {mnemonic}: {msg}")))?;
    out.push(instr);
    Ok(())
}

#[derive(Debug)]
struct Chunk {
    kind: SectionKind,
    base: u32,
    items: Vec<(u32, Item)>, // (address, item)
    end: u32,
}

/// The location counter after `size` bytes from `pc`, or an error when
/// it would pass `0xffff_ffff`. A counter is the address of the next
/// byte, so a section's last byte lies at most at `0xffff_fffe`.
fn advance(cur: &Cursor, pc: u32, size: usize) -> Result<u32, AsmError> {
    u32::try_from(size)
        .ok()
        .and_then(|size| pc.checked_add(size))
        .ok_or_else(|| past_end(cur))
}

fn past_end(cur: &Cursor) -> AsmError {
    cur.err("location counter runs past 0xffff_ffff")
}

/// Pass 1: parses `src`, lays out every item's address and collects the
/// symbols. Every location counter stays within the 32-bit address space,
/// so no chunk wraps and pass 2 allocates at most what the layout spans.
fn layout(src: &str) -> Result<(Vec<Chunk>, BTreeMap<String, u32>), AsmError> {
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    let mut kind = SectionKind::Text;
    let mut text_pc = TEXT_BASE;
    let mut data_pc = DATA_BASE;

    let ensure_chunk = |chunks: &mut Vec<Chunk>, kind: SectionKind, pc: u32| match chunks.last() {
        Some(c) if c.kind == kind && c.end == pc => {}
        _ => chunks.push(Chunk {
            kind,
            base: pc,
            items: Vec::new(),
            end: pc,
        }),
    };

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let cur = Cursor { line };
        let mut text = raw;
        if let Some(i) = text.find(['#', ';']) {
            text = &text[..i];
        }
        let mut text = text.trim();

        // Labels (possibly several) at line start.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            let here = match kind {
                SectionKind::Text => text_pc,
                SectionKind::Data => data_pc,
            };
            if symbols.insert(label.to_owned(), here).is_some() {
                return Err(cur.err(format!("duplicate label `{label}`")));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = text.strip_prefix('.') {
            let (name, args) = match rest.find(char::is_whitespace) {
                Some(i) => (&rest[..i], rest[i..].trim()),
                None => (rest, ""),
            };
            match name {
                "text" | "data" => {
                    kind = if name == "text" {
                        SectionKind::Text
                    } else {
                        SectionKind::Data
                    };
                    if !args.is_empty() {
                        let addr = u32::try_from(parse_number(&cur, args)?).map_err(|_| {
                            cur.err(format!("origin `{args}` is not a 32-bit address"))
                        })?;
                        match kind {
                            SectionKind::Text => text_pc = addr,
                            SectionKind::Data => data_pc = addr,
                        }
                    }
                }
                "word" | "half" | "byte" => {
                    let exprs = args
                        .split(',')
                        .map(|p| parse_expr(&cur, p))
                        .collect::<Result<Vec<_>, _>>()?;
                    let item = match name {
                        "word" => Item::Words(exprs, line),
                        "half" => Item::Halves(exprs, line),
                        _ => Item::Bytes(exprs, line),
                    };
                    let pc = match kind {
                        SectionKind::Text => &mut text_pc,
                        SectionKind::Data => &mut data_pc,
                    };
                    let end = advance(&cur, *pc, item.size(line)?)?;
                    ensure_chunk(&mut chunks, kind, *pc);
                    let c = chunks.last_mut().unwrap();
                    c.items.push((*pc, item));
                    *pc = end;
                    c.end = end;
                }
                "space" => {
                    let n = usize::try_from(parse_number(&cur, args)?)
                        .map_err(|_| cur.err(format!("negative count `{args}`")))?;
                    let pc = match kind {
                        SectionKind::Text => &mut text_pc,
                        SectionKind::Data => &mut data_pc,
                    };
                    let end = advance(&cur, *pc, n)?;
                    ensure_chunk(&mut chunks, kind, *pc);
                    let c = chunks.last_mut().unwrap();
                    c.items.push((*pc, Item::Space(n)));
                    *pc = end;
                    c.end = end;
                }
                "align" => {
                    let n = parse_number(&cur, args)?;
                    if !(0..=31).contains(&n) {
                        return Err(cur.err(format!("alignment `{args}` is outside 0..=31")));
                    }
                    let align = 1u32 << n;
                    let pc = match kind {
                        SectionKind::Text => &mut text_pc,
                        SectionKind::Data => &mut data_pc,
                    };
                    let new_pc = pc
                        .checked_next_multiple_of(align)
                        .ok_or_else(|| past_end(&cur))?;
                    let pad = new_pc - *pc;
                    if pad > 0 {
                        ensure_chunk(&mut chunks, kind, *pc);
                        let c = chunks.last_mut().unwrap();
                        c.items.push((*pc, Item::Space(pad as usize)));
                        *pc = new_pc;
                        c.end = *pc;
                    }
                }
                "global" | "globl" | "ent" | "end" => {} // accepted and ignored
                _ => return Err(cur.err(format!("unknown directive `.{name}`"))),
            }
            continue;
        }

        // Instruction.
        if kind != SectionKind::Text {
            return Err(cur.err("instructions are only allowed in .text"));
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };
        let operands = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|p| parse_operand(&cur, p))
                .collect::<Result<Vec<_>, _>>()?
        };
        let item = Item::Instr {
            line,
            mnemonic: mnemonic.to_ascii_lowercase(),
            operands,
        };
        let end = advance(&cur, text_pc, item.size(line)?)?;
        ensure_chunk(&mut chunks, SectionKind::Text, text_pc);
        let c = chunks.last_mut().unwrap();
        c.items.push((text_pc, item));
        text_pc = end;
        c.end = end;
    }
    Ok((chunks, symbols))
}

/// Assembles a source string into a linked [`Program`].
///
/// The entry point is the `main` label if present, otherwise the first text
/// address.
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the 1-based line number of the first
/// problem (syntax error, unknown mnemonic, undefined symbol, out-of-range
/// immediate or branch).
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let (chunks, symbols) = layout(src)?;

    // ---- Pass 2: resolve and emit. ----
    let mut sections = Vec::new();
    for chunk in &chunks {
        let mut bytes = Vec::with_capacity((chunk.end - chunk.base) as usize);
        for (addr, item) in &chunk.items {
            debug_assert_eq!(chunk.base as usize + bytes.len(), *addr as usize);
            match item {
                Item::Instr {
                    line,
                    mnemonic,
                    operands,
                } => {
                    let mut instrs = Vec::new();
                    emit_instr(*line, mnemonic, operands, *addr, &symbols, &mut instrs)?;
                    debug_assert_eq!(instrs.len(), expansion_len(mnemonic, operands, *line)?);
                    for i in &instrs {
                        let w = encode(i).map_err(|e| AsmError {
                            line: *line,
                            msg: e.to_string(),
                        })?;
                        bytes.extend_from_slice(&w.to_le_bytes());
                    }
                }
                Item::Words(exprs, line) => {
                    for e in exprs {
                        bytes.extend_from_slice(&(e.eval(&symbols, *line)? as u32).to_le_bytes());
                    }
                }
                Item::Halves(exprs, line) => {
                    for e in exprs {
                        bytes.extend_from_slice(&(e.eval(&symbols, *line)? as u16).to_le_bytes());
                    }
                }
                Item::Bytes(exprs, line) => {
                    for e in exprs {
                        bytes.push(e.eval(&symbols, *line)? as u8);
                    }
                }
                Item::Space(n) => bytes.extend(std::iter::repeat_n(0u8, *n)),
            }
        }
        sections.push(Section {
            base: chunk.base,
            bytes,
            kind: chunk.kind,
        });
    }

    let entry = symbols.get("main").copied().unwrap_or_else(|| {
        sections
            .iter()
            .find(|s| s.kind == SectionKind::Text)
            .map(|s| s.base)
            .unwrap_or(TEXT_BASE)
    });

    Ok(Program {
        entry,
        sections,
        symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode;

    #[test]
    fn labels_and_branches_resolve() {
        let p = assemble(
            r#"
            .text
    main:   addi $t0, $zero, 3
    loop:   addi $t0, $t0, -1
            bgtz $t0, loop
            j    main
    "#,
        )
        .unwrap();
        assert_eq!(p.symbol("main"), Some(TEXT_BASE));
        assert_eq!(p.symbol("loop"), Some(TEXT_BASE + 4));
        let words: Vec<u32> = p.text_words().map(|(_, w)| w).collect();
        let bgtz = decode(words[2]).unwrap();
        // Offset back to `loop` from pc+4 = base+12: -2 instructions.
        assert_eq!(bgtz.imm, -2);
        let j = decode(words[3]).unwrap();
        assert_eq!(j.taken_target(0), Some(TEXT_BASE));
    }

    #[test]
    fn li_picks_smallest_encoding() {
        let p = assemble(
            "        .text\nmain:   li $t0, 5\n        li $t1, 0x8000\n        li $t2, 0x12345678\n",
        )
        .unwrap();
        // 1 + 1 + 2 instructions.
        assert_eq!(p.text_len(), 4);
        let w: Vec<_> = p.text_words().map(|(_, w)| decode(w).unwrap()).collect();
        assert_eq!(w[0].op, Op::Addi);
        assert_eq!(w[1].op, Op::Ori);
        assert_eq!(w[2].op, Op::Lui);
        assert_eq!(w[3].op, Op::Ori);
    }

    #[test]
    fn word_directive_takes_labels() {
        let p = assemble(
            r#"
            .text
    main:   nop
            .data
    tbl:    .word main, tbl+4, 7
    "#,
        )
        .unwrap();
        let mem = p.load();
        assert_eq!(mem.read_u32(DATA_BASE), TEXT_BASE);
        assert_eq!(mem.read_u32(DATA_BASE + 4), DATA_BASE + 4);
        assert_eq!(mem.read_u32(DATA_BASE + 8), 7);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("        .text\n        frobnicate $t0\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble("        .text\n        addi $t0, $t1, 100000\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble("        .text\n        beq $t0, $t1, nowhere\n").unwrap_err();
        assert!(e.msg.contains("undefined symbol"));
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let e = assemble(".text\nx:  nop\nx:  nop\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn conditional_pseudos_expand() {
        let p = assemble(
            r#"
            .text
    main:   blt $t0, $t1, main
            bge $t0, $t1, main
    "#,
        )
        .unwrap();
        assert_eq!(p.text_len(), 4);
        let instrs: Vec<_> = p.text_words().map(|(_, w)| decode(w).unwrap()).collect();
        assert_eq!(instrs[0].op, Op::Slt);
        assert_eq!(instrs[1].op, Op::Bne);
        assert_eq!(instrs[2].op, Op::Slt);
        assert_eq!(instrs[3].op, Op::Beq);
    }

    #[test]
    fn align_and_space_layout() {
        let p = assemble(
            r#"
            .data
    a:      .byte 1
            .align 2
    b:      .word 2
    "#,
        )
        .unwrap();
        assert_eq!(p.symbol("a"), Some(DATA_BASE));
        assert_eq!(p.symbol("b"), Some(DATA_BASE + 4));
        let mem = p.load();
        assert_eq!(mem.read_u32(DATA_BASE + 4), 2);
    }

    #[test]
    fn out_of_range_layout_is_an_error_naming_the_line() {
        for (src, line, msg) in [
            (".data\n.align 40\n", 2, "alignment `40` is outside 0..=31"),
            (".data\n.align -1\n", 2, "outside 0..=31"),
            (".data 0x100000000\n.word 1\n", 1, "not a 32-bit address"),
            (".data -4\n.word 1\n", 1, "not a 32-bit address"),
            (".data 0xfffffff0\n.space 32\n", 2, "runs past 0xffff_ffff"),
            (".data 0xfffffffc\n.word 1\n", 2, "runs past 0xffff_ffff"),
            (".data 0xfffffffe\n.half 1, 2\n", 2, "runs past 0xffff_ffff"),
            (".data 0xfffffff1\n\n.align 4\n", 3, "runs past 0xffff_ffff"),
            (
                ".text 0xfffffff8\nnop\nli $t0, 0x12345678\n",
                3,
                "runs past",
            ),
        ] {
            let e = assemble(src).unwrap_err();
            assert_eq!(e.line, line, "{src:?}: {e}");
            assert!(e.msg.contains(msg), "{src:?}: {e}");
        }
    }

    #[test]
    fn the_top_of_the_address_space_stays_usable() {
        let p = assemble(".data 0xfffffff1\nx: .align 3\n.word 1\n.half 2\n.byte 3\n").unwrap();
        assert_eq!(p.symbol("x"), Some(0xffff_fff1));
        let mem = p.load();
        assert_eq!(mem.read_u32(0xffff_fff8), 1);
        assert_eq!(mem.read_u16(0xffff_fffc), 2);
        assert_eq!(mem.read_u8(0xffff_fffe), 3);
    }

    #[test]
    fn a_negative_count_fails_the_layout() {
        // Through pass 1 alone, so that a regression here cannot reach
        // pass 2's allocation of the whole span.
        let e = layout(".data\n.byte 1\n.space -1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("negative count `-1`"), "{e}");
    }
}
