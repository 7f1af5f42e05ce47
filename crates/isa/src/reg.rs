//! Architectural register identifiers.
//!
//! The SSA ISA (see the crate docs) has 32 general-purpose registers with
//! `$0` hardwired to zero. Register identifiers are newtypes ([`ArchReg`]) so
//! they cannot be confused with physical registers or plain indices elsewhere
//! in the workspace.

use std::fmt;
use std::str::FromStr;

/// Number of general-purpose registers (and of architectural registers:
/// the SSA ISA has no `HI`/`LO`; multiply/divide ops are single-destination).
pub const NUM_GPRS: usize = 32;
/// Total number of architectural registers.
pub const NUM_ARCH_REGS: usize = NUM_GPRS;

/// An architectural register.
///
/// # Examples
///
/// ```
/// use tracefill_isa::reg::ArchReg;
///
/// let sp: ArchReg = "$sp".parse()?;
/// assert_eq!(sp, ArchReg::SP);
/// assert_eq!(sp.index(), 29);
/// # Ok::<(), tracefill_isa::reg::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg(u8);

impl ArchReg {
    /// The hardwired zero register, `$0`.
    pub const ZERO: ArchReg = ArchReg(0);
    /// Assembler temporary, `$1`.
    pub const AT: ArchReg = ArchReg(1);
    /// First return-value register, `$2`.
    pub const V0: ArchReg = ArchReg(2);
    /// Second return-value register, `$3`.
    pub const V1: ArchReg = ArchReg(3);
    /// First argument register, `$4`.
    pub const A0: ArchReg = ArchReg(4);
    /// Second argument register, `$5`.
    pub const A1: ArchReg = ArchReg(5);
    /// Third argument register, `$6`.
    pub const A2: ArchReg = ArchReg(6);
    /// Fourth argument register, `$7`.
    pub const A3: ArchReg = ArchReg(7);
    /// Global pointer, `$28`.
    pub const GP: ArchReg = ArchReg(28);
    /// Stack pointer, `$29`.
    pub const SP: ArchReg = ArchReg(29);
    /// Frame pointer, `$30`.
    pub const FP: ArchReg = ArchReg(30);
    /// Return-address register, `$31`.
    pub const RA: ArchReg = ArchReg(31);
    /// Creates a GPR from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn gpr(n: u8) -> ArchReg {
        assert!((n as usize) < NUM_GPRS, "GPR number out of range: {n}");
        ArchReg(n)
    }

    /// The raw index of this register, in `0..32`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this register is the hardwired zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterates over every architectural register.
    pub fn all() -> impl Iterator<Item = ArchReg> {
        (0..NUM_ARCH_REGS).map(|n| ArchReg(n as u8))
    }

    /// The conventional ABI name of this register (e.g. `"$sp"`).
    pub fn name(self) -> &'static str {
        const NAMES: [&str; NUM_ARCH_REGS] = [
            "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3", "$t0", "$t1", "$t2", "$t3",
            "$t4", "$t5", "$t6", "$t7", "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
            "$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
        ];
        NAMES[self.index()]
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a register name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    text: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.text)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for ArchReg {
    type Err = ParseRegError;

    /// Parses either a numeric name (`$7`) or an ABI name (`$a3`, `$sp`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRegError { text: s.to_owned() };
        let body = s.strip_prefix('$').ok_or_else(err)?;
        if let Ok(n) = body.parse::<u8>() {
            if (n as usize) < NUM_GPRS {
                return Ok(ArchReg(n));
            }
            return Err(err());
        }
        for r in ArchReg::all() {
            if r.name() == s {
                return Ok(r);
            }
        }
        Err(err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_and_abi_names_agree() {
        for r in ArchReg::all() {
            let numeric: ArchReg = format!("${}", r.index()).parse().unwrap();
            let abi: ArchReg = r.name().parse().unwrap();
            assert_eq!(numeric, abi);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("$32".parse::<ArchReg>().is_err());
        assert!("r5".parse::<ArchReg>().is_err());
        assert!("$xyz".parse::<ArchReg>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for r in ArchReg::all() {
            let back: ArchReg = r.to_string().parse().unwrap();
            assert_eq!(back, r);
        }
    }
}
