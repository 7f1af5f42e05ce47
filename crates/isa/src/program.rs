//! Linked program images and the conventional memory layout.

use crate::mem::Memory;
use std::collections::BTreeMap;

/// Base address of the text (code) segment.
pub const TEXT_BASE: u32 = 0x0040_0000;
/// Base address of the data segment.
pub const DATA_BASE: u32 = 0x1000_0000;
/// Initial stack pointer (stack grows down).
pub const STACK_TOP: u32 = 0x7fff_f000;

/// What a [`Section`] contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Executable instructions.
    Text,
    /// Initialized data.
    Data,
}

/// A contiguous chunk of the program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Load address of the first byte.
    pub base: u32,
    /// Raw little-endian contents.
    pub bytes: Vec<u8>,
    /// Section classification.
    pub kind: SectionKind,
}

impl Section {
    /// The first address past this section.
    pub fn end(&self) -> u32 {
        self.base.wrapping_add(self.bytes.len() as u32)
    }
}

/// A fully linked program: sections, entry point and symbol table.
///
/// Programs are produced by the assembler ([`crate::asm::assemble`]) or
/// built directly, and are loaded into a fresh [`Memory`] for either the
/// functional interpreter or the pipeline simulator.
///
/// # Examples
///
/// ```
/// use tracefill_isa::asm::assemble;
///
/// let prog = assemble(r#"
///         .text
/// main:   li   $v0, 10        # exit service
///         syscall
/// "#)?;
/// assert_eq!(prog.entry, tracefill_isa::program::TEXT_BASE);
/// # Ok::<(), tracefill_isa::asm::AsmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Address of the first instruction to execute.
    pub entry: u32,
    /// All loadable sections.
    pub sections: Vec<Section>,
    /// Label addresses, for diagnostics and tests.
    pub symbols: BTreeMap<String, u32>,
}

impl Program {
    /// Loads every section into a fresh memory image that keeps the
    /// text decoded (see [`Memory::fetch`]).
    pub fn load(&self) -> Memory {
        let mut mem = Memory::new();
        for s in &self.sections {
            mem.write_bytes(s.base, &s.bytes);
        }
        let text = self.sections.iter().filter(|s| s.kind == SectionKind::Text);
        let base = text.clone().map(|s| s.base).min();
        if let (Some(base), Some(end)) = (base, text.map(Section::end).max()) {
            mem.map_text(base, end);
        }
        mem
    }

    /// The address of a label.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Total number of instruction words in text sections.
    pub fn text_len(&self) -> usize {
        self.sections
            .iter()
            .filter(|s| s.kind == SectionKind::Text)
            .map(|s| s.bytes.len() / 4)
            .sum()
    }

    /// Iterates over `(pc, word)` pairs of all text sections.
    pub fn text_words(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.sections
            .iter()
            .filter(|s| s.kind == SectionKind::Text)
            .flat_map(|s| {
                s.bytes.chunks_exact(4).enumerate().map(move |(i, w)| {
                    (
                        s.base + 4 * i as u32,
                        u32::from_le_bytes(w.try_into().unwrap()),
                    )
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_places_sections() {
        let prog = Program {
            entry: TEXT_BASE,
            sections: vec![
                Section {
                    base: TEXT_BASE,
                    bytes: vec![1, 0, 0, 0, 2, 0, 0, 0],
                    kind: SectionKind::Text,
                },
                Section {
                    base: DATA_BASE,
                    bytes: vec![0xff],
                    kind: SectionKind::Data,
                },
            ],
            symbols: BTreeMap::new(),
        };
        let mem = prog.load();
        assert_eq!(mem.read_u32(TEXT_BASE), 1);
        assert_eq!(mem.read_u32(TEXT_BASE + 4), 2);
        assert_eq!(mem.read_u8(DATA_BASE), 0xff);
        assert_eq!(prog.text_len(), 2);
        let words: Vec<_> = prog.text_words().collect();
        assert_eq!(words, vec![(TEXT_BASE, 1), (TEXT_BASE + 4, 2)]);
    }
}
