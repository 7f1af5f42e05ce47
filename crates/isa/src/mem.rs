//! Sparse byte-addressable memory.
//!
//! Memory is organized as 4 KiB pages allocated on first touch, so a 32-bit
//! address space costs only what a program actually uses. All multi-byte
//! accesses are little-endian. Unaligned accesses are supported (they are
//! assembled byte-wise); the *simulator* charges no extra latency for them,
//! and the assembler never produces them for word data.
//!
//! Pages are kept in a map keyed by page number whose hasher is a single
//! multiply: the pipeline's memory and the oracle's probe it on every load
//! and store, and page numbers are the simulated program's own addresses,
//! not keys that need SipHash's defence against chosen collisions.
//! [`Memory::write_bytes`], the one path of a program load, copies each
//! page's share of a span with one page lookup and one slice copy, so
//! loading costs the pages a program touches, not its byte count.
//!
//! A memory loaded from a [`Program`](crate::Program) also keeps the
//! program's text decoded: one entry per instruction word from the
//! lowest text address to the highest, indexed by `(pc - base) / 4`.
//! The table is allocated at the first fetch and an entry is decoded
//! the first time [`Memory::fetch`] reads it, so loading a program does
//! no work for it. Nothing declares text read-only,
//! so every write that overlaps a decoded word drops that entry, and the
//! next fetch decodes the new contents.

use crate::encode::decode;
use crate::instr::Instr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

type Page = [u8; PAGE_SIZE];

/// Hashes a page number with one multiply by 2^64 / φ: consecutive pages
/// land in distinct buckets and the top bits, which the map's probe
/// compares, mix every bit of the page number.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("page keys are u32 page numbers")
    }

    fn write_u32(&mut self, page: u32) {
        self.0 = u64::from(page).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A sparse, paged, little-endian memory.
///
/// # Examples
///
/// ```
/// use tracefill_isa::mem::Memory;
///
/// let mut m = Memory::new();
/// m.write_u32(0x1000_0000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x1000_0000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1000_0000), 0xef); // little-endian
/// assert_eq!(m.read_u32(0x2000_0000), 0);   // untouched memory reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u32, Box<Page>, BuildHasherDefault<PageHasher>>,
    /// The decoded text image (see the module docs).
    text: TextImage,
}

/// Decoded instruction words over `base..base + 4 * len`: `None` until
/// fetched (or since last written), then the instruction, or `None`
/// inside when the word does not decode. `words` stays empty until the
/// first fetch in range.
#[derive(Debug, Clone, Default)]
struct TextImage {
    base: u32,
    len: usize,
    words: Vec<Option<Option<Instr>>>,
}

impl TextImage {
    /// The entry holding byte `addr`, if the image covers it and has been
    /// fetched from.
    #[inline]
    fn entry(&mut self, addr: u32) -> Option<&mut Option<Option<Instr>>> {
        self.words
            .get_mut(addr.wrapping_sub(self.base) as usize / 4)
    }

    /// As [`entry`](Self::entry), allocating the image on first use.
    fn entry_or_alloc(&mut self, addr: u32) -> Option<&mut Option<Option<Instr>>> {
        let i = addr.wrapping_sub(self.base) as usize / 4;
        if i >= self.len {
            return None;
        }
        if self.words.is_empty() {
            self.words = vec![None; self.len];
        }
        Some(&mut self.words[i])
    }

    /// Drops the entry holding byte `addr`.
    #[inline]
    fn forget(&mut self, addr: u32) {
        if let Some(e) = self.entry(addr) {
            *e = None;
        }
    }

    /// Drops every entry that the `len > 0` bytes from `addr` overlap,
    /// wrapping past `0xffff_ffff` as the bytes do.
    fn forget_span(&mut self, addr: u32, len: usize) {
        if self.words.is_empty() {
            return;
        }
        let first = addr & !3;
        for k in 0..((addr & 3) as usize + len).div_ceil(4) {
            self.forget(first.wrapping_add(4 * k as u32));
        }
    }
}

impl Memory {
    /// Creates an empty memory; every byte reads as zero until written.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of distinct pages that have been written.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Keeps `base..end` decoded from here on (see the module docs).
    /// Nothing is allocated or decoded until it is fetched.
    pub(crate) fn map_text(&mut self, base: u32, end: u32) {
        let base = base & !3;
        self.text = TextImage {
            base,
            len: end.wrapping_sub(base).div_ceil(4) as usize,
            words: Vec::new(),
        };
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        self.text.forget(addr);
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// The page holding `addr`, allocated zeroed on first touch.
    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, val: u16) {
        for (i, b) in val.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Reads a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path: the whole word lives in one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u32::from_le_bytes(p[off..off + 4].try_into().unwrap()),
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ])
        }
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            self.text.forget(addr);
            self.text.forget(addr.wrapping_add(3));
            self.page_mut(addr)[off..off + 4].copy_from_slice(&val.to_le_bytes());
        } else {
            for (i, b) in val.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// The instruction stored at `pc`, or the word there when it does not
    /// decode. Every instruction fetch goes through here: the
    /// interpreter's, the pipeline's instruction-cache path, and the
    /// workload characterization (through the interpreter). A word of the
    /// text image is decoded once and then read from the image.
    #[inline]
    pub fn fetch(&mut self, pc: u32) -> Result<Instr, u32> {
        if pc & 3 == 0 {
            if let Some(&Some(decoded)) = self.text.entry(pc).as_deref() {
                return decoded.ok_or_else(|| self.read_u32(pc));
            }
        }
        let word = self.read_u32(pc);
        let decoded = decode(word).ok();
        if pc & 3 == 0 {
            if let Some(e) = self.text.entry_or_alloc(pc) {
                *e = Some(decoded);
            }
        }
        decoded.ok_or(word)
    }

    /// Reads `size` (1, 2 or 4) bytes as a zero-extended value.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2 or 4.
    pub fn read_sized(&self, addr: u32, size: u32) -> u32 {
        match size {
            1 => self.read_u8(addr) as u32,
            2 => self.read_u16(addr) as u32,
            4 => self.read_u32(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` (1, 2 or 4) bytes of `val`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2 or 4.
    pub fn write_sized(&mut self, addr: u32, size: u32, val: u32) {
        match size {
            1 => self.write_u8(addr, val as u8),
            2 => self.write_u16(addr, val as u16),
            4 => self.write_u32(addr, val),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Copies a byte slice into memory starting at `addr`, one page's
    /// span at a time, wrapping past `0xffff_ffff` to address 0. The result
    /// is that of writing the bytes one by one in order.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (span, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.text.forget_span(addr, span.len());
            self.page_mut(addr)[off..off + span.len()].copy_from_slice(span);
            addr = addr.wrapping_add(span.len() as u32);
            rest = tail;
        }
    }

    /// Address of the first byte where `self` and `other` differ, or
    /// `None` when the two memories hold identical contents. Pages absent
    /// from one side compare as all-zero, so two memories that merely
    /// touched different (but zero-valued) pages are still equal. Used by
    /// the differential tests to compare a sim's memory against the
    /// reference interpreter's.
    pub fn diff(&self, other: &Memory) -> Option<u32> {
        let mut pages: Vec<u32> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        const ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        for pn in pages {
            let a = self.pages.get(&pn).map_or(&ZERO, |p| &**p);
            let b = other.pages.get(&pn).map_or(&ZERO, |p| &**p);
            if a != b {
                for i in 0..PAGE_SIZE {
                    if a[i] != b[i] {
                        return Some((pn << PAGE_SHIFT) | i as u32);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endianness_and_sparsity() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
        assert_eq!(m.read_u16(0x102), 0x0403);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn cross_page_word() {
        let mut m = Memory::new();
        let addr = 0x1ffe; // spans pages 1 and 2
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn diff_finds_first_difference_and_ignores_zero_pages() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.diff(&b), None);
        // A page that exists on one side but holds only zeros is equal.
        a.write_u8(0x5000, 0);
        assert_eq!(a.diff(&b), None);
        b.write_u32(0x9004, 0x0102_0304);
        assert_eq!(a.diff(&b), Some(0x9004));
        a.write_u32(0x9004, 0x0102_0304);
        assert_eq!(a.diff(&b), None);
        a.write_u8(0x9007, 0xff);
        assert_eq!(a.diff(&b), Some(0x9007));
    }

    #[test]
    fn a_store_over_text_drops_its_decoded_word() {
        use crate::asm::assemble;
        use crate::program::TEXT_BASE;
        let prog = assemble(
            "        .text
main:   li   $a0, 7
        li   $a0, 42
",
        )
        .unwrap();
        let mut m = prog.load();
        assert_eq!(m.fetch(TEXT_BASE).unwrap().imm, 7);
        let second = m.read_u32(TEXT_BASE + 4);
        m.write_u32(TEXT_BASE, second);
        assert_eq!(m.fetch(TEXT_BASE).unwrap().imm, 42);
        // A byte store reaches the word it lands in.
        m.write_u8(TEXT_BASE, 9);
        assert_eq!(m.fetch(TEXT_BASE).unwrap().imm, 9);
        // An unaligned word store reaches both words it overlaps.
        assert_eq!(m.fetch(TEXT_BASE + 4).unwrap().imm, 42);
        m.write_u32(TEXT_BASE + 2, u32::MAX);
        assert_eq!(m.fetch(TEXT_BASE), Err(m.read_u32(TEXT_BASE)));
        assert_eq!(m.fetch(TEXT_BASE + 4).unwrap().imm, -1);
        // Past the text, fetch still decodes what memory holds.
        m.write_u32(TEXT_BASE + 8, second);
        assert_eq!(m.fetch(TEXT_BASE + 8).unwrap().imm, 42);
    }

    #[test]
    fn sized_accessors_match_fixed() {
        let mut m = Memory::new();
        m.write_sized(8, 2, 0x1234_5678);
        assert_eq!(m.read_sized(8, 2), 0x5678);
        assert_eq!(m.read_sized(8, 1), 0x78);
        m.write_sized(16, 4, 7);
        assert_eq!(m.read_u32(16), 7);
    }

    /// Page-wise `write_bytes` against the byte-by-byte `write_u8` it
    /// replaces, over memories that keep a partly decoded text image.
    #[test]
    fn write_bytes_matches_a_byte_by_byte_reference() {
        use crate::asm::assemble;
        use tracefill_util::prop::{check, coin};
        use tracefill_util::SplitMix64;

        let code: Vec<u32> = assemble(
            ".text\nmain: addi $t0, $t1, 5\nlw $a0, 8($sp)\nbeq $t0, $zero, main\nsll $t2, $t2, 3\n",
        )
        .unwrap()
        .text_words()
        .map(|(_, w)| w)
        .collect();
        // Spans start near the text, on a page edge or at the top of
        // the address space, so that they overlap decoded words, cross
        // pages and wrap past 0xffff_ffff.
        let near = |rng: &mut SplitMix64, base: u32| -> u32 {
            let at = match rng.range_u32(0, 4) {
                0 => base,
                1 => base & !PAGE_MASK,
                2 => 0,
                _ => rng.next_u32(),
            };
            at.wrapping_add(rng.range_u32(0, 64)).wrapping_sub(32)
        };
        check("write_bytes_matches_a_byte_by_byte_reference", 256, |rng| {
            let base = match rng.range_u32(0, 3) {
                0 => crate::program::TEXT_BASE,
                1 => 0u32.wrapping_sub(4 * rng.range_u32(1, 40)),
                _ => (rng.next_u32() | PAGE_MASK) & !3,
            };
            let words: Vec<u32> = (0..rng.range_u32(1, 40))
                .map(|i| match coin(rng) {
                    true => code[i as usize % code.len()],
                    false => rng.next_u32(),
                })
                .collect();
            let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let end = base.wrapping_add(text.len() as u32);
            let (mut fast, mut slow) = (Memory::new(), Memory::new());
            fast.write_bytes(base, &text);
            for (i, &b) in text.iter().enumerate() {
                slow.write_u8(base.wrapping_add(i as u32), b);
            }
            fast.map_text(base, end);
            slow.map_text(base, end);
            for i in 0..words.len() as u32 {
                if coin(rng) {
                    let pc = base.wrapping_add(4 * i);
                    assert_eq!(fast.fetch(pc), slow.fetch(pc));
                }
            }

            let mut touched = vec![(base, text.len())];
            for _ in 0..rng.range_u32(1, 6) {
                let addr = near(rng, base);
                let len = match rng.range_u32(0, 4) {
                    0 => rng.range_u32(0, 9),
                    1 => rng.range_u32(0, 3 * PAGE_SIZE as u32),
                    _ => rng.range_u32(0, 200),
                } as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                fast.write_bytes(addr, &bytes);
                for (i, &b) in bytes.iter().enumerate() {
                    slow.write_u8(addr.wrapping_add(i as u32), b);
                }
                touched.push((addr, len));
            }

            assert_eq!(fast.diff(&slow), None);
            assert_eq!(slow.diff(&fast), None);
            assert_eq!(fast.resident_pages(), slow.resident_pages());
            for &(addr, len) in &touched {
                for i in 0..len as u32 + 8 {
                    let a = addr.wrapping_add(i).wrapping_sub(4);
                    assert_eq!(fast.read_u8(a), slow.read_u8(a), "byte {a:#x}");
                }
            }
            for i in 0..words.len() as u32 {
                let pc = base.wrapping_add(4 * i);
                let word = fast.read_u32(pc);
                let want = decode(word).map_err(|_| word);
                assert_eq!(fast.fetch(pc), want, "word {pc:#x}");
                assert_eq!(slow.fetch(pc), want, "word {pc:#x}");
            }
        });
    }
}
