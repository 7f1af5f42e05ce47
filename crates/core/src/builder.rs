//! Segment construction from the retire stream.
//!
//! As the machine retires instructions, the fill unit collects them into a
//! pending segment, marking dependencies as it goes. The builder implements
//! the paper's termination rules: up to 16 instructions and 3 conditional
//! branches per segment; returns, indirect jumps and serializing
//! instructions force termination; subroutine calls and other unconditional
//! branches do not. With trace packing on (the baseline), filling continues
//! straight through block boundaries.

use crate::config::FillConfig;
use crate::segment::{BranchInfo, SegEnd, SegSlot, Segment, SrcRef};
use tracefill_isa::reg::NUM_ARCH_REGS;
use tracefill_isa::Instr;

/// One retired instruction offered to the fill unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillInput {
    /// Retired PC.
    pub pc: u32,
    /// The architectural instruction.
    pub instr: Instr,
    /// Resolved direction for conditional branches.
    pub taken: Option<bool>,
    /// The bias table's static direction if the branch is currently
    /// promoted (queried by the caller at retire time).
    pub promoted: Option<bool>,
    /// This instruction headed a fetch bundle after a trace-cache miss:
    /// its address is one the fetch engine looks up, so the fill unit
    /// starts a fresh segment here (fetch-aligned fill).
    pub fetch_miss_head: bool,
}

/// Incremental builder for one trace segment.
#[derive(Debug, Clone)]
pub struct SegmentBuilder {
    slots: Vec<SegSlot>,
    branches: Vec<BranchInfo>,
    last_writer: [Option<u8>; NUM_ARCH_REGS],
    block: u8,
    /// Loop body length observed at the first wrap back to the head
    /// (loop-aligned fill).
    wrap_body: Option<usize>,
}

impl SegmentBuilder {
    /// Creates an empty builder.
    pub fn new() -> SegmentBuilder {
        SegmentBuilder {
            slots: Vec::with_capacity(16),
            branches: Vec::new(),
            last_writer: [None; NUM_ARCH_REGS],
            block: 0,
            wrap_body: None,
        }
    }

    /// Number of instructions collected so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the pending segment can absorb `input` under `cfg`'s limits.
    fn can_accept(&self, input: &FillInput, cfg: &FillConfig) -> bool {
        if self.slots.is_empty() {
            return true;
        }
        if self.slots.len() >= cfg.max_slots {
            return false;
        }
        if input.instr.op.is_cond_branch() && self.branches.len() >= cfg.max_cond_branches {
            return false;
        }
        // Loop-aligned fill: when the stream wraps back to our own head
        // and another whole iteration would not fit, start a fresh
        // segment — hot-loop lines then begin at stable addresses and
        // hold a whole number of iterations.
        if cfg.align_loops && input.pc == self.slots[0].pc {
            let body = self.wrap_body.unwrap_or(self.slots.len());
            if self.slots.len() + body > cfg.max_slots {
                return false;
            }
        }
        true
    }

    /// Adds one retired instruction under `cfg`'s termination rules and
    /// hands each segment it closes to `close`, oldest first: the pending
    /// segment when `input` heads a fetch-missed bundle (fetch-aligned
    /// fill) or cannot join it (slot limit, loop wrap or branch limit),
    /// then the segment `input` itself terminates. A closed segment is a
    /// view of the builder's buffers, which the next instruction reuses.
    pub fn offer(&mut self, input: FillInput, cfg: &FillConfig, mut close: impl FnMut(Closed<'_>)) {
        if let Some(end) = self.end_before(&input, cfg) {
            close(self.seal(end).expect("a segment is pending"));
            self.clear();
        }
        self.push(input);
        if let Some(end) = self.end_after(&input, cfg) {
            close(self.seal(end).expect("a segment is pending"));
            self.clear();
        }
    }

    /// Why the pending segment must close before `input` joins it: `input`
    /// heads a fetch-missed bundle, or cannot join (slot limit, loop wrap
    /// or branch limit).
    pub(crate) fn end_before(&self, input: &FillInput, cfg: &FillConfig) -> Option<SegEnd> {
        if self.is_empty() {
            None
        } else if input.fetch_miss_head {
            Some(SegEnd::FetchAligned)
        } else if self.can_accept(input, cfg) {
            None
        } else if self.len() >= cfg.max_slots {
            Some(SegEnd::Full)
        } else if cfg.align_loops && self.slots[0].pc == input.pc {
            Some(SegEnd::Loop)
        } else {
            Some(SegEnd::BranchLimit)
        }
    }

    /// Why the segment must close now that `input` has been pushed.
    pub(crate) fn end_after(&self, input: &FillInput, cfg: &FillConfig) -> Option<SegEnd> {
        let op = input.instr.op;
        if op.is_indirect() {
            return Some(SegEnd::Indirect);
        }
        if op.is_serializing() {
            return Some(SegEnd::Serialize);
        }
        if self.slots.len() >= cfg.max_slots {
            return Some(SegEnd::Full);
        }
        if !cfg.packing && op.is_cond_branch() && self.branches.len() >= cfg.max_cond_branches {
            // Without trace packing the segment ends with its last block.
            return Some(SegEnd::BranchLimit);
        }
        None
    }

    /// Appends one retired instruction, marking its dependencies.
    ///
    /// # Panics
    ///
    /// Panics if the segment already holds 64 slots (callers go through
    /// [`offer`](Self::offer), which closes full segments first).
    pub fn push(&mut self, input: FillInput) {
        assert!(self.slots.len() < 16 * 4, "builder overfilled");
        if !self.slots.is_empty() && input.pc == self.slots[0].pc && self.wrap_body.is_none() {
            self.wrap_body = Some(self.slots.len());
        }
        let instr = input.instr;
        let idx = self.slots.len() as u8;

        // Source dataflow locations, before recording this slot's write.
        let mut srcs: [Option<SrcRef>; 2] = [None, None];
        for (k, reg) in instr.srcs().enumerate() {
            srcs[k] = Some(if reg.is_zero() {
                SrcRef::LiveIn(reg)
            } else {
                match self.last_writer[reg.index()] {
                    Some(w) => SrcRef::Internal(w),
                    None => SrcRef::LiveIn(reg),
                }
            });
        }
        let dest = instr.dest();
        if let Some(d) = dest {
            self.last_writer[d.index()] = Some(idx);
        }

        if instr.op.is_cond_branch() {
            let taken = input
                .taken
                .expect("conditional branch retired without direction");
            self.branches.push(BranchInfo {
                slot: idx,
                taken,
                promoted: input.promoted == Some(taken),
            });
        }

        self.slots.push(SegSlot {
            pc: input.pc,
            orig: instr,
            op: instr.op,
            imm: instr.imm,
            srcs,
            dest,
            block: self.block,
            live_out: false, // computed at finalize
            is_move: false,
            move_src: None,
            scadd: None,
            taken: input.taken.filter(|_| instr.op.is_cond_branch()),
            reassociated: false,
        });

        if instr.op.is_cond_branch() {
            self.block += 1;
        }
    }

    /// Closes the pending segment as `end`, computing its live-out
    /// marking in place, and returns a view of it; `None` if nothing was
    /// collected. The builder keeps the segment until [`clear`](Self::clear).
    pub(crate) fn seal(&mut self, end: SegEnd) -> Option<Closed<'_>> {
        if self.slots.is_empty() {
            return None;
        }
        // live_out: the final writer of each architectural register.
        let mut seen = [false; NUM_ARCH_REGS];
        for slot in self.slots.iter_mut().rev() {
            if let Some(d) = slot.dest {
                slot.live_out = !seen[d.index()];
                seen[d.index()] = true;
            }
        }
        Some(Closed {
            slots: &self.slots,
            branches: &self.branches,
            end,
        })
    }

    /// Empties the builder, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.branches.clear();
        self.last_writer = [None; NUM_ARCH_REGS];
        self.block = 0;
        self.wrap_body = None;
    }

    /// Finalizes the pending segment as `end` and resets the builder.
    ///
    /// Returns `None` if nothing was collected.
    pub fn finalize(&mut self, end: SegEnd) -> Option<Segment> {
        let seg = self.seal(end)?.to_segment();
        self.clear();
        Some(seg)
    }
}

/// A segment the builder closed, still in the builder's buffers: its
/// slots (live-out marking done) and branches, and why it ended.
#[derive(Debug, Clone, Copy)]
pub struct Closed<'a> {
    /// Instruction slots in program order.
    pub slots: &'a [SegSlot],
    /// The conditional branches, in order.
    pub branches: &'a [BranchInfo],
    /// Why the segment ended.
    pub end: SegEnd,
}

impl Closed<'_> {
    /// The segment, in identity issue order and untouched by any pass.
    pub fn to_segment(&self) -> Segment {
        let n = self.slots.len() as u8;
        let seg = Segment {
            start_pc: self.slots[0].pc,
            slots: self.slots.to_vec(),
            issue_pos: (0..n).collect(),
            branches: self.branches.to_vec(),
            end: self.end,
            opt_counts: Default::default(),
            fault: None,
        };
        debug_assert_eq!(seg.check_invariants(), Ok(()));
        seg
    }
}

impl Default for SegmentBuilder {
    fn default() -> SegmentBuilder {
        SegmentBuilder::new()
    }
}

/// Convenience: runs a retire stream through a builder with `cfg`,
/// returning every finalized segment. A trailing partial segment is
/// flushed with [`SegEnd::Flushed`] (the in-pipeline [`FillUnit`] keeps it
/// pending instead, as hardware does).
///
/// [`FillUnit`]: crate::fill::FillUnit
pub fn build_segments(inputs: &[FillInput], cfg: &FillConfig) -> Vec<Segment> {
    let mut b = SegmentBuilder::new();
    let mut out = Vec::new();
    for &input in inputs {
        b.offer(input, cfg, |c| out.push(c.to_segment()));
    }
    out.extend(b.finalize(SegEnd::Flushed));
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tracefill_isa::{ArchReg, Op};

    pub fn r(n: u8) -> ArchReg {
        ArchReg::gpr(n)
    }

    /// A small straight-line retire stream used across the crate's tests.
    pub fn simple_inputs() -> Vec<FillInput> {
        let base = 0x40_0000u32;
        let instrs = vec![
            Instr::alu_imm(Op::Addi, r(8), r(9), 4),
            Instr::alu_imm(Op::Sll, r(10), r(8), 2),
            Instr::alu(Op::Add, r(11), r(10), r(12)),
            Instr::load(Op::Lw, r(13), r(11), 8),
            Instr::branch(Op::Bne, r(13), r(0), 5),
            Instr::alu_imm(Op::Addi, r(14), r(8), 4),
            Instr::store(Op::Sw, r(14), r(29), -4),
            Instr {
                op: Op::Jr,
                rd: r(0),
                rs: ArchReg::RA,
                rt: r(0),
                imm: 0,
            },
        ];
        instrs
            .into_iter()
            .enumerate()
            .map(|(i, instr)| FillInput {
                pc: base + 4 * i as u32,
                instr,
                taken: instr.op.is_cond_branch().then_some(false),
                promoted: None,
                fetch_miss_head: false,
            })
            .collect()
    }

    pub fn simple_segment() -> Segment {
        let segs = build_segments(&simple_inputs(), &FillConfig::default());
        assert_eq!(segs.len(), 1);
        segs.into_iter().next().unwrap()
    }

    #[test]
    fn dependencies_are_marked() {
        let seg = simple_segment();
        // Slot 1 (sll of $t0) depends internally on slot 0.
        assert_eq!(seg.slots[1].srcs[0], Some(SrcRef::Internal(0)));
        // Slot 2 (add) depends on slot 1 and live-in $t4.
        assert_eq!(seg.slots[2].srcs[0], Some(SrcRef::Internal(1)));
        assert_eq!(seg.slots[2].srcs[1], Some(SrcRef::LiveIn(r(12))));
        // Slot 0's source is live-in.
        assert_eq!(seg.slots[0].srcs[0], Some(SrcRef::LiveIn(r(9))));
        seg.check_invariants().unwrap();
    }

    #[test]
    fn blocks_split_at_conditional_branches() {
        let seg = simple_segment();
        assert_eq!(seg.slots[4].block, 0); // the branch itself
        assert_eq!(seg.slots[5].block, 1); // after the branch
        assert_eq!(seg.end, SegEnd::Indirect);
    }

    #[test]
    fn live_out_marks_final_writers() {
        let seg = simple_segment();
        // $t0 is written at slot 0 only -> live out.
        assert!(seg.slots[0].live_out);
    }

    #[test]
    fn slot_limit_finalizes() {
        let mut inputs = Vec::new();
        for i in 0..40u32 {
            inputs.push(FillInput {
                pc: 0x40_0000 + 4 * i,
                instr: Instr::alu_imm(Op::Addi, r(8), r(8), 1),
                taken: None,
                promoted: None,
                fetch_miss_head: false,
            });
        }
        let segs = build_segments(&inputs, &FillConfig::default());
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].slots.len(), 16);
        assert_eq!(segs[1].slots.len(), 16);
        assert_eq!(segs[0].end, SegEnd::Full);
        assert_eq!(segs[2].end, SegEnd::Flushed);
        assert_eq!(segs[2].slots.len(), 8);
    }

    #[test]
    fn branch_limit_with_and_without_packing() {
        // Stream of branch+add pairs.
        let mut inputs = Vec::new();
        for i in 0..12u32 {
            let instr = if i % 2 == 0 {
                Instr::branch(Op::Beq, r(8), r(0), 1)
            } else {
                Instr::alu_imm(Op::Addi, r(8), r(8), 1)
            };
            inputs.push(FillInput {
                pc: 0x40_0000 + 4 * i,
                instr,
                taken: instr.op.is_cond_branch().then_some(false),
                promoted: None,
                fetch_miss_head: false,
            });
        }
        let packed = build_segments(&inputs, &FillConfig::default());
        // Packing: the 4th branch cannot enter; segment carries 3 branches
        // plus the adds around them.
        assert_eq!(packed[0].branches.len(), 3);
        assert!(packed[0].slots.len() > 5);

        let cfg = FillConfig {
            packing: false,
            ..FillConfig::default()
        };
        let unpacked = build_segments(&inputs, &cfg);
        // Without packing the segment ends right at its 3rd branch.
        assert_eq!(unpacked[0].branches.len(), 3);
        assert!(unpacked[0].slots.last().unwrap().op.is_cond_branch());
    }

    #[test]
    fn serializing_terminates() {
        let inputs = vec![
            FillInput {
                pc: 0x40_0000,
                instr: Instr::alu_imm(Op::Addi, r(2), r(0), 10),
                taken: None,
                promoted: None,
                fetch_miss_head: false,
            },
            FillInput {
                pc: 0x40_0004,
                instr: Instr {
                    op: Op::Syscall,
                    rd: r(0),
                    rs: r(0),
                    rt: r(0),
                    imm: 0,
                },
                taken: None,
                promoted: None,
                fetch_miss_head: false,
            },
        ];
        let segs = build_segments(&inputs, &FillConfig::default());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end, SegEnd::Serialize);
    }

    #[test]
    fn promotion_flag_requires_direction_match() {
        let mk = |promoted, taken| FillInput {
            pc: 0x40_0000,
            instr: Instr::branch(Op::Beq, r(8), r(0), 1),
            taken: Some(taken),
            promoted,
            fetch_miss_head: false,
        };
        let mut b = SegmentBuilder::new();
        b.push(mk(Some(true), true));
        b.push(mk(Some(true), false)); // stale promotion, direction differs
        b.push(mk(None, true));
        let seg = b.finalize(SegEnd::BranchLimit).unwrap();
        assert!(seg.branches[0].promoted);
        assert!(!seg.branches[1].promoted);
        assert!(!seg.branches[2].promoted);
    }
}
