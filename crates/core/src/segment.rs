//! Trace segments: the unit the fill unit builds and the trace cache stores.
//!
//! A segment holds up to 16 instructions from one dynamic execution path
//! with **explicit dependency marking**: every register source is recorded
//! as either *live-in* to the segment (read the rename table at issue) or
//! *internal* (the output of an earlier slot in the same segment). Because
//! dependencies are explicit, the order of instructions in the line carries
//! no dataflow meaning — which is precisely the freedom the placement
//! optimization exploits (paper §4.5) — and rewrites like reassociation
//! amount to re-pointing a source at a different dataflow location.
//!
//! Per the paper's storage accounting, each instruction carries 7 bits of
//! dependency pre-decode (3 destination/live-out bits, 2 live-in bits, 2
//! block-number bits) plus 7 optimization bits (1 move, 2 scaled add, 4
//! placement).

use std::fmt;
use tracefill_isa::{ArchReg, Instr, Op};
use tracefill_util::Json;

/// Where a source operand's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcRef {
    /// The architectural value of a register at segment entry (reads the
    /// rename table when the segment issues). `LiveIn($zero)` is the
    /// constant zero and is always ready.
    LiveIn(ArchReg),
    /// The output of the slot with this index (original program order)
    /// within the same segment.
    Internal(u8),
}

/// A scaled-add annotation: one source operand is shifted left before the
/// operation executes (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScAdd {
    /// Shift distance in bits (1..=3 with the paper's parameters).
    pub shift: u8,
    /// Which source operand (0 or 1) is shifted.
    pub src: u8,
}

/// One instruction slot of a trace segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegSlot {
    /// PC of the instruction.
    pub pc: u32,
    /// The instruction exactly as fetched from memory (never rewritten;
    /// retirement compares architectural effects against this).
    pub orig: Instr,
    /// Executed opcode (always `orig.op`; kept separate for clarity).
    pub op: Op,
    /// Executed immediate — reassociation may change it from `orig.imm`.
    pub imm: i32,
    /// Executed dataflow sources, in the operand order of
    /// [`Instr::srcs`]. Rewrites (moves, reassociation, scaled adds)
    /// re-point these.
    pub srcs: [Option<SrcRef>; 2],
    /// Architectural destination, if any.
    pub dest: Option<ArchReg>,
    /// Block number within the segment (increments after each conditional
    /// branch; 2 bits in the paper).
    pub block: u8,
    /// Whether `dest` is the segment's final writer of that register.
    pub live_out: bool,
    /// Marked as a register move: executed entirely in rename, never
    /// dispatched to a functional unit (paper §4.2).
    pub is_move: bool,
    /// For a marked move, where the copied value comes from.
    pub move_src: Option<SrcRef>,
    /// Scaled-add annotation (paper §4.4).
    pub scadd: Option<ScAdd>,
    /// Embedded branch direction for conditional branches: the direction
    /// the path this segment encodes took.
    pub taken: Option<bool>,
    /// Whether the fill unit rewrote this slot's immediate via
    /// reassociation (paper §4.3) — tracked for Table 2 accounting.
    pub reassociated: bool,
}

impl SegSlot {
    /// Iterates over present sources as `(operand_index, SrcRef)`.
    pub fn src_refs(&self) -> impl Iterator<Item = (usize, SrcRef)> + '_ {
        self.srcs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s)))
    }

    /// Whether any transformation was applied to this slot (for the
    /// Table 2 coverage statistic).
    pub fn is_transformed(&self) -> bool {
        self.is_move || self.reassociated || self.scadd.is_some()
    }
}

/// Why the fill unit ended a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegEnd {
    /// Sixteen instructions were collected.
    Full,
    /// The conditional-branch limit would have been exceeded.
    BranchLimit,
    /// The segment ends in a return or indirect jump.
    Indirect,
    /// The segment ends in a serializing instruction.
    Serialize,
    /// The next instruction would close a loop back to the segment's own
    /// start (loop-aligned fill; see
    /// [`FillConfig::align_loops`](crate::config::FillConfig::align_loops)).
    Loop,
    /// The next instruction is a fetch address the trace cache missed on:
    /// segments must start at addresses the fetch engine actually uses,
    /// or they can never be found (fetch-aligned fill).
    FetchAligned,
    /// The builder was flushed externally (end of a simulation or an
    /// offline [`build_segments`](crate::builder::build_segments) run).
    Flushed,
}

impl SegEnd {
    /// A stable snake_case name for reports (matches the
    /// `fill.seg_end.*` metric suffixes).
    pub fn name(self) -> &'static str {
        match self {
            SegEnd::Full => "full",
            SegEnd::BranchLimit => "branch_limit",
            SegEnd::Indirect => "indirect",
            SegEnd::Serialize => "serialize",
            SegEnd::Loop => "loop",
            SegEnd::FetchAligned => "fetch_aligned",
            SegEnd::Flushed => "flushed",
        }
    }
}

/// Fill-unit provenance carried by every segment so that downstream
/// consumers — the lockstep oracle in particular — can attribute a
/// misbehaving trace line back to the fill event that produced it and to
/// the optimization passes that rewrote it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Monotonic id assigned by the fill unit at finalization (0 when the
    /// segment was built outside a fill unit, e.g. by
    /// [`build_segments`](crate::builder::build_segments)).
    pub seg_id: u64,
    /// Per-pass transformation counts recorded when the optimization
    /// passes ran over this segment.
    pub opt_counts: crate::opt::OptCounts,
    /// Description of an injected fault applied to this segment, if any
    /// (set by the sim's fault injector; `None` in normal operation).
    pub fault: Option<String>,
    /// Cycle the fill unit finalized this segment (0 when built outside a
    /// fill unit). The segment ledger uses it to measure build-to-insert
    /// and build-to-first-hit latencies.
    pub build_cycle: u64,
}

impl Provenance {
    /// Names of the optimization passes that actually transformed this
    /// segment (empty for an untouched segment).
    pub fn passes(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.opt_counts.moves > 0 {
            out.push("moves");
        }
        if self.opt_counts.cse > 0 {
            out.push("cse");
        }
        if self.opt_counts.reassoc > 0 {
            out.push("reassoc");
        }
        if self.opt_counts.scadd > 0 {
            out.push("scadd");
        }
        if self.opt_counts.placed_segments > 0 {
            out.push("placement");
        }
        out
    }
}

/// The provenance of one segment as a checker reports it: which segment a
/// divergence or a verification failure came from, and what rewrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegSource {
    /// Fill-unit id of the segment.
    pub seg_id: u64,
    /// Segment start address.
    pub start_pc: u32,
    /// Number of instruction slots.
    pub len: usize,
    /// Optimization passes that transformed the segment.
    pub passes: Vec<&'static str>,
    /// Injected-fault note, if the segment was deliberately corrupted.
    pub fault: Option<String>,
}

impl SegSource {
    /// Extracts provenance from a segment.
    pub fn of(seg: &Segment) -> SegSource {
        SegSource {
            seg_id: seg.provenance.seg_id,
            start_pc: seg.start_pc,
            len: seg.slots.len(),
            passes: seg.provenance.passes(),
            fault: seg.provenance.fault.clone(),
        }
    }

    /// The `segment` object of divergence and repair reports.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("seg_id", self.seg_id)
            .with("start_pc", u64::from(self.start_pc))
            .with("len", self.len)
            .with(
                "passes",
                Json::Arr(self.passes.iter().map(|s| Json::from(*s)).collect()),
            )
            .with(
                "fault",
                self.fault.as_deref().map(Json::from).unwrap_or(Json::Null),
            )
    }
}

impl fmt::Display for SegSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seg#{} @{:#010x} len={} passes=[{}]",
            self.seg_id,
            self.start_pc,
            self.len,
            self.passes.join(",")
        )?;
        if let Some(fault) = &self.fault {
            write!(f, " fault={fault}")?;
        }
        Ok(())
    }
}

/// Description of one conditional branch inside a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Slot index (original order) of the branch.
    pub slot: u8,
    /// The direction the segment's path embeds.
    pub taken: bool,
    /// Promoted (statically predicted) at build time?
    pub promoted: bool,
}

/// A finalized trace segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Fetch address this segment answers to.
    pub start_pc: u32,
    /// Instruction slots in original program order.
    pub slots: Vec<SegSlot>,
    /// Issue position of each slot: `issue_pos[slot_index]` is the issue
    /// slot (and therefore cluster) the instruction dispatches to. The
    /// identity permutation unless the placement pass ran.
    pub issue_pos: Vec<u8>,
    /// The conditional branches, in order.
    pub branches: Vec<BranchInfo>,
    /// Why the segment ended.
    pub end: SegEnd,
    /// Fill-unit provenance (id, pass attribution, injected-fault note).
    pub provenance: Provenance,
}

impl Segment {
    /// The directions of the embedded conditional path, LSB-first — the
    /// path signature used to distinguish same-address segments.
    pub fn path_sig(&self) -> (u16, u8) {
        let mut sig = 0u16;
        for (i, b) in self.branches.iter().enumerate() {
            sig |= (b.taken as u16) << i;
        }
        (sig, self.branches.len() as u8)
    }

    /// The fetch address that follows this segment along its embedded
    /// path, or `None` when it ends in an indirect jump (the fetch engine
    /// then consults the return stack / target buffer).
    pub fn next_fetch_pc(&self) -> Option<u32> {
        let last = self.slots.last()?;
        match last.op {
            Op::Jr | Op::Jalr => None,
            Op::J | Op::Jal => last.orig.taken_target(last.pc),
            op if op.is_cond_branch() => {
                if last.taken == Some(true) {
                    last.orig.taken_target(last.pc)
                } else {
                    Some(last.pc.wrapping_add(4))
                }
            }
            _ => Some(last.pc.wrapping_add(4)),
        }
    }

    /// Storage charged for this segment in bits: 32 instruction bits plus
    /// 7 dependency pre-decode bits plus 7 optimization bits per slot.
    pub fn storage_bits(&self) -> u32 {
        self.slots.len() as u32 * (32 + 7 + 7)
    }

    /// Checks the structural invariants every well-formed segment upholds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant. Used by
    /// tests and by `debug_assert!`s in the fill unit.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.slots.is_empty() {
            return Err("segment has no slots".into());
        }
        if self.slots[0].pc != self.start_pc {
            return Err("start_pc does not match first slot".into());
        }
        if self.issue_pos.len() != self.slots.len() {
            return Err("issue_pos length mismatch".into());
        }
        // issue_pos must be a permutation.
        let mut seen = vec![false; self.slots.len()];
        for &p in &self.issue_pos {
            let p = p as usize;
            if p >= seen.len() || seen[p] {
                return Err("issue_pos is not a permutation".into());
            }
            seen[p] = true;
        }
        // Internal references must point strictly backwards.
        for (i, slot) in self.slots.iter().enumerate() {
            for (_, s) in slot.src_refs() {
                if let SrcRef::Internal(p) = s {
                    if p as usize >= i {
                        return Err(format!("slot {i} references non-earlier slot {p}"));
                    }
                    if self.slots[p as usize].dest.is_none() {
                        return Err(format!("slot {i} references destination-less slot {p}"));
                    }
                }
            }
            if slot.is_move != slot.move_src.is_some() {
                return Err(format!("slot {i}: is_move / move_src mismatch"));
            }
            if let Some(sc) = slot.scadd {
                if sc.src > 1 || slot.srcs[sc.src as usize].is_none() {
                    return Err(format!("slot {i}: scaled add names a missing source"));
                }
                if sc.shift == 0 {
                    return Err(format!("slot {i}: scaled add with zero shift"));
                }
            }
            if slot.op.is_cond_branch() != slot.taken.is_some() {
                return Err(format!("slot {i}: taken recorded on a non-branch"));
            }
        }
        // Branch list must match the slots.
        let cond_slots: Vec<u8> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op.is_cond_branch())
            .map(|(i, _)| i as u8)
            .collect();
        if cond_slots.len() != self.branches.len()
            || !cond_slots
                .iter()
                .zip(&self.branches)
                .all(|(s, b)| *s == b.slot)
        {
            return Err("branch list does not match conditional-branch slots".into());
        }
        // Block numbers increment exactly after each conditional branch.
        let mut block = 0u8;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.block != block {
                return Err(format!(
                    "slot {i}: block {} but expected {block}",
                    slot.block
                ));
            }
            if slot.op.is_cond_branch() {
                block += 1;
            }
        }
        // live_out must mark exactly the final writer of each register.
        use std::collections::HashMap;
        let mut last_writer: HashMap<ArchReg, usize> = HashMap::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(d) = slot.dest {
                last_writer.insert(d, i);
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(d) = slot.dest {
                let expect = last_writer[&d] == i;
                if slot.live_out != expect {
                    return Err(format!("slot {i}: live_out flag wrong"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::simple_segment;

    #[test]
    fn path_signature() {
        let mut seg = simple_segment();
        assert_eq!(seg.path_sig().1, seg.branches.len() as u8);
        if !seg.branches.is_empty() {
            seg.branches[0].taken = true;
            assert_eq!(seg.path_sig().0 & 1, 1);
        }
    }

    #[test]
    fn invariants_catch_forward_reference() {
        let mut seg = simple_segment();
        assert!(seg.check_invariants().is_ok());
        // Point slot 0's source at itself.
        if seg.slots[0].srcs[0].is_some() {
            seg.slots[0].srcs[0] = Some(SrcRef::Internal(0));
            assert!(seg.check_invariants().is_err());
        }
    }

    #[test]
    fn storage_bits_matches_paper_budget() {
        let seg = simple_segment();
        // 46 bits per instruction: 32 + 7 predecode + 7 optimization.
        assert_eq!(seg.storage_bits(), 46 * seg.slots.len() as u32);
    }
}
