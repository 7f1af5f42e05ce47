//! In-flight micro-operations and fetch bundles.

use crate::physreg::PhysReg;
use std::collections::VecDeque;
use std::ops::Index;
use std::sync::Arc;
use tracefill_core::segment::{ScAdd, Segment, SrcRef};
use tracefill_isa::{ArchReg, Instr, Op};
use tracefill_uarch::pht::{HistorySnapshot, Prediction};
use tracefill_uarch::ras::RasSnapshot;

/// Identity of an in-flight uop (monotonic, never reused within a run).
pub type UopId = u64;

/// Execution state of a uop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopState {
    /// In a reservation station, waiting for operands.
    Waiting,
    /// Executing; completes at the stored cycle.
    Executing {
        /// Completion cycle.
        done: u64,
    },
    /// Result produced (moves are born `Done`).
    Done,
}

/// Memory-operation progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemState {
    /// Load (true) or store (false).
    pub is_load: bool,
    /// Access size in bytes.
    pub size: u32,
    /// Effective address, once generated.
    pub addr: Option<u32>,
    /// Store data (captured at execute) or loaded value.
    pub value: u32,
    /// For loads: the value was forwarded from an in-flight store.
    pub forwarded: bool,
}

/// Branch/jump resolution context.
#[derive(Debug, Clone)]
pub struct BranchCtx {
    /// Direction the fetch engine followed (conditional branches).
    pub pred_taken: Option<bool>,
    /// Predicted target (indirect jumps).
    pub pred_target: Option<u32>,
    /// PHT training handle, if a dynamic prediction was made.
    pub prediction: Option<Prediction>,
    /// The branch was promoted (statically predicted) in its trace line.
    pub promoted: bool,
    /// Embedded direction in the trace line, if fetched from the TC.
    pub embedded: Option<bool>,
    /// Checkpoint owned by this uop.
    pub checkpoint: Option<u64>,
    /// Resolved direction.
    pub actual_taken: Option<bool>,
    /// Resolved target PC (the PC that follows this instruction).
    pub actual_next: Option<u32>,
    /// Resolution happened.
    pub resolved: bool,
}

/// One in-flight micro-operation.
#[derive(Debug, Clone)]
pub struct Uop {
    /// Identity.
    pub id: UopId,
    /// PC of the instruction.
    pub pc: u32,
    /// The architectural instruction (for retire-time oracle comparison).
    pub instr: Instr,
    /// Executed opcode.
    pub op: Op,
    /// Executed immediate (possibly reassociated).
    pub imm: i32,
    /// Scaled-add annotation.
    pub scadd: Option<ScAdd>,
    /// Physical source registers.
    pub srcs: [Option<PhysReg>; 2],
    /// Destination: architectural register and its physical mapping.
    pub dest: Option<(ArchReg, PhysReg)>,
    /// The physical register this uop's destination mapping displaced
    /// (freed when this uop retires).
    pub prev_phys: Option<PhysReg>,
    /// The destination mapping is an alias of the source (marked move).
    pub aliased: bool,
    /// Functional unit (issue slot) assignment.
    pub fu: u8,
    /// Execution state.
    pub state: UopState,
    /// Branch context.
    pub branch: Option<BranchCtx>,
    /// Memory context.
    pub mem: Option<MemState>,
    /// Fetched from the trace cache.
    pub from_tc: bool,
    /// Head of a trace-cache-miss fetch bundle (see
    /// [`FetchSlot::miss_head`]).
    pub miss_head: bool,
    /// Marked register move (completed in rename).
    pub is_move: bool,
    /// Immediate was reassociated by the fill unit.
    pub reassociated: bool,
    /// Currently inactive (in a shadow context).
    pub inactive: bool,
    /// Shadow memory op: execution deferred until activation.
    pub mem_deferred: bool,
    /// Last-arriving operand was delayed by the cross-cluster bypass.
    pub bypass_delayed: bool,
    /// Ran through a functional unit (Figure 7 denominator).
    pub fu_executed: bool,
    /// The trace segment this uop was fetched from (`None` on the
    /// instruction-cache path). Carried to retirement so a lockstep
    /// divergence can name the originating segment and the passes that
    /// touched it.
    pub seg: Option<Arc<Segment>>,
}

impl Uop {
    /// Whether the uop's result is produced and visible.
    pub fn is_done(&self) -> bool {
        self.state == UopState::Done
    }

    /// Whether this uop is a serializing system op.
    pub fn is_system(&self) -> bool {
        matches!(self.op, Op::Syscall | Op::Break)
    }

    /// Whether this uop needs a checkpoint (conditional branch or
    /// indirect jump).
    pub fn needs_checkpoint(&self) -> bool {
        self.op.is_cond_branch() || self.op.is_indirect()
    }

    /// The id of the trace-cache segment that supplied this uop (`None`
    /// on the instruction-cache path).
    pub fn tc_seg(&self) -> Option<u64> {
        self.seg
            .as_ref()
            .filter(|_| self.from_tc)
            .map(|s| s.provenance.seg_id)
    }
}

/// Every in-flight uop, indexed by id.
///
/// Ids come from a counter that only grows, so the table is a deque of
/// slots based at the oldest live id: a lookup is one subtraction, an
/// insert lands at or past the back, and a removal trims empty slots from
/// both ends. The table is therefore never longer than the span of live
/// ids, however many uops a squash discards.
#[derive(Debug, Default)]
pub(crate) struct UopTable {
    /// Id of `slots[0]`.
    base: UopId,
    slots: VecDeque<Option<Uop>>,
    live: usize,
}

impl UopTable {
    fn slot(&self, id: UopId) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The uop with this id, if it is still in flight.
    pub(crate) fn get(&self, id: UopId) -> Option<&Uop> {
        self.slots[self.slot(id)?].as_ref()
    }

    /// As [`get`](Self::get), mutably.
    pub(crate) fn get_mut(&mut self, id: UopId) -> Option<&mut Uop> {
        let i = self.slot(id)?;
        self.slots[i].as_mut()
    }

    /// Whether the uop with this id is still in flight.
    pub(crate) fn contains(&self, id: UopId) -> bool {
        self.get(id).is_some()
    }

    /// Adds a uop under its own id.
    ///
    /// # Panics
    ///
    /// Panics unless the id is past every id the table holds.
    pub(crate) fn insert(&mut self, uop: Uop) {
        if self.slots.is_empty() {
            self.base = uop.id;
        }
        let end = self.base + self.slots.len() as UopId;
        assert!(uop.id >= end, "uop {} inserted out of id order", uop.id);
        let gap = (uop.id - end) as usize;
        self.slots.resize_with(self.slots.len() + gap, || None);
        self.slots.push_back(Some(uop));
        self.live += 1;
    }

    /// Removes and returns the uop with this id, if it is in flight.
    pub(crate) fn remove(&mut self, id: UopId) -> Option<Uop> {
        let i = self.slot(id)?;
        let uop = self.slots[i].take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(uop)
    }

    /// Number of uops in flight.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Every uop in flight, oldest first.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Uop> {
        self.slots.iter().flatten()
    }

    /// Removes every uop.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

impl Index<UopId> for UopTable {
    type Output = Uop;

    fn index(&self, id: UopId) -> &Uop {
        self.get(id)
            .unwrap_or_else(|| panic!("uop {id} is not in flight"))
    }
}

/// Per-branch fetch-time snapshots used to build checkpoints.
#[derive(Debug, Clone)]
pub struct BranchFetchMeta {
    /// Predicted direction (conditional) at fetch.
    pub pred_taken: Option<bool>,
    /// Predicted target (indirect) at fetch.
    pub pred_target: Option<u32>,
    /// PHT handle for retire-time training.
    pub prediction: Option<Prediction>,
    /// Promoted in the fetched line.
    pub promoted: bool,
    /// Embedded direction in the fetched line.
    pub embedded: Option<bool>,
    /// RAS state before this branch's own RAS effect.
    pub ras_snap: RasSnapshot,
    /// History state before this branch's own history push.
    pub ghr_snap: HistorySnapshot,
}

/// One slot of a fetch bundle, uniform across the trace-cache and
/// instruction-cache paths.
#[derive(Debug, Clone)]
pub struct FetchSlot {
    /// PC.
    pub pc: u32,
    /// Architectural instruction.
    pub instr: Instr,
    /// Executed opcode (from the segment, or `instr.op` on the raw path).
    pub op: Op,
    /// Executed immediate.
    pub imm: i32,
    /// Scaled-add annotation.
    pub scadd: Option<ScAdd>,
    /// Dataflow sources (`LiveIn` on the raw path).
    pub srcs: [Option<SrcRef>; 2],
    /// Architectural destination.
    pub dest: Option<ArchReg>,
    /// Marked move and its source.
    pub is_move: bool,
    /// Move source location.
    pub move_src: Option<SrcRef>,
    /// Issue slot (functional unit) assignment.
    pub fu: u8,
    /// Reassociated immediate.
    pub reassociated: bool,
    /// Fetched from the trace cache.
    pub from_tc: bool,
    /// First instruction of a bundle fetched after a trace-cache miss —
    /// i.e. an address the fetch engine actually looked up and missed.
    /// The fill unit starts new segments at these addresses so stored
    /// segments answer to real fetch addresses.
    pub miss_head: bool,
    /// Inactive (past the divergence point of the line).
    pub inactive: bool,
    /// Branch metadata.
    pub branch: Option<BranchFetchMeta>,
    /// The trace segment this slot came from (`None` on the
    /// instruction-cache path); see [`Uop::seg`].
    pub seg: Option<Arc<Segment>>,
}

/// Where fetch resumes after a shadow context is activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowResume {
    /// A known PC (the line's embedded continuation).
    Pc(u32),
    /// After the line's terminal indirect jump (identified by its slot
    /// index in the bundle); the target is predicted/resolved later.
    Indirect,
}

/// A bundle of fetched instructions awaiting issue.
#[derive(Debug, Clone)]
pub struct FetchBundle {
    /// Slots in original program order.
    pub slots: Vec<FetchSlot>,
    /// Index of the divergence branch, if the line's embedded path departs
    /// from the predictions (slots after it are inactive).
    pub diverge_at: Option<usize>,
    /// Where fetch resumes along the shadow path if it is activated.
    pub shadow_resume: ShadowResume,
    /// Return addresses pushed by calls in the shadow portion, applied at
    /// activation.
    pub shadow_ras_pushes: Vec<u32>,
    /// Embedded directions of shadow-portion conditional branches, pushed
    /// into the history at activation.
    pub shadow_ghr: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefill_isa::instr::NOP;

    fn uop(id: UopId) -> Uop {
        Uop {
            id,
            pc: 0,
            instr: NOP,
            op: Op::Beq,
            imm: 0,
            scadd: None,
            srcs: [None, None],
            dest: None,
            prev_phys: None,
            aliased: false,
            fu: 0,
            state: UopState::Waiting,
            branch: None,
            mem: None,
            from_tc: false,
            miss_head: false,
            is_move: false,
            reassociated: false,
            inactive: false,
            mem_deferred: false,
            bypass_delayed: false,
            fu_executed: false,
            seg: None,
        }
    }

    #[test]
    fn uop_flags() {
        let u = uop(0);
        assert!(u.needs_checkpoint());
        assert!(!u.is_done());
        assert!(!u.is_system());
        let jr = Uop {
            op: Op::Jr,
            ..u.clone()
        };
        assert!(jr.needs_checkpoint());
        let sys = Uop {
            op: Op::Syscall,
            ..u
        };
        assert!(sys.is_system());
        assert!(!sys.needs_checkpoint());
    }

    /// A table holding `ids`, inserted in order.
    fn table(ids: &[UopId]) -> UopTable {
        let mut t = UopTable::default();
        for &id in ids {
            t.insert(uop(id));
        }
        t
    }

    #[test]
    fn holes_in_the_middle_stay_reachable_around() {
        let mut t = table(&[10, 11, 12, 13]);
        assert_eq!(t.remove(11).map(|u| u.id), Some(11));
        assert_eq!(t.remove(12).map(|u| u.id), Some(12));
        assert_eq!(t[10].id, 10);
        assert_eq!(t[13].id, 13);
        assert!(t.get(11).is_none() && t.get(12).is_none());
        t.insert(uop(20));
        assert_eq!(t.get(20).map(|u| u.id), Some(20));
        let ids: Vec<UopId> = t.values().map(|u| u.id).collect();
        assert_eq!(ids, [10, 13, 20]);
    }

    #[test]
    fn removing_the_front_moves_the_base_past_the_holes() {
        let mut t = table(&[5, 6, 7, 8]);
        t.remove(6);
        t.remove(7);
        t.remove(5);
        assert_eq!((t.base, t.slots.len()), (8, 1));
        assert_eq!(t[8].id, 8);
    }

    #[test]
    fn removing_the_back_trims_the_table() {
        let mut t = table(&[5, 6, 7, 8]);
        t.remove(7);
        t.remove(8);
        assert_eq!((t.base, t.slots.len()), (5, 2));
        t.remove(6);
        t.remove(5);
        assert!(t.slots.is_empty());
        // An empty table rebases at the next insert.
        t.insert(uop(40));
        assert_eq!((t.base, t.slots.len()), (40, 1));
    }

    #[test]
    fn retired_and_squashed_ids_are_gone() {
        let mut t = table(&[3, 4, 5]);
        t.remove(3); // retired from the head
        t.remove(5); // squashed from the tail
        assert!(t.get(3).is_none() && t.get_mut(5).is_none());
        assert!(!t.contains(3) && t.contains(4));
        assert!(t.remove(3).is_none());
        // Ids never issued, below the base and past the back.
        assert!(t.get(0).is_none() && t.get(99).is_none());
    }

    #[test]
    fn len_counts_only_live_uops() {
        let mut t = table(&[1, 2, 3, 4, 5]);
        t.remove(2);
        t.remove(4);
        assert_eq!(t.len(), 3);
        assert_eq!(t.slots.len(), 5);
        t.clear();
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of id order")]
    fn inserting_below_the_back_panics() {
        let mut t = table(&[7, 8]);
        t.insert(uop(8));
    }
}
