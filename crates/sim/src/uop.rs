//! In-flight micro-operations and fetch bundles.

use crate::physreg::PhysReg;
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

    #[test]
    fn uop_flags() {
        let u = Uop {
            id: 0,
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
        };
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
}
