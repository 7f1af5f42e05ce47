//! In-flight micro-operations and fetch bundles.

use crate::physreg::PhysReg;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Index;
use std::sync::Arc;
use tracefill_core::segment::{Line, ScAdd, SegSlot, SrcRef};
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
    /// Access size in bytes (1, 2 or 4).
    pub size: u8,
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
    /// Head of a bundle fetched after a trace-cache miss: an address the
    /// fetch engine looked up and missed, where the fill unit starts a
    /// new segment.
    pub miss_head: bool,
    /// Marked register move, completed in rename: the destination
    /// mapping is an alias of the source.
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
    /// The cluster of `fu`, worked out once at issue.
    pub cluster: u8,
    /// The seg id of the trace line this uop was fetched from (0 on the
    /// instruction-cache path), for the segment ledger and the
    /// divergence ring. The line itself is its bundle's entry in the
    /// simulator's in-flight lines, where a divergence report finds the
    /// segment and the passes that touched it.
    pub seg: u64,
}

// A uop is dropped in place by squash, discard and retire, so dropping
// one must cost nothing: no field may own a heap object or a reference
// count.
const _: () = assert!(!std::mem::needs_drop::<Uop>());

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
        self.from_tc.then_some(self.seg)
    }
}

/// Every in-flight uop, indexed by id.
///
/// Ids come from a counter that only grows, so the table is a ring of
/// slots, a power of two long, covering the ids from the oldest live one
/// (`base`) to one past the youngest (`end`): uop `id` lives in slot
/// `id & mask`. A lookup is one compare and one mask, an insert lands at
/// or past `end` (doubling the ring when the span would not fit), and a
/// removal drops the uop where it lies, then moves `base` and `end` in
/// past empty slots. A uop is built once, at its insert, and never moves
/// until the ring grows. The ring is the smallest power of two (at least
/// 64 slots) that held the widest span of live ids so far, however many
/// uops a squash discards.
#[derive(Debug, Default)]
pub(crate) struct UopTable {
    /// The oldest id in the span; its slot is occupied unless the span
    /// is empty.
    base: UopId,
    /// One past the youngest id in the span.
    end: UopId,
    /// `slots[id & (slots.len() - 1)]` holds uop `id` for ids in
    /// `base..end`; every other slot is empty.
    slots: Vec<Option<Uop>>,
    live: usize,
}

impl UopTable {
    /// The smallest ring the table allocates.
    const MIN_SLOTS: usize = 64;

    fn slot(&self, id: UopId) -> Option<usize> {
        (id.wrapping_sub(self.base) < self.end - self.base)
            .then(|| id as usize & (self.slots.len() - 1))
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
    #[inline]
    pub(crate) fn insert(&mut self, uop: Uop) {
        let id = uop.id;
        if self.base == self.end {
            self.base = id;
            self.end = id;
        }
        assert!(id >= self.end, "uop {id} inserted out of id order");
        let span = usize::try_from(id - self.base + 1).expect("id span fits usize");
        if span > self.slots.len() {
            self.grow(span);
        }
        let i = id as usize & (self.slots.len() - 1);
        self.end = id + 1;
        self.slots[i] = Some(uop);
        self.live += 1;
    }

    /// Re-lays the ring out long enough for `span` ids: at least twice
    /// as long, since the ring is a power of two shorter than `span`.
    #[cold]
    fn grow(&mut self, span: usize) {
        let len = span.next_power_of_two().max(Self::MIN_SLOTS);
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        let old = self.slots.len().wrapping_sub(1);
        for id in self.base..self.end {
            slots[id as usize & (len - 1)] = self.slots[id as usize & old].take();
        }
        self.slots = slots;
    }

    /// Drops the uop with this id where it lies, if it is in flight.
    pub(crate) fn remove(&mut self, id: UopId) {
        let Some(i) = self.slot(id) else { return };
        if self.slots[i].is_none() {
            return;
        }
        self.slots[i] = None;
        self.live -= 1;
        let mask = self.slots.len() - 1;
        while self.base < self.end && self.slots[self.base as usize & mask].is_none() {
            self.base += 1;
        }
        while self.end > self.base && self.slots[(self.end - 1) as usize & mask].is_none() {
            self.end -= 1;
        }
    }

    /// The oldest uop in flight.
    pub(crate) fn oldest(&self) -> Option<&Uop> {
        self.get(self.base)
    }

    /// The oldest id in the span.
    pub(crate) fn base(&self) -> UopId {
        self.base
    }

    /// The ring's length in slots.
    pub(crate) fn ring_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of uops in flight.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Every uop in flight, oldest first.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Uop> {
        let mask = self.slots.len().wrapping_sub(1);
        (self.base..self.end).filter_map(move |id| self.slots[id as usize & mask].as_ref())
    }

    /// Drops every uop.
    pub(crate) fn clear(&mut self) {
        let mask = self.slots.len().wrapping_sub(1);
        for id in self.base..self.end {
            self.slots[id as usize & mask] = None;
        }
        self.base = self.end;
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

/// The trace lines of the bundles that have uops in flight, each under
/// the id of the bundle's first uop, in id order.
///
/// A bundle's uops take consecutive ids, so the line of trace-cache uop
/// `id` is the last entry whose first id is at most `id`. Issue pushes a
/// bundle's line, moving it out of the bundle, when the bundle's first
/// uop issues; retirement drops the lines whose uops have all left; a
/// squash drops the lines of the bundles issued after its anchor; and a
/// self-repair squash drops them all.
#[derive(Debug, Default)]
pub(crate) struct InFlightLines(VecDeque<(UopId, Arc<Line>)>);

impl InFlightLines {
    /// Adds the line of a bundle whose first uop is `first`.
    pub(crate) fn push(&mut self, first: UopId, line: Arc<Line>) {
        debug_assert!(self.0.back().is_none_or(|&(f, _)| f < first));
        self.0.push_back((first, line));
    }

    /// The line trace-cache uop `id` was fetched from.
    pub(crate) fn of(&self, id: UopId) -> Option<&Line> {
        let i = self.0.partition_point(|&(first, _)| first <= id);
        Some(&self.0.get(i.checked_sub(1)?)?.1)
    }

    /// The most recently pushed line.
    pub(crate) fn last(&self) -> Option<&Line> {
        self.0.back().map(|(_, line)| &**line)
    }

    /// Drops the lines of bundles whose first uop is younger than
    /// `anchor`.
    pub(crate) fn truncate_after(&mut self, anchor: UopId) {
        while self.0.back().is_some_and(|&(first, _)| first > anchor) {
            self.0.pop_back();
        }
    }

    /// Drops the lines none of whose uops are in flight, given the
    /// oldest uop in flight. Uops leave a bundle from the front (retire)
    /// or as a suffix (squash, shadow discard), so a bundle has uops in
    /// flight exactly when its first uop is younger than the oldest, or
    /// the oldest is one of its own: a trace-cache uop below the next
    /// bundle's first id.
    pub(crate) fn prune(&mut self, oldest: Option<&Uop>) {
        let Some(oldest) = oldest else {
            self.0.clear();
            return;
        };
        while let Some(&(first, _)) = self.0.front() {
            let next = self.0.get(1).map(|&(f, _)| f);
            let own = oldest.from_tc && next.is_none_or(|n| oldest.id < n);
            if first > oldest.id || own {
                break;
            }
            self.0.pop_front();
        }
    }

    /// Drops every line.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Every line with its bundle's first uop id, oldest first.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (UopId, &Line)> {
        self.0.iter().map(|(first, line)| (*first, &**line))
    }
}

/// Per-branch fetch-time snapshots used to build checkpoints.
#[derive(Debug)]
pub(crate) struct BranchFetchMeta {
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

/// Where a fetched instruction comes from.
#[derive(Debug)]
pub(crate) enum SlotSource {
    /// This slot of its bundle's trace line. Issue reads the
    /// instruction's executed form (opcode, immediate, sources, move and
    /// scaled-add marks) from the line itself; the uop keeps only the
    /// line's seg id.
    Line(u8),
    /// An instruction the instruction-cache path decoded at a PC.
    Raw(u32, Instr),
}

/// One slot of a fetch bundle, uniform across the trace-cache and
/// instruction-cache paths. Issue moves it out of its bundle into a uop.
#[derive(Debug)]
pub(crate) struct FetchSlot {
    /// The instruction.
    pub src: SlotSource,
    /// Issue slot (functional unit) assignment.
    pub fu: u8,
    /// First instruction of a bundle fetched after a trace-cache miss —
    /// i.e. an address the fetch engine actually looked up and missed.
    /// The fill unit starts new segments at these addresses so stored
    /// segments answer to real fetch addresses.
    pub miss_head: bool,
    /// Inactive (past the divergence point of the line).
    pub inactive: bool,
    /// Branch metadata.
    pub branch: Option<BranchFetchMeta>,
}

impl SlotSource {
    /// The instruction as issue sees it: its slot of `line`, its
    /// bundle's trace line, or, for a raw instruction, a one-slot line
    /// whose sources are all live-ins.
    pub(crate) fn line<'a>(&'a self, line: Option<&'a Line>) -> Cow<'a, SegSlot> {
        match self {
            SlotSource::Line(i) => {
                let line = line.expect("a trace-cache slot's bundle has a line");
                Cow::Borrowed(&line.slots[*i as usize])
            }
            &SlotSource::Raw(pc, instr) => {
                let mut srcs = [None, None];
                for (k, r) in instr.srcs().enumerate() {
                    srcs[k] = Some(SrcRef::LiveIn(r));
                }
                Cow::Owned(SegSlot {
                    pc,
                    orig: instr,
                    op: instr.op,
                    imm: instr.imm,
                    srcs,
                    dest: instr.dest(),
                    block: 0,
                    live_out: instr.dest().is_some(),
                    is_move: false,
                    move_src: None,
                    scadd: None,
                    taken: None,
                    reassociated: false,
                })
            }
        }
    }
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
#[derive(Debug)]
pub(crate) struct FetchBundle {
    /// The trace line the slots come from (`None` on the
    /// instruction-cache path), held once for the whole bundle until its
    /// first uop issues and the line moves into the in-flight lines.
    pub line: Option<Arc<Line>>,
    /// Slots not yet issued, in original program order. Issue pops them
    /// from the front; the emptied buffer goes back to fetch.
    pub slots: VecDeque<FetchSlot>,
    /// Index of the divergence branch, if the line's embedded path departs
    /// from the predictions (slots after it are inactive).
    pub diverge_at: Option<usize>,
    /// Where fetch resumes along the shadow path if it is activated.
    /// (Activation rebuilds the shadow's return-stack and history effects
    /// by walking its uops.)
    pub shadow_resume: ShadowResume,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tracefill_isa::instr::NOP;
    use tracefill_util::prop::{check, coin, range};

    /// A waiting uop with this id on unit 0.
    pub(crate) fn uop(id: UopId) -> Uop {
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
            cluster: 0,
            seg: 0,
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
        t.remove(11);
        t.remove(12);
        assert_eq!(t.len(), 2);
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
        assert_eq!((t.base, t.end), (8, 9));
        assert_eq!(t[8].id, 8);
    }

    #[test]
    fn removing_the_back_trims_the_table() {
        let mut t = table(&[5, 6, 7, 8]);
        t.remove(7);
        t.remove(8);
        assert_eq!((t.base, t.end), (5, 7));
        t.remove(6);
        t.remove(5);
        assert_eq!(t.base, t.end, "empty");
        // An empty table rebases at the next insert.
        t.insert(uop(40));
        assert_eq!((t.base, t.end), (40, 41));
    }

    #[test]
    fn retired_and_squashed_ids_are_gone() {
        let mut t = table(&[3, 4, 5]);
        t.remove(3); // retired from the head
        t.remove(5); // squashed from the tail
        assert!(t.get(3).is_none() && t.get_mut(5).is_none());
        assert!(!t.contains(3) && t.contains(4));
        t.remove(3);
        assert_eq!(t.len(), 1, "removing a dead id changes nothing");
        // Ids never issued, below the base and past the back.
        assert!(t.get(0).is_none() && t.get(99).is_none());
    }

    #[test]
    fn len_counts_only_live_uops() {
        let mut t = table(&[1, 2, 3, 4, 5]);
        t.remove(2);
        t.remove(4);
        assert_eq!(t.len(), 3);
        assert_eq!(t.end - t.base, 5);
        t.clear();
        assert_eq!(t.len(), 0);
    }

    /// The table against a `BTreeMap` model: in-order inserts with id
    /// gaps (some wide enough to grow the ring while its span wraps),
    /// removals at the front, in the middle, at the back and of dead
    /// ids, and clears. After every step `len`, `values` order, `get` and
    /// `contains` agree with the model around the live span.
    #[test]
    fn table_matches_a_model() {
        check("uop_table_matches_a_model", 256, |rng| {
            let mut t = UopTable::default();
            let mut model: BTreeMap<UopId, ()> = BTreeMap::new();
            let mut next: UopId = rng.range_u32(0, 1 << 20) as UopId;
            for _ in 0..300 {
                match range(rng, 0, 16) {
                    0..=6 => {
                        let gap = if range(rng, 0, 8) == 0 {
                            range(rng, 0, 200)
                        } else {
                            range(rng, 0, 3)
                        };
                        next += gap as UopId;
                        t.insert(uop(next));
                        model.insert(next, ());
                        next += 1;
                    }
                    7..=13 if !model.is_empty() => {
                        let id = match range(rng, 0, 4) {
                            0 => *model.keys().next().unwrap(),
                            1 => *model.keys().next_back().unwrap(),
                            _ => {
                                let k = range(rng, 0, model.len() as i32) as usize;
                                *model.keys().nth(k).unwrap()
                            }
                        };
                        t.remove(id);
                        model.remove(&id);
                    }
                    14 => {
                        // A dead or never-issued id.
                        let id = next.saturating_sub(range(rng, 0, 300) as UopId);
                        if !model.contains_key(&id) {
                            t.remove(id);
                        }
                    }
                    15 if coin(rng) => {
                        t.clear();
                        model.clear();
                    }
                    _ => {}
                }
                assert_eq!(t.len(), model.len());
                let ids: Vec<UopId> = t.values().map(|u| u.id).collect();
                let want: Vec<UopId> = model.keys().copied().collect();
                assert_eq!(ids, want);
                let lo = model.keys().next().map_or(next, |&k| k).saturating_sub(3);
                for id in lo..next + 3 {
                    assert_eq!(t.contains(id), model.contains_key(&id), "id {id}");
                    assert_eq!(t.get(id).map(|u| u.id), model.get(&id).map(|_| id));
                }
            }
        });
    }

    /// A line of one slot with this seg id.
    fn line(seg_id: u64) -> Arc<Line> {
        let slot = SlotSource::Raw(0x40_0000, NOP).line(None).into_owned();
        let seg = tracefill_core::segment::Segment {
            start_pc: slot.pc,
            slots: vec![slot],
            issue_pos: vec![0],
            branches: Vec::new(),
            end: tracefill_core::segment::SegEnd::Full,
            opt_counts: Default::default(),
            fault: None,
        };
        Arc::new(Line {
            seg: Arc::new(seg),
            provenance: tracefill_core::segment::Provenance {
                seg_id,
                build_cycle: 0,
            },
        })
    }

    fn seg_ids(lines: &InFlightLines) -> Vec<(UopId, u64)> {
        lines
            .iter()
            .map(|(f, l)| (f, l.provenance.seg_id))
            .collect()
    }

    #[test]
    fn in_flight_lines_map_ids_to_their_bundle() {
        let mut lines = InFlightLines::default();
        lines.push(10, line(1));
        lines.push(14, line(2));
        lines.push(20, line(1));
        let seg = |id| lines.of(id).map(|l| l.provenance.seg_id);
        assert_eq!(
            [seg(9), seg(10), seg(13), seg(14), seg(19), seg(99)],
            [None, Some(1), Some(1), Some(2), Some(2), Some(1)]
        );
        assert_eq!(lines.last().map(|l| l.provenance.seg_id), Some(1));
        lines.truncate_after(14);
        assert_eq!(seg_ids(&lines), [(10, 1), (14, 2)]);
        lines.clear();
        assert!(lines.last().is_none());
    }

    #[test]
    fn pruning_keeps_exactly_the_bundles_with_uops_in_flight() {
        let tc = |id: UopId| Uop {
            from_tc: true,
            ..uop(id)
        };
        let mut lines = InFlightLines::default();
        lines.push(10, line(1));
        lines.push(14, line(2));
        // The oldest uop in flight is the first line's own: both stay.
        lines.prune(Some(&tc(12)));
        assert_eq!(seg_ids(&lines), [(10, 1), (14, 2)]);
        // An instruction-cache uop between the lines: the first is done.
        lines.prune(Some(&uop(13)));
        assert_eq!(seg_ids(&lines), [(14, 2)]);
        // Older than every line: nothing of theirs has left.
        lines.prune(Some(&uop(3)));
        assert_eq!(seg_ids(&lines), [(14, 2)]);
        // Past the last line on the instruction-cache path, then empty.
        lines.prune(Some(&uop(30)));
        assert!(lines.iter().next().is_none());
        lines.push(40, line(3));
        lines.prune(None);
        assert!(lines.iter().next().is_none());
    }

    /// Every in-flight instruction is built in, moved through or checked
    /// against these, so a field that bloats one shows in host speed.
    /// Changing a size is fine when it is meant: update it here.
    #[test]
    fn hot_structs_keep_their_sizes() {
        use std::mem::size_of;
        let sizes = [
            ("Uop", size_of::<Uop>(), 128),
            ("FetchSlot", size_of::<FetchSlot>(), 48),
            ("Checkpoint", size_of::<crate::machine::Checkpoint>(), 88),
            ("Lockstep", size_of::<crate::retire::Lockstep>(), 24),
        ];
        for (name, size, pinned) in sizes {
            assert_eq!(size, pinned, "{name} is {size} bytes, pinned at {pinned}");
        }
    }

    #[test]
    #[should_panic(expected = "out of id order")]
    fn inserting_below_the_back_panics() {
        let mut t = table(&[7, 8]);
        t.insert(uop(8));
    }
}
