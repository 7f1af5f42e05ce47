//! Event-driven scheduling: the structures that tell select which uops
//! are ready, without polling the reservation stations.
//!
//! A uop reaches its functional unit's *ready set* on the event that
//! makes it ready, never by being re-examined every cycle:
//!
//! * **Operands.** At dispatch a uop is filed under every source
//!   register whose producer has not executed yet. A producer fixes its
//!   result's timing when it executes, so when the last missing producer
//!   executes the uop's ready cycle is known: the largest
//!   [`avail_at`](crate::physreg::PhysFile::avail_at) of its sources at
//!   its own cluster, cross-cluster bypass included. Values that
//!   `write_arch` publishes (link registers at issue, `$v0` at syscall
//!   retire) wake their waiters the same way.
//! * **The wake wheel.** A ready cycle still in the future goes on a
//!   ring of per-cycle buckets; each cycle's bucket moves into the ready
//!   sets just before select.
//! * **Ready sets.** One bitset per functional unit over the slots of
//!   the uop ring ([`ReadySets`]): a wake sets a bit, select takes the
//!   first set bit at or after the slot of the oldest id in flight,
//!   wrapping around, which is the oldest ready uop. The execute phase
//!   visits only units whose set is not empty. A shadow memory op whose
//!   execution is deferred stays out until its shadow activates.
//! * **Parked loads.** A load the memory scheduler blocks leaves its
//!   ready set and is parked on the store that decided the verdict (the
//!   oldest store with an unknown address, else the youngest overlapping
//!   one). It returns to its ready set, before select, in the cycle that
//!   store gets its address, completes or retires — the only events that
//!   can change the verdict.
//! * **Unaddressed stores.** Stores still waiting for an address have a
//!   list of their own, so address generation never walks the whole
//!   store queue.
//! * **Completions** sit on a second ring, one bucket per cycle, sized
//!   from the configuration's longest latency.
//!
//! The per-register wait lists and both rings are linked lists in a slab
//! of nodes, so they cost a few allocations however many registers and
//! cycles they cover. Uop ids are never reused, so an entry left behind
//! by a squashed uop is skipped by id wherever it is met; ready sets and
//! station occupancy are updated eagerly when a uop is discarded.

use crate::config::SimConfig;
use crate::machine::Simulator;
use crate::physreg::{PhysReg, NEVER};
use crate::uop::{Uop, UopId, UopState};

/// Lists of uop ids under small integer keys: one singly linked list per
/// key, all in one slab of nodes with a free list, so any number of
/// lists costs two allocations and the slab only grows to the most ids
/// ever held at once. Pops come out last-in first-out.
#[derive(Debug)]
struct Lists {
    /// Per key: its first node, or [`NIL`].
    heads: Vec<u32>,
    /// (uop, next node) pairs, listed or on the free list.
    nodes: Vec<(UopId, u32)>,
    /// First free node, or [`NIL`].
    free: u32,
}

/// The end of a list.
const NIL: u32 = u32::MAX;

impl Lists {
    fn new(keys: usize) -> Lists {
        Lists {
            heads: vec![NIL; keys],
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Files `id` under `key`.
    fn push(&mut self, key: usize, id: UopId) {
        let node = (id, self.heads[key]);
        let i = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("list slab fits u32 indices")
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].1;
            self.nodes[i as usize] = node;
            i
        };
        self.heads[key] = i;
    }

    /// Removes and returns one id filed under `key`.
    fn pop(&mut self, key: usize) -> Option<UopId> {
        let i = self.heads[key];
        if i == NIL {
            return None;
        }
        let (id, next) = self.nodes[i as usize];
        self.heads[key] = next;
        self.nodes[i as usize].1 = self.free;
        self.free = i;
        Some(id)
    }

    fn clear(&mut self) {
        self.heads.iter_mut().for_each(|h| *h = NIL);
        self.nodes.clear();
        self.free = NIL;
    }
}

/// A ring of per-cycle lists of uop ids, for events at most `horizon`
/// cycles past the last cycle popped.
#[derive(Debug)]
pub(crate) struct Wheel {
    lists: Lists,
    mask: u64,
}

impl Wheel {
    /// A wheel that can hold events up to `horizon` cycles ahead.
    fn new(horizon: u64) -> Wheel {
        let n = (horizon + 1).next_power_of_two();
        Wheel {
            lists: Lists::new(n as usize),
            mask: n - 1,
        }
    }

    /// Files `id` under cycle `at`.
    pub(crate) fn push(&mut self, at: u64, id: UopId) {
        self.lists.push((at & self.mask) as usize, id);
    }

    /// Removes and returns one id filed under cycle `at`.
    pub(crate) fn pop(&mut self, at: u64) -> Option<UopId> {
        self.lists.pop((at & self.mask) as usize)
    }
}

/// Per functional unit, a bitset over the uop table's ring: uop `id` is
/// ready on its unit when bit `id & mask` of the unit's words is set (see
/// [`UopTable`](crate::uop::UopTable)). A ready uop is in flight, so its
/// id lies in the table's span, which fits in one lap of the ring: the
/// oldest ready uop is the first set bit at or after the slot of the
/// table's oldest id, wrapping around. The scan starts at the unit's
/// floor instead when that is younger: no ready uop of the unit is older
/// than the oldest one select last found, or than any added since. The
/// sets grow with the ring.
#[derive(Debug)]
pub(crate) struct ReadySets {
    /// `words` words per functional unit, unit after unit.
    bits: Vec<u64>,
    /// Words per unit: the ring's length over 64.
    words: usize,
    /// Per unit: its count and floor.
    units: Vec<Unit>,
    /// Bit `fu % 64` of word `fu / 64` is set while unit `fu`'s set is
    /// not empty.
    nonempty: Vec<u64>,
}

/// One functional unit's ready-set bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Unit {
    /// Ready uops.
    len: u32,
    /// No ready uop is older than this (`UopId::MAX` while the set is
    /// empty).
    floor: UopId,
}

impl Unit {
    const EMPTY: Unit = Unit {
        len: 0,
        floor: UopId::MAX,
    };
}

impl ReadySets {
    fn new(fus: usize) -> ReadySets {
        ReadySets {
            bits: Vec::new(),
            words: 0,
            units: vec![Unit::EMPTY; fus],
            nonempty: vec![0; fus.div_ceil(64)],
        }
    }

    /// The word index and bit of uop `id` in `fu`'s set.
    #[inline]
    fn bit(&self, fu: usize, id: UopId) -> (usize, u64) {
        let slot = id as usize & (self.words * 64 - 1);
        (fu * self.words + slot / 64, 1 << (slot % 64))
    }

    /// Adds uop `id` to `fu`'s set.
    fn insert(&mut self, fu: usize, id: UopId) {
        let (w, b) = self.bit(fu, id);
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            let unit = &mut self.units[fu];
            unit.len += 1;
            unit.floor = unit.floor.min(id);
            self.nonempty[fu / 64] |= 1 << (fu % 64);
        }
    }

    /// Removes uop `id` from `fu`'s set, if it is there.
    fn remove(&mut self, fu: usize, id: UopId) {
        if self.units[fu].len == 0 {
            return;
        }
        let (w, b) = self.bit(fu, id);
        if self.bits[w] & b != 0 {
            self.bits[w] &= !b;
            let unit = &mut self.units[fu];
            unit.len -= 1;
            if unit.len == 0 {
                *unit = Unit::EMPTY;
                self.nonempty[fu / 64] &= !(1 << (fu % 64));
            }
        }
    }

    /// Whether uop `id` is in `fu`'s set.
    #[cfg(test)]
    fn contains(&self, fu: usize, id: UopId) -> bool {
        self.units[fu].len > 0 && {
            let (w, b) = self.bit(fu, id);
            self.bits[w] & b != 0
        }
    }

    /// The first unit from `fu` on whose set is not empty.
    #[inline]
    fn next_nonempty(&self, fu: usize) -> Option<usize> {
        let mut w = fu / 64;
        let mut bits = *self.nonempty.get(w)? & (u64::MAX << (fu % 64));
        while bits == 0 {
            w += 1;
            bits = *self.nonempty.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The oldest uop in `fu`'s set, given `base`, the oldest id in
    /// flight.
    #[inline]
    fn oldest(&mut self, fu: usize, base: UopId) -> Option<UopId> {
        let unit = &mut self.units[fu];
        if unit.len == 0 {
            return None;
        }
        let set = &self.bits[fu * self.words..(fu + 1) * self.words];
        let mask = self.words * 64 - 1;
        let from = base.max(unit.floor);
        let start = from as usize & mask;
        let (w0, b0) = (start / 64, start % 64);
        // From `from`'s slot up, wrapping around; a non-empty set has a
        // set bit, at the latest below that slot in its own word.
        let (mut w, mut bits) = (w0, set[w0] & (u64::MAX << b0));
        while bits == 0 {
            w = (w + 1) & (self.words - 1);
            bits = set[w];
        }
        let slot = w * 64 + bits.trailing_zeros() as usize;
        let id = from + (slot.wrapping_sub(start) & mask) as UopId;
        unit.floor = id;
        Some(id)
    }

    /// Re-lays the sets out for a ring of `slots` slots whose oldest id in
    /// flight is `base`, if the ring grew since the last call.
    #[inline]
    fn fit(&mut self, slots: usize, base: UopId) {
        if slots != self.words * 64 {
            self.relayout(slots / 64, base);
        }
    }

    /// Re-lays the sets out over `words` words per unit.
    #[cold]
    fn relayout(&mut self, words: usize, base: UopId) {
        let fus = self.units.len();
        let old = std::mem::replace(&mut self.bits, vec![0; words * fus]);
        let old_words = std::mem::replace(&mut self.words, words);
        if old_words == 0 {
            // The ring's first allocation: no bit was set before it.
            return;
        }
        let old_mask = old_words * 64 - 1;
        let start = base as usize & old_mask;
        for fu in 0..fus {
            for (w, &bits) in old[fu * old_words..(fu + 1) * old_words].iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let id = base + (slot.wrapping_sub(start) & old_mask) as UopId;
                    let (nw, b) = self.bit(fu, id);
                    self.bits[nw] |= b;
                }
            }
        }
    }

    fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.units.iter_mut().for_each(|u| *u = Unit::EMPTY);
        self.nonempty.iter_mut().for_each(|w| *w = 0);
    }
}

/// The scheduler's state; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Per physical register: the uops still waiting for its producer.
    waiters: Lists,
    /// Operand-ready uops by the cycle their operands arrive.
    wakes: Wheel,
    /// The last cycle whose wake bucket moved into the ready sets.
    drained: u64,
    /// Per functional unit: the ready uops.
    ready: ReadySets,
    /// Per functional unit: uops in its reservation station (waiting,
    /// ready, deferred or parked).
    occupancy: Vec<usize>,
    /// Blocked loads, as (deciding store, load).
    parked: Vec<(UopId, UopId)>,
    /// Queued stores without an address, in id order.
    pub(crate) unaddressed: Vec<UopId>,
    /// Executing uops by completion cycle.
    pub(crate) completions: Wheel,
    /// The completing uops of the current cycle, sorted (kept to reuse
    /// its allocation).
    pub(crate) due: Vec<UopId>,
}

impl Scheduler {
    /// Empty state for `cfg`'s machine: the completion ring covers its
    /// longest latency, the wake ring that plus the cross-cluster hop.
    pub(crate) fn new(cfg: &SimConfig) -> Scheduler {
        let longest = longest_latency(cfg);
        Scheduler {
            waiters: Lists::new(cfg.phys_regs),
            wakes: Wheel::new(longest + u64::from(cfg.cross_cluster_latency)),
            drained: 0,
            ready: ReadySets::new(cfg.num_fus()),
            occupancy: vec![0; cfg.num_fus()],
            parked: Vec::new(),
            unaddressed: Vec::new(),
            completions: Wheel::new(longest),
            due: Vec::new(),
        }
    }

    /// Uops in functional unit `fu`'s reservation station.
    pub(crate) fn occupancy(&self, fu: u8) -> usize {
        self.occupancy[fu as usize]
    }

    /// Forgets every uop (self-repair squashes the whole machine).
    pub(crate) fn clear(&mut self) {
        self.waiters.clear();
        self.wakes.lists.clear();
        self.ready.clear();
        self.occupancy.iter_mut().for_each(|n| *n = 0);
        self.parked.clear();
        self.unaddressed.clear();
        self.completions.lists.clear();
    }

    /// Drops the entries of uops that are no longer in flight from the
    /// lists that are not cleaned up eagerly.
    pub(crate) fn retain_live(&mut self, live: impl Fn(UopId) -> bool) {
        self.parked
            .retain(|&(store, load)| live(store) && live(load));
        self.unaddressed.retain(|&id| live(id));
    }

    /// The first functional unit from `fu` on with a ready uop.
    pub(crate) fn next_ready_unit(&self, fu: usize) -> Option<usize> {
        self.ready.next_nonempty(fu)
    }

    /// The oldest uop in functional unit `fu`'s ready set; `base` is the
    /// oldest id in flight.
    pub(crate) fn oldest_ready(&mut self, fu: usize, base: UopId) -> Option<UopId> {
        self.ready.oldest(fu, base)
    }

    /// Keeps the ready sets laid out over the uop ring, which has `slots`
    /// slots and `base` as its oldest id: called after every insert, so the
    /// sets grow when the ring does.
    pub(crate) fn fit_ring(&mut self, slots: usize, base: UopId) {
        self.ready.fit(slots, base);
    }

    /// Removes uop `id`, `fu`'s oldest ready uop, which select sends to
    /// the unit, so it also leaves the station.
    pub(crate) fn take_oldest(&mut self, fu: usize, id: UopId) {
        self.occupancy[fu] -= 1;
        self.ready.remove(fu, id);
    }

    /// Parks load `id`, `fu`'s oldest ready uop, which `store` blocks.
    pub(crate) fn park_oldest(&mut self, fu: usize, id: UopId, store: UopId) {
        self.ready.remove(fu, id);
        self.parked.push((store, id));
    }

    /// `u` leaves the machine unexecuted (squash or shadow discard): it
    /// leaves its station and ready set.
    pub(crate) fn unschedule(&mut self, u: &Uop) {
        if u.state != UopState::Waiting || u.is_system() {
            return;
        }
        let fu = u.fu as usize;
        self.occupancy[fu] -= 1;
        self.ready.remove(fu, u.id);
    }
}

/// The longest latency any uop can have under `cfg`: a fixed class
/// latency, or address generation plus a miss all the way to DRAM (or
/// the one-cycle forward, if the hierarchy is faster than that).
fn longest_latency(cfg: &SimConfig) -> u64 {
    let l = cfg.latency;
    let t = cfg.hierarchy.timings;
    let load = l.agen + (t.l1_hit + t.l2_hit + t.dram).max(1);
    [l.int_alu, l.shift, l.mul, l.div, l.branch, load]
        .into_iter()
        .max()
        .map_or(1, u64::from)
}

impl Simulator {
    /// Enters uop `id` into its functional unit's reservation station.
    pub(crate) fn dispatch(&mut self, id: UopId) {
        let u = &self.uops[id];
        self.sched.occupancy[u.fu as usize] += 1;
        let srcs = u.srcs;
        let mut missing = false;
        for (k, p) in srcs.iter().enumerate() {
            let Some(p) = *p else { continue };
            let repeat = k == 1 && srcs[0] == Some(p);
            if self.phys.done_at(p) == NEVER && !repeat {
                self.sched.waiters.push(p.0 as usize, id);
                missing = true;
            }
        }
        if !missing {
            let at = self.ready_at(&self.uops[id]);
            self.schedule(id, at);
        }
    }

    /// Allocates a physical register for a new producer. Anything still
    /// filed under it waited for an earlier allocation and is gone, so
    /// its list starts empty and stays bounded by the window.
    pub(crate) fn alloc_phys(&mut self) -> PhysReg {
        let p = self.phys.alloc();
        while self.sched.waiters.pop(p.0 as usize).is_some() {}
        p
    }

    /// When `u`'s operands all are (or will be) usable at its cluster.
    fn ready_at(&self, u: &Uop) -> u64 {
        let cluster = u.cluster;
        u.srcs
            .iter()
            .flatten()
            .map(|&p| self.phys.avail_at(p, cluster))
            .max()
            .unwrap_or(0)
    }

    /// Whether every producer of `u`'s operands has executed.
    fn operands_scheduled(&self, u: &Uop) -> bool {
        u.srcs
            .iter()
            .flatten()
            .all(|&p| self.phys.done_at(p) != NEVER)
    }

    /// Files operand-ready uop `id`, whose operands arrive at `at`: into
    /// its ready set if that cycle's bucket was already drained, on the
    /// wake wheel otherwise.
    fn schedule(&mut self, id: UopId, at: u64) {
        if at <= self.sched.drained {
            self.make_ready(id);
        } else {
            self.sched.wakes.push(at, id);
        }
    }

    /// Puts uop `id` into its functional unit's ready set, unless it has
    /// left the station or is a deferred shadow memory op.
    fn make_ready(&mut self, id: UopId) {
        let Some(u) = self.uops.get(id) else { return };
        if u.state != UopState::Waiting || u.mem_deferred {
            return;
        }
        self.sched.ready.insert(u.fu as usize, id);
    }

    /// Publishes an everywhere-visible value in `p` (a link register at
    /// issue, `$v0` at syscall retire) and wakes its waiters.
    pub(crate) fn publish_arch(&mut self, p: PhysReg, v: u32) {
        self.phys.write_arch(p, v);
        self.wake_waiters(p);
    }

    /// Register `p` now has a producer with known timing: every uop that
    /// was waiting only for it gets its ready cycle.
    pub(crate) fn wake_waiters(&mut self, p: PhysReg) {
        while let Some(id) = self.sched.waiters.pop(p.0 as usize) {
            let Some(u) = self.uops.get(id) else { continue };
            if u.state == UopState::Waiting && self.operands_scheduled(u) {
                let at = self.ready_at(u);
                self.schedule(id, at);
            }
        }
    }

    /// Moves this cycle's wake bucket into the ready sets.
    pub(crate) fn drain_wakes(&mut self) {
        let now = self.cycle;
        while let Some(id) = self.sched.wakes.pop(now) {
            self.make_ready(id);
        }
        self.sched.drained = now;
    }

    /// A shadow memory op's deferral ended: it joins its ready set if its
    /// operands have already arrived (otherwise a wake is still pending).
    pub(crate) fn undefer(&mut self, id: UopId) {
        let u = &self.uops[id];
        if u.state == UopState::Waiting
            && self.operands_scheduled(u)
            && self.ready_at(u) <= self.sched.drained
        {
            self.make_ready(id);
        }
    }

    /// Store `store` got its address, completed or retired: the loads
    /// parked on it go back to their ready sets to be judged again.
    pub(crate) fn wake_parked(&mut self, store: UopId) {
        let mut i = 0;
        while let Some(&(s, load)) = self.sched.parked.get(i) {
            if s == store {
                self.sched.parked.swap_remove(i);
                self.make_ready(load);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan};
    use tracefill_core::config::OptConfig;
    use tracefill_isa::asm::assemble;
    use tracefill_isa::Program;
    use tracefill_workloads::gen::{generate, PatternMix};

    impl Simulator {
        /// Checks the scheduler against the uop table between cycles: the
        /// station counts, the ready sets, and that no ready uop was lost.
        fn check_sched(&self) {
            let mut occupancy = vec![0; self.cfg.num_fus()];
            for u in self.uops.values() {
                if u.state != UopState::Waiting || u.is_system() {
                    continue;
                }
                occupancy[u.fu as usize] += 1;
                let fu = u.fu as usize;
                let listed = self.sched.ready.contains(fu, u.id);
                let parked = self.sched.parked.iter().any(|&(_, l)| l == u.id);
                let due = !u.mem_deferred
                    && self.operands_scheduled(u)
                    && self.ready_at(u) <= self.sched.drained;
                assert_eq!(
                    listed || parked,
                    due,
                    "uop {} at cycle {}",
                    u.id,
                    self.cycle
                );
                assert!(!(listed && parked), "uop {} listed twice", u.id);
            }
            assert_eq!(occupancy, self.sched.occupancy);
            for &(store, load) in &self.sched.parked {
                if self.uops.contains(load) {
                    assert!(
                        self.stores.contains(&store),
                        "load {load} parked on gone store"
                    );
                }
            }
            assert_eq!(self.sched.drained, self.cycle);
        }
    }

    /// Runs `prog` to its exit, checking the scheduler after every cycle.
    fn run_checked(prog: &Program, cfg: SimConfig) -> Simulator {
        let mut sim = Simulator::new(prog, cfg);
        while sim.halted().is_none() {
            sim.step_cycle().expect("the run stays healthy");
            if sim.halted().is_none() {
                sim.check_sched();
            }
        }
        sim
    }

    #[test]
    fn scheduler_agrees_with_the_uop_table_every_cycle() {
        // Store-to-load chains behind a full window.
        let gen = generate(&PatternMix::default(), 24, 40, 11).unwrap();
        run_checked(&gen, SimConfig::default());
        run_checked(&gen, SimConfig::with_opts(OptConfig::all()));
    }

    #[test]
    fn squash_discard_and_activation_leave_no_live_wait_entry() {
        // A random branch: recoveries, discarded shadows, and activated
        // shadows whose memory ops were deferred.
        let prog = assemble(
            r#"
        .text
main:   li   $s0, 400
        li   $s2, 12345
        la   $s3, buf
        nop
        nop
        nop
        nop
loop:   li   $t9, 1103515245
        mul  $s2, $s2, $t9
        addi $s2, $s2, 12345
        srl  $t0, $s2, 13
        andi $t0, $t0, 1
        beqz $t0, skip
        sw   $s0, 0($s3)
        lw   $t1, 4($s3)
        add  $s1, $s1, $t1
skip:   lw   $t2, 0($s3)
        add  $t2, $t2, $s1
        sw   $t2, 4($s3)
        addi $s0, $s0, -1
        bgtz $s0, loop
        li   $v0, 10
        syscall
        .data
buf:    .space 64
"#,
        )
        .unwrap();
        let sim = run_checked(&prog, SimConfig::default());
        let s = sim.stats();
        assert!(s.inactive_rescues > 0 && s.discarded_inactive_uops > 0);
        assert!(s.squashed_uops > 0);
    }

    #[test]
    fn repair_squash_leaves_no_live_wait_entry() {
        let prog = generate(&PatternMix::default(), 24, 200, 11).unwrap();
        let mut cfg = SimConfig::with_opts(OptConfig::all());
        cfg.fill.strict_verify = false;
        cfg.self_repair.enabled = true;
        cfg.fault_plan = Some(FaultPlan::generate(
            5,
            16,
            64,
            &[FaultKind::BitFlipLookup, FaultKind::CorruptImm],
        ));
        let sim = run_checked(&prog, cfg);
        assert!(!sim.repairs().is_empty());
    }

    /// The bitset ready sets against a sorted `Vec` per unit, over a real
    /// uop ring: issues with id gaps (which grow the ring, also while
    /// the live ids wrap around it), wakes, selects, parked loads, squash
    /// unschedules, retires and clears. Every unit's oldest ready uop and
    /// every membership match the model after every step.
    #[test]
    fn ready_sets_match_a_sorted_model() {
        use crate::uop::{tests::uop, UopTable};
        use tracefill_util::prop::{check, coin, range};
        const FUS: usize = 3;
        check("ready_sets_match_a_sorted_model", 256, |rng| {
            let mut table = UopTable::default();
            let mut sets = ReadySets::new(FUS);
            let mut ready: Vec<Vec<UopId>> = vec![Vec::new(); FUS];
            // In the table but not ready: waiting (or parked), and issued.
            let mut waiting: Vec<(UopId, usize)> = Vec::new();
            let mut issued: Vec<UopId> = Vec::new();
            let mut next = rng.range_u64(0, 1 << 20);
            let pick =
                |rng: &mut tracefill_util::SplitMix64, n: usize| range(rng, 0, n as i32) as usize;
            for _ in 0..400 {
                match range(rng, 0, 20) {
                    0..=6 => {
                        let gap = if range(rng, 0, 10) == 0 {
                            range(rng, 0, 300)
                        } else {
                            range(rng, 0, 3)
                        };
                        next += gap as UopId;
                        table.insert(uop(next));
                        sets.fit(table.ring_len(), table.base());
                        waiting.push((next, pick(rng, FUS)));
                        next += 1;
                    }
                    7..=10 if !waiting.is_empty() => {
                        let (id, fu) = waiting.swap_remove(pick(rng, waiting.len()));
                        sets.insert(fu, id);
                        let pos = ready[fu].binary_search(&id).unwrap_err();
                        ready[fu].insert(pos, id);
                    }
                    11..=13 => {
                        let fu = pick(rng, FUS);
                        if let Some(&id) = ready[fu].first() {
                            ready[fu].remove(0);
                            sets.remove(fu, id);
                            if coin(rng) {
                                issued.push(id);
                            } else {
                                waiting.push((id, fu));
                            }
                        }
                    }
                    14 => {
                        let fu = pick(rng, FUS);
                        if !ready[fu].is_empty() {
                            let k = pick(rng, ready[fu].len());
                            let id = ready[fu].remove(k);
                            sets.remove(fu, id);
                            table.remove(id);
                        }
                    }
                    15 if !waiting.is_empty() => {
                        let (id, fu) = waiting.swap_remove(pick(rng, waiting.len()));
                        sets.remove(fu, id);
                        table.remove(id);
                    }
                    16..=18 if !issued.is_empty() => {
                        table.remove(issued.swap_remove(pick(rng, issued.len())));
                    }
                    19 if range(rng, 0, 8) == 0 => {
                        table.clear();
                        sets.clear();
                        ready.iter_mut().for_each(Vec::clear);
                        waiting.clear();
                        issued.clear();
                    }
                    _ => {}
                }
                let units: Vec<usize> = (0..FUS).filter(|&fu| !ready[fu].is_empty()).collect();
                for fu in 0..FUS {
                    let next = units.iter().copied().find(|&u| u >= fu);
                    assert_eq!(sets.next_nonempty(fu), next);
                }
                for (fu, want) in ready.iter().enumerate() {
                    assert_eq!(sets.oldest(fu, table.base()), want.first().copied());
                    assert_eq!(sets.units[fu].len as usize, want.len());
                    for &id in want {
                        assert!(sets.contains(fu, id), "uop {id} lost from unit {fu}");
                    }
                }
                for &(id, fu) in &waiting {
                    assert!(!sets.contains(fu, id), "uop {id} ready too early");
                }
            }
        });
    }

    #[test]
    fn rings_cover_the_longest_latency() {
        let mut cfg = SimConfig::default();
        assert_eq!(longest_latency(&cfg), 58);
        cfg.latency.div = 90;
        assert_eq!(longest_latency(&cfg), 90);
        let wheel = Wheel::new(58);
        assert_eq!(wheel.mask, 63);
    }
}
