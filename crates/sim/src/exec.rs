//! Schedule/execute stage: per-FU selection, the conservative memory
//! scheduler, value computation, and the completion phase that resolves
//! branches.
//!
//! Nothing here polls the reservation stations. Select reads each
//! functional unit's ready set, which [`crate::sched`] fills on the
//! events that make a uop ready: its last operand's producer executing,
//! a parked load's deciding store getting its address, completing or
//! retiring, and a shadow's activation. Address generation walks only
//! the stores still waiting for an address, and completions come off a
//! ring of per-cycle buckets.

use crate::machine::Simulator;
use crate::observe::Event;
use crate::physreg::NEVER;
use crate::tracelog::Event as Pipe;
use crate::uop::{Uop, UopId, UopState};
use tracefill_isa::op::OpKind;
use tracefill_isa::semantics::{alu_result, branch_taken, effective_addr, extend_load};
use tracefill_uarch::hierarchy::Side;

/// What the memory scheduler allows a ready load to do.
enum LoadAction {
    /// Forward this value from an in-flight store.
    Forward(u32),
    /// Access the data cache.
    Memory,
    /// Not yet: this older store blocks it (the oldest one with an
    /// unknown address, else the youngest overlapping one).
    Blocked(UopId),
}

impl Simulator {
    /// Completion phase: results whose latency elapsed become visible and
    /// branches resolve (oldest first, so an older recovery squashes the
    /// younger completions before they act).
    pub(crate) fn phase_complete(&mut self) {
        let now = self.cycle;
        let mut ids = std::mem::take(&mut self.sched.due);
        while let Some(id) = self.sched.completions.pop(now) {
            ids.push(id);
        }
        ids.sort_unstable();
        for &id in &ids {
            // The uop may have been squashed since it started executing.
            let Some(u) = self.uops.get_mut(id) else {
                continue;
            };
            if !matches!(u.state, UopState::Executing { done } if done == self.cycle) {
                continue;
            }
            u.state = UopState::Done;
            let is_branch = u.branch.is_some() && (u.op.is_cond_branch() || u.op.is_indirect());
            let is_store = u.mem.is_some_and(|m| !m.is_load);
            let inactive = u.inactive;
            self.observers
                .emit(self.cycle, Event::Pipeline(Pipe::Complete { uop: id }));
            if is_store {
                // Loads waiting for this store's data may forward it now.
                self.wake_parked(id);
            }
            if is_branch {
                if let Some(b) = self.uops.get_mut(id).and_then(|u| u.branch.as_mut()) {
                    b.resolved = true;
                }
                if !inactive {
                    self.resolve_branch(id);
                }
                // Inactive branches just record their outcome; activation
                // acts on it.
            }
        }
        ids.clear();
        self.sched.due = ids;
    }

    /// Acts on a resolved active branch: recovery, shadow activation or
    /// shadow discard.
    pub(crate) fn resolve_branch(&mut self, id: UopId) {
        let u = &self.uops[id];
        let b = u.branch.as_ref().expect("resolved uop is a branch");
        if u.op.is_cond_branch() {
            let actual = b.actual_taken.expect("resolved branch has outcome");
            let predicted = b.pred_taken.expect("fetched branch was predicted");
            if actual == predicted {
                // Correct prediction: discard any shadow.
                self.drop_shadow(id);
                return;
            }
            // Mispredicted. If the trace's embedded path was right and its
            // blocks were issued inactively, activate them instead of
            // refetching (paper §3, inactive issue).
            let has_matching_shadow = b.embedded == Some(actual) && self.shadow_of(id).is_some();
            if has_matching_shadow {
                self.activate_shadow(id);
            } else {
                let redirect = b.actual_next.expect("resolved branch has next pc");
                self.recover_at(id, redirect);
            }
        } else {
            // Indirect jump: compare targets.
            let actual = b.actual_next.expect("resolved indirect has target");
            let predicted = b.pred_target.unwrap_or(actual.wrapping_add(4));
            if actual != predicted {
                self.recover_at(id, actual);
            }
        }
    }

    /// Execute phase: address pre-generation for stores, then per-FU
    /// select-and-execute of the oldest ready uop.
    pub(crate) fn phase_execute(&mut self) {
        self.drain_wakes();
        // Stores publish their addresses as soon as the base register is
        // available (a dedicated AGEN port, as in machines that split
        // stores into address and data uops). The conservative scheduler
        // ("no memory operation bypasses a store with an unknown address")
        // depends on addresses appearing promptly.
        let now = self.cycle;
        let mut i = 0;
        while let Some(&id) = self.sched.unaddressed.get(i) {
            let u = &self.uops[id];
            let cluster = u.cluster;
            if u.srcs[0].is_some_and(|p| self.phys.avail_at(p, cluster) > now) {
                i += 1;
                continue;
            }
            let base = u.srcs[0].map(|p| self.phys.value(p)).unwrap_or(0);
            let base = self.apply_scadd(u, 0, base);
            let addr = effective_addr(u.op, base, 0, u.imm);
            let m = self.uops.get_mut(id).and_then(|u| u.mem.as_mut());
            m.expect("queued store has memory state").addr = Some(addr);
            self.sched.unaddressed.remove(i);
            self.wake_parked(id);
        }

        // Every unit in order, skipping those with nothing ready (select
        // would find nothing there). A unit's set can fill while earlier
        // units execute, so the next unit is looked up after each one.
        let mut next = self.sched.next_ready_unit(0);
        while let Some(fu) = next {
            if let Some((id, load)) = self.select(fu) {
                self.execute_uop(id, load);
            }
            next = self.sched.next_ready_unit(fu + 1);
        }

        // CPI attribution: if the window head is executing and its
        // critical operand paid the cross-cluster bypass penalty, lost
        // commit slots this cycle are charged to `bypass_delay` rather
        // than generic FU contention.
        if let Some(&head) = self.window.front() {
            if let Some(u) = self.uops.get(head) {
                if u.bypass_delayed && matches!(u.state, UopState::Executing { .. }) {
                    self.cpi_flags.head_bypass_delayed = true;
                }
            }
        }
    }

    /// Removes the oldest eligible uop from `fu`'s ready set and returns
    /// it, with the memory scheduler's verdict for a load. Loads the
    /// scheduler blocks are parked on the way.
    fn select(&mut self, fu: usize) -> Option<(UopId, Option<LoadAction>)> {
        while let Some(id) = self.sched.oldest_ready(fu, self.uops.base()) {
            let u = &self.uops[id];
            let verdict = if u.mem.is_some_and(|m| m.is_load) {
                match self.load_action(u) {
                    LoadAction::Blocked(store) => {
                        self.sched.park_oldest(fu, id, store);
                        continue;
                    }
                    verdict => Some(verdict),
                }
            } else {
                None
            };
            self.sched.take_oldest(fu, id);
            return Some((id, verdict));
        }
        None
    }

    /// The scaled-add shift, applied to operand `k`'s value if annotated.
    fn apply_scadd(&self, u: &Uop, k: u8, v: u32) -> u32 {
        match u.scadd {
            Some(sc) if sc.src == k => v.wrapping_shl(sc.shift as u32),
            _ => v,
        }
    }

    /// Decides what a ready load may do under the conservative scheduler.
    fn load_action(&self, u: &Uop) -> LoadAction {
        let m = u.mem.as_ref().expect("load has memory state");
        // Compute the load's address from its (ready) sources.
        let a = self.apply_scadd(u, 0, u.srcs[0].map(|p| self.phys.value(p)).unwrap_or(0));
        let b = self.apply_scadd(u, 1, u.srcs[1].map(|p| self.phys.value(p)).unwrap_or(0));
        let addr = effective_addr(u.op, a, b, u.imm);
        let lo = addr;
        let hi = addr.wrapping_add(u32::from(m.size));

        // Scan the older in-flight stores; the youngest overlapping one
        // decides.
        let mut verdict = LoadAction::Memory;
        for &store in &self.stores {
            if store > u.id {
                break;
            }
            let o = &self.uops[store];
            let om = o.mem.as_ref().expect("queued store has memory state");
            let Some(oaddr) = om.addr else {
                // Unknown older store address blocks every younger access.
                return LoadAction::Blocked(store);
            };
            let olo = oaddr;
            let ohi = oaddr.wrapping_add(u32::from(om.size));
            let overlap = olo < hi && lo < ohi;
            if !overlap {
                continue;
            }
            if oaddr == addr && om.size == m.size {
                if o.state == UopState::Done {
                    verdict = LoadAction::Forward(om.value);
                } else {
                    // Exact match but data not captured yet.
                    verdict = LoadAction::Blocked(store);
                }
            } else {
                // Partial overlap: wait until the store retires (it will
                // then have left the store queue).
                verdict = LoadAction::Blocked(store);
            }
        }
        verdict
    }

    /// Begins execution of a ready uop on its functional unit; `load` is
    /// the verdict [`select`](Self::select) reached for a load.
    fn execute_uop(&mut self, id: UopId, load: Option<LoadAction>) {
        let now = self.cycle;
        let u = &self.uops[id];
        let cluster = u.cluster;

        // Bypass-delay accounting (Figure 7): did the last-arriving operand
        // pay a cross-cluster penalty?
        let mut t_local: u64 = 0;
        let mut t_raw: u64 = 0;
        for &p in u.srcs.iter().flatten() {
            t_local = t_local.max(self.phys.avail_at(p, cluster));
            let d = self.phys.done_at(p);
            if d != NEVER {
                t_raw = t_raw.max(d);
            }
        }
        let bypass_delayed = t_local > t_raw;

        let a0 = u.srcs[0].map(|p| self.phys.value(p)).unwrap_or(0);
        let b0 = u.srcs[1].map(|p| self.phys.value(p)).unwrap_or(0);
        let a = self.apply_scadd(u, 0, a0);
        let b = self.apply_scadd(u, 1, b0);

        let op = u.op;
        let imm = u.imm;
        let pc = u.pc;
        let mut value: Option<u32> = None;
        let mut mem_value: Option<u32> = None;
        let mut mem_addr: Option<u32> = None;
        let mut forwarded = false;
        let mut taken: Option<bool> = None;
        let mut next: Option<u32> = None;

        let lat = match op.kind() {
            OpKind::IntAlu | OpKind::Shift | OpKind::Mul | OpKind::Div => {
                value = Some(alu_result(op, a, b, imm));
                self.cfg.latency.of(op.kind())
            }
            OpKind::CondBranch => {
                let t = branch_taken(op, a0, b0);
                taken = Some(t);
                next = Some(if t {
                    u.instr.taken_target(pc).expect("branch has target")
                } else {
                    pc.wrapping_add(4)
                });
                self.cfg.latency.branch
            }
            OpKind::Jump => {
                // Only jr/jalr reach the RS.
                next = Some(a0);
                self.cfg.latency.branch
            }
            OpKind::Load => {
                let addr = effective_addr(op, a, b, imm);
                mem_addr = Some(addr);
                let (raw, extra) = match load.expect("select judged the load") {
                    LoadAction::Forward(v) => {
                        forwarded = true;
                        (v, 1)
                    }
                    LoadAction::Memory => {
                        let lat = self.hier.access(Side::Data, addr);
                        let size = u.mem.as_ref().unwrap().size;
                        (self.mem.read_sized(addr, u32::from(size)), lat)
                    }
                    LoadAction::Blocked(_) => unreachable!("select parks blocked loads"),
                };
                let v = extend_load(op, raw);
                value = Some(v);
                mem_value = Some(v);
                self.cfg.latency.agen + extra
            }
            OpKind::Store => {
                let addr = effective_addr(op, a, b, imm);
                mem_addr = Some(addr);
                mem_value = Some(b0); // data operand, unscaled
                self.cfg.latency.agen
            }
            OpKind::System => unreachable!("system ops never dispatch"),
        };

        let done = now + lat as u64;
        let u = self.uops.get_mut(id).unwrap();
        u.state = UopState::Executing { done };
        u.fu_executed = true;
        u.bypass_delayed = bypass_delayed && u.srcs.iter().flatten().next().is_some();
        if let Some(m) = u.mem.as_mut() {
            m.addr = mem_addr;
            if let Some(v) = mem_value {
                m.value = v;
            }
            m.forwarded = forwarded;
        }
        if let Some(bctx) = u.branch.as_mut() {
            bctx.actual_taken = taken;
            bctx.actual_next = next;
        }
        let dest = u.dest;
        let is_move = u.is_move;
        if let (Some((_, p)), Some(v), false) = (dest, value, is_move) {
            self.phys.write(p, v, done, cluster);
            self.wake_waiters(p);
        }
        self.sched.completions.push(done, id);
        self.observers
            .emit(now, Event::Pipeline(Pipe::Execute { uop: id, done }));
    }
}
