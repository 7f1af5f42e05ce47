//! Checkpoint recovery, squash, shadow discard and shadow activation.

use crate::machine::Simulator;
use crate::observe::Event;
use crate::physreg::PhysFile;
use crate::tracelog::Event as Pipe;
use crate::uop::{ShadowResume, Uop, UopId};
use tracefill_isa::reg::NUM_ARCH_REGS;
use tracefill_isa::{ArchReg, Op};

impl Simulator {
    /// Full misprediction recovery at `branch_id`: squash everything
    /// younger, restore the branch's checkpoint, and redirect fetch.
    pub(crate) fn recover_at(&mut self, branch_id: UopId, redirect: u32) {
        // CPI attribution: this cycle's lost commit slots are a
        // misprediction-recovery penalty.
        self.cpi_flags.recovered = true;
        self.squash_younger(branch_id);

        // Restore rename/predictor state from the checkpoint, then re-apply
        // the branch's own speculative effects with the *actual* outcome.
        let ckpt = self
            .take_checkpoint(branch_id)
            .expect("recovering branch owns a checkpoint");
        self.rat = ckpt.rat;
        self.ras.restore(ckpt.ras);
        self.predictor.restore(ckpt.ghr);

        let (op, pc, actual_taken, promoted, is_return) = {
            let u = &self.uops[branch_id];
            (
                u.op,
                u.pc,
                u.branch.as_ref().and_then(|b| b.actual_taken),
                u.branch.as_ref().is_some_and(|b| b.promoted),
                u.instr.op == Op::Jr && u.instr.rs == ArchReg::RA,
            )
        };
        match op {
            op if op.is_cond_branch() => {
                let actual = actual_taken.expect("recovered branch resolved");
                if !promoted {
                    self.predictor.push_history(actual);
                }
            }
            // Re-apply the return's pop (the snapshot predates it).
            Op::Jr if is_return => {
                let _ = self.ras.pop();
            }
            Op::Jalr => {
                self.ras.push(pc.wrapping_add(4));
            }
            _ => {}
        }

        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Recover {
                anchor: branch_id,
                redirect,
            }),
        );
        self.redirect_fetch(redirect);
    }

    /// Activates the shadow hanging off `branch_id`: the trace's embedded
    /// path was right, its blocks are already renamed and possibly
    /// executed (paper §3, inactive issue).
    pub(crate) fn activate_shadow(&mut self, branch_id: UopId) {
        let i = self
            .shadow_of(branch_id)
            .expect("activation requires a shadow");
        let shadow = self.shadows.remove(i);
        self.squash_younger(branch_id);
        self.stats.inactive_rescues += 1;

        // Rename state continues from the shadow's final map.
        self.rat = shadow.rat;

        // Predictor/RAS state: restore the anchor's checkpoint, then apply
        // the actual outcome and the shadow's own fetch-time effects.
        let ckpt = self
            .take_checkpoint(branch_id)
            .expect("divergence branch owns a checkpoint");
        self.ras.restore(ckpt.ras);
        self.predictor.restore(ckpt.ghr);
        let (anchor_actual, anchor_promoted) = {
            let u = &self.uops[branch_id];
            (
                u.branch
                    .as_ref()
                    .and_then(|b| b.actual_taken)
                    .expect("anchor resolved"),
                u.branch.as_ref().is_some_and(|b| b.promoted),
            )
        };
        if !anchor_promoted {
            self.predictor.push_history(anchor_actual);
        }

        // Walk the shadow in program order: join the window, rebuild RAS
        // and history, create checkpoints for shadow branches, and enable
        // deferred memory ops. If an already-resolved shadow branch went
        // against the embedded path, recovery restarts at it.
        let mut mispredicted: Option<(UopId, u32)> = None;
        for (i, &id) in shadow.uops.iter().enumerate() {
            let snap = shadow
                .branch_snaps
                .iter()
                .find(|(b, _)| *b == id)
                .map(|(_, rat)| *rat);
            let ras_snap = self.ras.snapshot();
            let ghr_snap = self.predictor.snapshot();

            let (op, pc, deferred, is_store, is_sys, is_return) = {
                let u = self.uops.get_mut(id).expect("shadow uop exists");
                u.inactive = false;
                let deferred = std::mem::take(&mut u.mem_deferred);
                (
                    u.op,
                    u.pc,
                    deferred,
                    u.mem.is_some_and(|m| !m.is_load),
                    u.is_system(),
                    u.instr.op == Op::Jr && u.instr.rs == ArchReg::RA,
                )
            };
            debug_assert!(self.window.back().is_none_or(|&b| b < id));
            self.window.push_back(id);
            if is_store {
                debug_assert!(self.stores.back().is_none_or(|&b| b < id));
                self.stores.push_back(id);
                self.sched.unaddressed.push(id);
            }
            if deferred {
                self.undefer(id);
            }
            if is_sys {
                self.serialize = Some(id);
            }
            if matches!(op, Op::Jal | Op::Jalr) {
                self.ras.push(pc.wrapping_add(4));
            }

            if op.is_cond_branch() || op.is_indirect() {
                let rat = snap.expect("shadow branch has a rename snapshot");
                debug_assert!(self.checkpoints.back().is_none_or(|c| c.branch < id));
                self.checkpoints.push_back(crate::machine::Checkpoint {
                    branch: id,
                    rat,
                    ras: ras_snap,
                    ghr: ghr_snap,
                });
                let (embedded, promoted, resolved, actual_taken, actual_next) = {
                    let b = self.uops[id]
                        .branch
                        .as_ref()
                        .expect("branch uop has context");
                    (
                        b.embedded,
                        b.promoted,
                        b.resolved,
                        b.actual_taken,
                        b.actual_next,
                    )
                };

                if op.is_cond_branch() {
                    let embedded = embedded.expect("trace branch has embedded direction");
                    if !promoted {
                        self.predictor.push_history(embedded);
                    }
                    if resolved && actual_taken != Some(embedded) {
                        let target = actual_next.expect("resolved branch has target");
                        if mispredicted.is_none() {
                            mispredicted = Some((id, target));
                        }
                    }
                } else {
                    // Terminal indirect jump of the line.
                    debug_assert_eq!(i, shadow.uops.len() - 1);
                    let target = if resolved {
                        actual_next
                    } else {
                        // Predict now (verified when it resolves).
                        Some(
                            if is_return { self.ras.pop() } else { None }
                                .or_else(|| self.itb.predict(pc))
                                .unwrap_or(pc.wrapping_add(4)),
                        )
                    };
                    let u = self.uops.get_mut(id).unwrap();
                    u.branch.as_mut().unwrap().pred_target = target;
                }
            }
            self.stats.activated_uops += 1;
        }

        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Activate {
                anchor: branch_id,
                count: shadow.uops.len() as u32,
            }),
        );
        // Decide where fetch resumes.
        let resume_pc = match shadow.resume {
            ShadowResume::Pc(pc) => pc,
            ShadowResume::Indirect => {
                let last = *shadow.uops.last().expect("indirect shadow is nonempty");
                let b = self.uops[last].branch.as_ref().expect("terminal indirect");
                b.pred_target.expect("assigned above")
            }
        };

        if let Some((bad_branch, target)) = mispredicted {
            // A shadow branch itself went off the embedded path; recover
            // from the checkpoint just created for it.
            self.recover_at(bad_branch, target);
        } else if self.serialize.is_some() {
            // A serializing op is in flight: fetch waits for its retire.
            self.flush_frontend();
        } else {
            self.redirect_fetch(resume_pc);
        }
    }

    /// Discards the shadow owned by `branch_id`, if any (the prediction
    /// turned out correct, or the owner was squashed).
    pub(crate) fn drop_shadow(&mut self, branch_id: UopId) {
        let Some(i) = self.shadow_of(branch_id) else {
            return;
        };
        let shadow = self.shadows.remove(i);
        for id in shadow.uops {
            self.stats.discarded_inactive_uops += 1;
            self.discard_uop(id);
        }
        self.forget_discarded();
    }

    /// Squashes every active uop younger than `branch_id` (and their
    /// checkpoints and shadows) and flushes the front end.
    pub(crate) fn squash_younger(&mut self, branch_id: UopId) {
        let pos = self
            .window_pos(branch_id)
            .expect("recovery anchor is in the window");
        for i in pos + 1..self.window.len() {
            let id = self.window[i];
            self.squash_uop(id);
        }
        let mut squashed = (self.window.len() - pos - 1) as u64;
        self.window.truncate(pos + 1);
        self.lines.truncate_after(branch_id);

        // Shadows anchored on squashed branches die with them, and a
        // partially issued bundle (with its shadow under construction) is
        // wrong-path by definition.
        let mut inactive: Vec<UopId> = Vec::new();
        let uops = &self.uops;
        self.shadows.retain(|s| {
            let live = uops.contains(s.anchor);
            if !live {
                inactive.extend_from_slice(&s.uops);
            }
            live
        });
        if let Some(sb) = self.pending.take().and_then(|p| p.shadow) {
            inactive.extend(sb.uops);
        }
        self.fetch_buffer = None;
        for &id in &inactive {
            self.squash_uop(id);
        }
        self.stats.discarded_inactive_uops += inactive.len() as u64;
        squashed += inactive.len() as u64;

        self.forget_discarded();
        self.stats.squashed_uops += squashed;
    }

    /// Discards one squashed uop and tells the observers.
    fn squash_uop(&mut self, id: UopId) {
        if let Some(seg) = self.uops.get(id).map(Uop::tc_seg) {
            self.discard_uop(id);
            self.observers.emit(self.cycle, Event::Squash { seg });
        }
    }

    /// Drops the ids of discarded uops from every structure that names
    /// uops by id, keeping exactly the ones still in flight.
    fn forget_discarded(&mut self) {
        let uops = &self.uops;
        self.stores.retain(|&id| uops.contains(id));
        self.sched.retain_live(|id| uops.contains(id));
        self.checkpoints.retain(|c| uops.contains(c.branch));
        if self.serialize.is_some_and(|s| !uops.contains(s)) {
            self.serialize = None;
        }
    }

    /// Self-repair full squash: every in-flight uop — active, inactive
    /// and partially issued — dies, every speculative structure empties,
    /// and the rename state is rebuilt wholesale from the oracle's
    /// architectural registers (the oracle has already executed through
    /// the diverging instruction). Unlike [`squash_younger`], no anchor
    /// survives; the caller redirects fetch afterwards.
    ///
    /// [`squash_younger`]: Self::squash_younger
    pub(crate) fn repair_squash(&mut self) {
        for u in self.uops.values() {
            let seg = u.tc_seg();
            self.observers.emit(self.cycle, Event::Squash { seg });
        }
        self.stats.squashed_uops += self.uops.len() as u64;
        self.uops.clear();
        self.lines.clear();
        self.window.clear();
        self.shadows.clear();
        self.checkpoints.clear();
        self.stores.clear();
        self.sched.clear();
        self.pending = None;
        self.fetch_buffer = None;
        self.serialize = None;
        // Fresh physical file and rename table holding the oracle's
        // architectural values (same shape as machine reset).
        let mut phys = PhysFile::new(self.cfg.phys_regs, self.cfg.cross_cluster_latency);
        let mut rat = [PhysFile::ZERO; NUM_ARCH_REGS];
        for r in ArchReg::all() {
            if r.is_zero() {
                continue;
            }
            let p = phys.alloc();
            phys.write_arch(p, self.oracle.reg(r));
            rat[r.index()] = p;
        }
        self.phys = phys;
        self.rat = rat;
    }

    /// Releases one uop's station entry, source holds and destination
    /// mapping, reading them in place, then drops it from the table. Used
    /// for both squash and shadow discard; the caller then calls
    /// [`forget_discarded`](Self::forget_discarded) to fix up the shared
    /// structures.
    fn discard_uop(&mut self, id: UopId) {
        let Some(u) = self.uops.get(id) else { return };
        self.sched.unschedule(u);
        for &p in u.srcs.iter().flatten() {
            self.phys.release(p);
        }
        if let Some((_, p)) = u.dest {
            self.phys.release(p);
        }
        self.uops.remove(id);
    }

    /// The index of the shadow hanging off `branch`, if any (shadows are
    /// kept in id order of their anchors).
    pub(crate) fn shadow_of(&self, branch: UopId) -> Option<usize> {
        self.shadows
            .binary_search_by_key(&branch, |s| s.anchor)
            .ok()
    }

    /// Removes and returns the checkpoint owned by `branch`, if any
    /// (checkpoints are kept in id order of their branches).
    fn take_checkpoint(&mut self, branch: UopId) -> Option<crate::machine::Checkpoint> {
        let i = self
            .checkpoints
            .binary_search_by_key(&branch, |c| c.branch)
            .ok()?;
        self.checkpoints.remove(i)
    }

    /// Flushes the fetch buffer and partially issued bundle and redirects.
    fn redirect_fetch(&mut self, pc: u32) {
        self.flush_frontend();
        self.fetch_pc = pc;
    }

    fn flush_frontend(&mut self) {
        // squash_younger already dropped pending/fetch_buffer; this also
        // covers paths that call redirect without a squash.
        debug_assert!(self.pending.is_none());
        self.fetch_buffer = None;
        self.fetch_stall_until = 0;
    }
}
