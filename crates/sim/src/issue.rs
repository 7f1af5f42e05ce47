//! Issue stage: rename, checkpoint creation, dispatch, inactive issue.
//!
//! One fetched bundle issues per cycle, bounded by the fetch width, the
//! checkpoint-creation rate (the paper: 3 per cycle, one per block),
//! reservation-station space and free physical registers. Slots past the
//! divergence point of a trace line rename into a *shadow* rename map and
//! dispatch inactively (paper §3 / [4]).

use crate::machine::{Checkpoint, PendingIssue, ShadowBuild, Simulator};
use crate::observe::Event;
use crate::physreg::{PhysFile, PhysReg};
use crate::tracelog::Event as Pipe;
use crate::uop::{BranchCtx, FetchSlot, MemState, Uop, UopState};
use tracefill_core::segment::SrcRef;
use tracefill_isa::op::OpKind;
use tracefill_isa::Op;

impl Simulator {
    /// Issue phase.
    pub(crate) fn phase_issue(&mut self) {
        if self.halted.is_some() {
            return;
        }
        if self.pending.is_none() {
            let Some(bundle) = self.fetch_buffer.take() else {
                return;
            };
            let n = bundle.slots.len();
            self.pending = Some(PendingIssue {
                bundle,
                next: 0,
                entry_rat: self.rat,
                line_phys: vec![None; n],
                shadow: None,
            });
        }

        let window_cap = self.cfg.num_fus() * self.cfg.rs_per_fu;
        let mut ckpts = 0usize;
        let mut issued = 0usize;

        loop {
            let Some(p) = self.pending.as_ref() else {
                return;
            };
            if p.next >= p.bundle.slots.len() {
                self.finish_bundle();
                return;
            }
            if issued >= self.cfg.fetch_width {
                return;
            }
            if self.window.len() >= window_cap {
                // CPI attribution: dispatch blocked on structural
                // backpressure (window/RS/checkpoint/phys-reg limits).
                self.cpi_flags.issue_backpressure = true;
                return;
            }
            let slot = p.bundle.slots[p.next].clone();
            let needs_ckpt = !slot.inactive && (slot.op.is_cond_branch() || slot.op.is_indirect());
            if needs_ckpt {
                if ckpts >= self.cfg.checkpoints_per_cycle {
                    return;
                }
                if self.checkpoints.len() >= self.cfg.max_checkpoints {
                    self.cpi_flags.issue_backpressure = true;
                    return;
                }
            }
            let needs_rs = !slot.is_move
                && !matches!(slot.op.kind(), OpKind::System)
                && !matches!(slot.op, Op::J | Op::Jal);
            if needs_rs && self.sched.occupancy(slot.fu) >= self.cfg.rs_per_fu {
                self.cpi_flags.issue_backpressure = true;
                return;
            }
            if !slot.is_move && slot.dest.is_some() && self.phys.free_count() == 0 {
                self.cpi_flags.issue_backpressure = true;
                return;
            }

            self.issue_slot(&slot);
            issued += 1;
            if needs_ckpt {
                ckpts += 1;
            }
            let p = self.pending.as_mut().unwrap();
            p.next += 1;
        }
    }

    /// Finalizes a fully issued bundle: registers the shadow, if any.
    fn finish_bundle(&mut self) {
        let p = self.pending.take().expect("pending bundle");
        if let Some(sb) = p.shadow {
            if !sb.uops.is_empty() {
                self.shadows.insert(
                    sb.anchor,
                    crate::machine::Shadow {
                        anchor: sb.anchor,
                        uops: sb.uops,
                        rat: sb.rat,
                        branch_snaps: sb.branch_snaps,
                        resume: p.bundle.shadow_resume,
                    },
                );
            }
        }
    }

    /// Renames and dispatches one slot.
    fn issue_slot(&mut self, slot: &FetchSlot) {
        let id = self.new_uop_id();
        let in_shadow = slot.inactive;

        let mut srcs = [None, None];
        for (k, s) in slot.srcs.iter().enumerate() {
            if let Some(r) = *s {
                let p = self.resolve_src(r, slot.from_tc);
                // Consumers hold their sources live until they retire:
                // with trace-line entry-state live-ins, a rewritten
                // consumer can be younger than the overwriter of its
                // source mapping, so overwriter-retire alone must not
                // free the register.
                self.phys.acquire(p);
                srcs[k] = Some(p);
            }
        }

        // Destination mapping.
        let mut aliased = false;
        let mut dest = None;
        let mut prev_phys = None;
        if slot.is_move {
            let src_loc = slot.move_src.expect("marked move carries its source");
            let p = self.resolve_src(src_loc, slot.from_tc);
            self.phys.acquire(p);
            aliased = true;
            let d = slot.dest.expect("moves have destinations");
            let rat = self.current_rat_mut(in_shadow);
            prev_phys = Some(rat[d.index()]);
            rat[d.index()] = p;
            dest = Some((d, p));
        } else if let Some(d) = slot.dest {
            let p = self.alloc_phys();
            let rat = self.current_rat_mut(in_shadow);
            prev_phys = Some(rat[d.index()]);
            rat[d.index()] = p;
            dest = Some((d, p));
        } else if slot.op == Op::Syscall {
            // A syscall may write `$v0` (READ_INT); rename it so move
            // aliases of the old mapping keep their value.
            let d = tracefill_isa::ArchReg::V0;
            let p = self.alloc_phys();
            let rat = self.current_rat_mut(in_shadow);
            prev_phys = Some(rat[d.index()]);
            rat[d.index()] = p;
            dest = Some((d, p));
        }

        // Direct jumps complete at issue: the link value is deterministic.
        let mut state = UopState::Waiting;
        if slot.is_move || matches!(slot.op, Op::J | Op::Jal) {
            state = UopState::Done;
            if matches!(slot.op, Op::Jal) {
                let (_, p) = dest.expect("jal writes $ra");
                self.publish_arch(p, slot.pc.wrapping_add(4));
            }
        }
        // Jalr's link value is also deterministic; only its target needs
        // execution.
        if slot.op == Op::Jalr {
            if let Some((_, p)) = dest {
                self.publish_arch(p, slot.pc.wrapping_add(4));
            }
        }

        // Branch context.
        let branch = slot.branch.as_ref().map(|m| BranchCtx {
            pred_taken: m.pred_taken,
            pred_target: m.pred_target,
            prediction: m.prediction,
            promoted: m.promoted,
            embedded: m.embedded,
            checkpoint: None,
            actual_taken: None,
            actual_next: None,
            resolved: false,
        });

        // Memory context.
        let mem = slot.op.access_size().map(|size| MemState {
            is_load: slot.op.is_load(),
            size,
            addr: None,
            value: 0,
            forwarded: false,
        });

        let mut uop = Uop {
            id,
            pc: slot.pc,
            instr: slot.instr,
            op: slot.op,
            imm: slot.imm,
            scadd: slot.scadd,
            srcs,
            dest,
            prev_phys,
            aliased,
            fu: slot.fu,
            state,
            branch,
            mem,
            from_tc: slot.from_tc,
            miss_head: slot.miss_head,
            is_move: slot.is_move,
            reassociated: slot.reassociated,
            inactive: in_shadow,
            mem_deferred: in_shadow && slot.op.access_size().is_some(),
            bypass_delayed: false,
            fu_executed: false,
            seg: slot.seg.clone(),
        };

        // Checkpoints for active branches and indirect jumps.
        if !in_shadow && (slot.op.is_cond_branch() || slot.op.is_indirect()) {
            let meta = slot.branch.as_ref().expect("branch slot carries metadata");
            let ckpt_id = self.next_ckpt_id;
            self.next_ckpt_id += 1;
            debug_assert!(self.checkpoints.back().is_none_or(|c| c.branch < id));
            self.checkpoints.push_back(Checkpoint {
                id: ckpt_id,
                branch: id,
                rat: self.rat,
                ras: meta.ras_snap.clone(),
                ghr: meta.ghr_snap,
            });
            if let Some(b) = uop.branch.as_mut() {
                b.checkpoint = Some(ckpt_id);
            }
        }

        // Serializing ops: halt the front end until retirement; they are
        // executed at retire, not dispatched. Inactive system ops only
        // serialize if their shadow is activated.
        if uop.is_system() && !in_shadow {
            self.serialize = Some(id);
        }

        // Store queue (the station entry is made below, once the uop is
        // in the table).
        let needs_rs = !uop.is_move && !uop.is_system() && !matches!(uop.op, Op::J | Op::Jal);
        if uop.mem.is_some_and(|m| !m.is_load) && !in_shadow {
            debug_assert!(self.stores.back().is_none_or(|&b| b < id));
            self.stores.push_back(id);
            self.sched.unaddressed.push(id);
        }

        // Bookkeeping: window (active) or shadow.
        if in_shadow {
            let is_branch = uop.op.is_cond_branch() || uop.op.is_indirect();
            let pend = self.pending.as_mut().unwrap();
            let sb = pend.shadow.as_mut().expect("shadow context exists");
            sb.uops.push(id);
            if is_branch {
                let rat = sb.rat;
                sb.branch_snaps.push((id, rat));
            }
            self.uops.insert(uop);
        } else {
            debug_assert!(self.window.back().is_none_or(|&b| b < id));
            self.window.push_back(id);
            let starts_shadow = self
                .pending
                .as_ref()
                .map(|p| p.bundle.diverge_at == Some(p.next))
                .unwrap_or(false);
            self.uops.insert(uop);
            if starts_shadow {
                // Slots after this one rename into a copy of the current
                // (post-branch) map.
                let rat = self.rat;
                let pend = self.pending.as_mut().unwrap();
                pend.shadow = Some(ShadowBuild {
                    anchor: id,
                    uops: Vec::new(),
                    rat,
                    branch_snaps: Vec::new(),
                });
            }
        }

        if needs_rs {
            self.dispatch(id);
        }

        // Record this slot's result location for later internal refs.
        let pend = self.pending.as_mut().unwrap();
        pend.line_phys[pend.next] = dest.map(|(_, p)| p);

        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Issue {
                uop: id,
                pc: slot.pc,
                fu: slot.fu,
                inactive: in_shadow,
            }),
        );
    }

    /// Resolves one dataflow source.
    ///
    /// Trace-line live-ins mean "the architectural value at segment
    /// entry", so they read the entry-time rename snapshot — in-segment
    /// redefinitions are always expressed as `Internal` references. Raw
    /// instruction-cache slots carry no dependency marking, so their
    /// live-ins read the running RAT (which earlier slots of the same
    /// bundle have already updated).
    fn resolve_src(&self, r: SrcRef, from_tc: bool) -> PhysReg {
        match r {
            SrcRef::LiveIn(reg) => {
                if reg.is_zero() {
                    PhysFile::ZERO
                } else if from_tc {
                    self.pending.as_ref().unwrap().entry_rat[reg.index()]
                } else {
                    self.rat[reg.index()]
                }
            }
            SrcRef::Internal(pslot) => self.pending.as_ref().unwrap().line_phys[pslot as usize]
                .expect("internal reference to un-issued slot"),
        }
    }

    fn current_rat_mut(
        &mut self,
        in_shadow: bool,
    ) -> &mut [PhysReg; tracefill_isa::reg::NUM_ARCH_REGS] {
        if in_shadow {
            &mut self
                .pending
                .as_mut()
                .unwrap()
                .shadow
                .as_mut()
                .expect("shadow context exists")
                .rat
        } else {
            &mut self.rat
        }
    }
}
