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
use crate::uop::{BranchCtx, FetchSlot, MemState, SlotSource, Uop, UopState};
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
            self.line_phys.clear();
            self.line_phys.resize(bundle.slots.len(), None);
            self.pending = Some(PendingIssue {
                bundle,
                next: 0,
                entry_rat: self.rat,
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
            let Some(slot) = p.bundle.slots.front() else {
                self.finish_bundle();
                return;
            };
            if issued >= self.cfg.fetch_width {
                return;
            }
            if self.window.len() >= window_cap {
                // CPI attribution: dispatch blocked on structural
                // backpressure (window/RS/checkpoint/phys-reg limits).
                self.cpi_flags.issue_backpressure = true;
                return;
            }
            let line = slot
                .src
                .line(p.bundle.line.as_deref().or(self.lines.last()));
            let needs_ckpt = !slot.inactive && (line.op.is_cond_branch() || line.op.is_indirect());
            if needs_ckpt {
                if ckpts >= self.cfg.checkpoints_per_cycle {
                    return;
                }
                if self.checkpoints.len() >= self.cfg.max_checkpoints {
                    self.cpi_flags.issue_backpressure = true;
                    return;
                }
            }
            let needs_rs = !line.is_move
                && !matches!(line.op.kind(), OpKind::System)
                && !matches!(line.op, Op::J | Op::Jal);
            if needs_rs && self.sched.occupancy(slot.fu) >= self.cfg.rs_per_fu {
                self.cpi_flags.issue_backpressure = true;
                return;
            }
            if !line.is_move && line.dest.is_some() && self.phys.free_count() == 0 {
                self.cpi_flags.issue_backpressure = true;
                return;
            }

            let p = self.pending.as_mut().unwrap();
            let slot = p.bundle.slots.pop_front().expect("checked above");
            self.issue_slot(slot);
            issued += 1;
            if needs_ckpt {
                ckpts += 1;
            }
            let p = self.pending.as_mut().unwrap();
            p.next += 1;
        }
    }

    /// Finalizes a fully issued bundle: registers the shadow, if any, and
    /// hands the emptied slot buffer back to fetch.
    fn finish_bundle(&mut self) {
        let p = self.pending.take().expect("pending bundle");
        if let Some(sb) = p.shadow {
            if !sb.uops.is_empty() {
                debug_assert!(self.shadows.last().is_none_or(|s| s.anchor < sb.anchor));
                self.shadows.push(crate::machine::Shadow {
                    anchor: sb.anchor,
                    uops: sb.uops,
                    rat: sb.rat,
                    branch_snaps: sb.branch_snaps,
                    resume: p.bundle.shadow_resume,
                });
            }
        }
        debug_assert!(p.bundle.slots.is_empty());
        self.slot_buf = p.bundle.slots;
    }

    /// Renames and dispatches one slot, building its uop once, in the
    /// uop table. The bundle's first uop moves the bundle's line into the
    /// in-flight lines, where later slots read it.
    fn issue_slot(&mut self, slot: FetchSlot) {
        let FetchSlot {
            src,
            fu,
            miss_head,
            inactive: in_shadow,
            branch,
        } = slot;
        let id = self.new_uop_id();
        let pend = self.pending.as_mut().expect("issuing a pending bundle");
        if let Some(line) = pend.bundle.line.take() {
            self.lines.push(id, line);
        }
        let from_tc = matches!(src, SlotSource::Line(..));
        let seg = self.lines.last().filter(|_| from_tc);
        let seg_id = seg.map_or(0, |l| l.provenance.seg_id);
        let line = src.line(seg).into_owned();
        let (pc, op) = (line.pc, line.op);

        let mut srcs = [None, None];
        for (k, s) in line.srcs.iter().enumerate() {
            if let Some(r) = *s {
                let p = self.resolve_src(r, from_tc);
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
        let mut dest = None;
        let mut prev_phys = None;
        if line.is_move {
            let src_loc = line.move_src.expect("marked move carries its source");
            let p = self.resolve_src(src_loc, from_tc);
            self.phys.acquire(p);
            let d = line.dest.expect("moves have destinations");
            let rat = self.current_rat_mut(in_shadow);
            prev_phys = Some(rat[d.index()]);
            rat[d.index()] = p;
            dest = Some((d, p));
        } else if let Some(d) = line.dest {
            let p = self.alloc_phys();
            let rat = self.current_rat_mut(in_shadow);
            prev_phys = Some(rat[d.index()]);
            rat[d.index()] = p;
            dest = Some((d, p));
        } else if op == Op::Syscall {
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
        if line.is_move || matches!(op, Op::J | Op::Jal) {
            state = UopState::Done;
            if matches!(op, Op::Jal) {
                let (_, p) = dest.expect("jal writes $ra");
                self.publish_arch(p, pc.wrapping_add(4));
            }
        }
        // Jalr's link value is also deterministic; only its target needs
        // execution.
        if op == Op::Jalr {
            if let Some((_, p)) = dest {
                self.publish_arch(p, pc.wrapping_add(4));
            }
        }

        // Branch context. An active branch or indirect jump also takes a
        // checkpoint, which takes over the fetch-time snapshots.
        let is_branch = op.is_cond_branch() || op.is_indirect();
        let branch = match branch {
            Some(m) => {
                if !in_shadow && is_branch {
                    debug_assert!(self.checkpoints.back().is_none_or(|c| c.branch < id));
                    self.checkpoints.push_back(Checkpoint {
                        branch: id,
                        rat: self.rat,
                        ras: m.ras_snap,
                        ghr: m.ghr_snap,
                    });
                }
                Some(BranchCtx {
                    pred_taken: m.pred_taken,
                    pred_target: m.pred_target,
                    prediction: m.prediction,
                    promoted: m.promoted,
                    embedded: m.embedded,
                    actual_taken: None,
                    actual_next: None,
                    resolved: false,
                })
            }
            None => {
                assert!(in_shadow || !is_branch, "branch slot carries metadata");
                None
            }
        };

        // Serializing ops: halt the front end until retirement; they are
        // executed at retire, not dispatched. Inactive system ops only
        // serialize if their shadow is activated.
        let is_system = matches!(op, Op::Syscall | Op::Break);
        if is_system && !in_shadow {
            self.serialize = Some(id);
        }
        let needs_rs = !line.is_move && !is_system && !matches!(op, Op::J | Op::Jal);
        let mem = op.access_size().map(|size| MemState {
            is_load: op.is_load(),
            size: u8::try_from(size).expect("accesses are at most a word"),
            addr: None,
            value: 0,
            forwarded: false,
        });
        let is_store = mem.is_some_and(|m| !m.is_load);

        // The uop itself, built once, in its table slot.
        let (instr, imm, scadd) = (line.orig, line.imm, line.scadd);
        let (is_move, reassociated) = (line.is_move, line.reassociated);
        self.uops.insert(Uop {
            id,
            pc,
            instr,
            op,
            imm,
            scadd,
            srcs,
            dest,
            prev_phys,
            fu,
            state,
            branch,
            mem,
            from_tc,
            miss_head,
            is_move,
            reassociated,
            inactive: in_shadow,
            mem_deferred: in_shadow && mem.is_some(),
            bypass_delayed: false,
            fu_executed: false,
            cluster: self.cfg.clusters.cluster_of(fu),
            seg: seg_id,
        });
        self.sched.fit_ring(self.uops.ring_len(), self.uops.base());

        // Store queue (the station entry is made below).
        if is_store && !in_shadow {
            debug_assert!(self.stores.back().is_none_or(|&b| b < id));
            self.stores.push_back(id);
            self.sched.unaddressed.push(id);
        }

        // Bookkeeping: window (active) or shadow.
        let pend = self.pending.as_mut().unwrap();
        let next = pend.next;
        if in_shadow {
            let sb = pend.shadow.as_mut().expect("shadow context exists");
            sb.uops.push(id);
            if is_branch {
                let rat = sb.rat;
                sb.branch_snaps.push((id, rat));
            }
        } else {
            debug_assert!(self.window.back().is_none_or(|&b| b < id));
            self.window.push_back(id);
            if pend.bundle.diverge_at == Some(next) {
                // Slots after this one rename into a copy of the current
                // (post-branch) map.
                pend.shadow = Some(ShadowBuild {
                    anchor: id,
                    uops: Vec::new(),
                    rat: self.rat,
                    branch_snaps: Vec::new(),
                });
            }
        }

        if needs_rs {
            self.dispatch(id);
        }

        // Record this slot's result location for later internal refs.
        self.line_phys[next] = dest.map(|(_, p)| p);

        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Issue {
                uop: id,
                pc,
                fu,
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
            SrcRef::Internal(pslot) => {
                self.line_phys[pslot as usize].expect("internal reference to un-issued slot")
            }
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
