//! Fetch stage: trace-cache path and supporting instruction-cache path.

use crate::machine::Simulator;
use crate::observe::Event;
use crate::tracelog::Event as Pipe;
use crate::uop::{BranchFetchMeta, FetchBundle, FetchSlot, ShadowResume, SlotSource};
use std::collections::VecDeque;
use tracefill_core::segment::Line;
use tracefill_core::tcache::TcHit;
use tracefill_isa::{ArchReg, Instr, Op};
use tracefill_uarch::hierarchy::Side;

impl Simulator {
    /// Fetch phase: produce at most one bundle per cycle.
    pub(crate) fn phase_fetch(&mut self) {
        if self.halted.is_some() {
            return;
        }
        if self.serialize.is_some() {
            self.stats.serialize_stall_cycles += 1;
            return;
        }
        // Depth-1 fetch buffer: wait until issue consumed the last bundle.
        if self.fetch_buffer.is_some() || self.pending.is_some() {
            return;
        }
        if self.cycle < self.fetch_stall_until {
            self.stats.icache_stall_cycles += 1;
            self.cpi_flags.icache_stall = true;
            return;
        }
        let pc = self.fetch_pc;

        // Multiple-branch predictions for up to three branch slots.
        let preds = [
            self.predictor.predict(pc, 0),
            self.predictor.predict(pc, 1),
            self.predictor.predict(pc, 2),
        ];
        let dirs = [preds[0].taken, preds[1].taken, preds[2].taken];

        // A live fault plan may corrupt the *fetched copy* of a hit line
        // (a read-path strike); the cached line itself is untouched.
        let hit = self
            .tcache
            .lookup(pc, &dirs)
            .map(|h| match self.injector.as_mut() {
                Some(inj) => inj.on_lookup(h, self.cycle),
                None => h,
            });
        let seg = hit.as_ref().map(|h| h.seg.provenance.seg_id);
        let bundle = match hit {
            Some(hit) => self.fetch_from_line(hit, &preds),
            None => {
                let latency = self.hier.access(Side::Instr, pc);
                if latency > 1 {
                    // Miss: stall; the refill is resident on retry.
                    self.fetch_stall_until = self.cycle + latency as u64;
                    self.stats.icache_stall_cycles += 1;
                    self.cpi_flags.icache_stall = true;
                    return;
                }
                self.fetch_from_icache(pc, &preds)
            }
        };
        if let Some(bundle) = bundle {
            // CPI attribution: remember the supply path so empty-window
            // cycles split into trace-cache misses vs. redirect refills.
            self.last_fetch_tc = seg.is_some();
            self.observers.emit(
                self.cycle,
                Event::Pipeline(Pipe::Fetch {
                    pc,
                    count: bundle.slots.len() as u8,
                    seg,
                }),
            );
            self.fetch_buffer = Some(bundle);
        }
    }

    /// Builds a bundle from a trace cache line. The bundle holds the
    /// line once; each slot names its instruction by position in it, and
    /// issue reads the rest there.
    fn fetch_from_line(
        &mut self,
        hit: TcHit,
        preds: &[tracefill_uarch::pht::Prediction; 3],
    ) -> Option<FetchBundle> {
        let line = hit.seg;
        let seg: &Line = &line;
        let mut slots = self.slot_buffer();
        let mut diverge_at: Option<usize> = None;
        let mut pred_idx = 0usize;
        let mut truncated = false;
        let mut next_fetch: Option<u32> = None;

        for (i, s) in seg.slots.iter().enumerate() {
            if truncated {
                break;
            }
            let in_shadow = diverge_at.is_some_and(|d| i > d);
            let mut branch_meta = None;

            if s.op.is_cond_branch() {
                let embedded = s.taken.expect("segment branch has embedded direction");
                let promoted = seg
                    .branches
                    .iter()
                    .find(|b| b.slot as usize == i)
                    .map(|b| b.promoted)
                    .unwrap_or(false);
                let ras_snap = self.ras.snapshot();
                let ghr_snap = self.predictor.snapshot();
                let (pred_taken, prediction) = if promoted {
                    (embedded, None)
                } else {
                    let p = preds[pred_idx.min(2)];
                    pred_idx += 1;
                    (if in_shadow { embedded } else { p.taken }, Some(p))
                };
                if !in_shadow {
                    if !promoted {
                        self.predictor.push_history(pred_taken);
                    }
                    if pred_taken != embedded {
                        // Prediction departs from the line's path here.
                        if self.cfg.inactive_issue {
                            diverge_at = Some(i);
                        } else {
                            truncated = true;
                        }
                        // Fetch continues along the *predicted* direction.
                        next_fetch = Some(if pred_taken {
                            s.orig.taken_target(s.pc).unwrap()
                        } else {
                            s.pc.wrapping_add(4)
                        });
                    }
                }
                branch_meta = Some(BranchFetchMeta {
                    pred_taken: Some(pred_taken),
                    pred_target: None,
                    prediction,
                    promoted,
                    embedded: Some(embedded),
                    ras_snap,
                    ghr_snap,
                });
            } else if s.op.is_indirect() {
                // Always the final slot of a segment.
                let ras_snap = self.ras.snapshot();
                let ghr_snap = self.predictor.snapshot();
                let mut pred_target = None;
                if !in_shadow {
                    pred_target = Some(self.predict_indirect(s.pc, s.orig));
                }
                branch_meta = Some(BranchFetchMeta {
                    pred_taken: None,
                    pred_target,
                    prediction: None,
                    promoted: false,
                    embedded: None,
                    ras_snap,
                    ghr_snap,
                });
                if s.op == Op::Jalr && !in_shadow {
                    self.ras.push(s.pc.wrapping_add(4));
                }
            } else if s.op == Op::Jal && !in_shadow {
                self.ras.push(s.pc.wrapping_add(4));
            }

            slots.push_back(FetchSlot {
                src: SlotSource::Line(i as u8),
                fu: seg.issue_pos[i],
                miss_head: false,
                inactive: in_shadow,
                branch: branch_meta,
            });
        }

        // Where does fetch continue?
        let shadow_resume;
        if let Some(nf) = next_fetch {
            // Divergence (or truncation): continue on the predicted path;
            // the shadow, if any, resumes at the line's own continuation.
            shadow_resume = match seg.next_fetch_pc() {
                Some(pc) => ShadowResume::Pc(pc),
                None => ShadowResume::Indirect,
            };
            self.fetch_pc = nf;
        } else {
            shadow_resume = ShadowResume::Pc(0); // unused: no divergence
            match seg.next_fetch_pc() {
                Some(pc) => self.fetch_pc = pc,
                None => {
                    // Segment ends in an indirect jump: predicted at fetch.
                    let last = slots.back().expect("segment has slots");
                    let last_pc = seg.slots.last().expect("segment has slots").pc;
                    let target = last
                        .branch
                        .as_ref()
                        .and_then(|b| b.pred_target)
                        .unwrap_or(last_pc.wrapping_add(4));
                    self.fetch_pc = target;
                }
            }
        }

        Some(FetchBundle {
            line: Some(line),
            slots,
            diverge_at,
            shadow_resume,
        })
    }

    /// An empty slot buffer for a new bundle: the last issued bundle's,
    /// when there is one.
    fn slot_buffer(&mut self) -> VecDeque<FetchSlot> {
        let mut slots = std::mem::take(&mut self.slot_buf);
        slots.reserve(self.cfg.fetch_width);
        slots
    }

    /// Predicts the target of an indirect jump at fetch time: returns use
    /// the RAS, other indirects the last-target buffer.
    fn predict_indirect(&mut self, pc: u32, instr: Instr) -> u32 {
        let is_return = instr.op == Op::Jr && instr.rs == ArchReg::RA;
        if is_return {
            if let Some(t) = self.ras.pop() {
                return t;
            }
        }
        self.itb.predict(pc).unwrap_or_else(|| pc.wrapping_add(4))
    }

    /// Builds a bundle from the supporting instruction cache: sequential
    /// instructions up to the first control transfer, the fetch width, or
    /// the cache-line boundary.
    fn fetch_from_icache(
        &mut self,
        pc: u32,
        preds: &[tracefill_uarch::pht::Prediction; 3],
    ) -> Option<FetchBundle> {
        let line_bytes = self.cfg.hierarchy.l1i.line_bytes;
        let to_line_end = ((line_bytes - (pc & (line_bytes - 1))) / 4) as usize;
        let max = self.cfg.fetch_width.min(to_line_end).max(1);

        let mut slots = self.slot_buffer();
        let mut next_fetch = pc;
        for i in 0..max {
            let cur = pc.wrapping_add(4 * i as u32);
            let Ok(instr) = self.mem.fetch(cur) else {
                // Wrong-path garbage (or a bad program, which the oracle
                // will flag at retire). Stop the block here.
                break;
            };
            let mut branch_meta = None;
            let mut stop = false;
            next_fetch = cur.wrapping_add(4);

            match instr.op {
                op if op.is_cond_branch() => {
                    let ras_snap = self.ras.snapshot();
                    let ghr_snap = self.predictor.snapshot();
                    let p = preds[0];
                    self.predictor.push_history(p.taken);
                    if p.taken {
                        next_fetch = instr.taken_target(cur).unwrap();
                    }
                    branch_meta = Some(BranchFetchMeta {
                        pred_taken: Some(p.taken),
                        pred_target: None,
                        prediction: Some(p),
                        promoted: false,
                        embedded: None,
                        ras_snap,
                        ghr_snap,
                    });
                    stop = true;
                }
                Op::J => {
                    next_fetch = instr.taken_target(cur).unwrap();
                    stop = true;
                }
                Op::Jal => {
                    self.ras.push(cur.wrapping_add(4));
                    next_fetch = instr.taken_target(cur).unwrap();
                    stop = true;
                }
                Op::Jr | Op::Jalr => {
                    let ras_snap = self.ras.snapshot();
                    let ghr_snap = self.predictor.snapshot();
                    let target = self.predict_indirect(cur, instr);
                    if instr.op == Op::Jalr {
                        self.ras.push(cur.wrapping_add(4));
                    }
                    branch_meta = Some(BranchFetchMeta {
                        pred_taken: None,
                        pred_target: Some(target),
                        prediction: None,
                        promoted: false,
                        embedded: None,
                        ras_snap,
                        ghr_snap,
                    });
                    next_fetch = target;
                    stop = true;
                }
                Op::Syscall | Op::Break => {
                    stop = true;
                }
                _ => {}
            }

            slots.push_back(FetchSlot {
                src: SlotSource::Raw(cur, instr),
                fu: (slots.len() % self.cfg.num_fus()) as u8,
                miss_head: i == 0,
                inactive: false,
                branch: branch_meta,
            });
            if stop {
                break;
            }
        }
        if slots.is_empty() {
            // Nothing decodable at this PC; wait for a redirect.
            self.slot_buf = slots;
            return None;
        }
        self.fetch_pc = next_fetch;
        Some(FetchBundle {
            line: None,
            slots,
            diverge_at: None,
            shadow_resume: ShadowResume::Pc(0),
        })
    }
}
