//! Retire stage: in-order completion, oracle lockstep checking, predictor
//! and bias training, and feeding the fill unit.

use crate::machine::{SimError, Simulator};
use crate::observe::Event;
use crate::oracle::{DivergenceReport, RetireEcho, SegSource};
use crate::repair::RepairEvent;
use crate::tracelog::Event as Pipe;
use tracefill_core::builder::FillInput;
use tracefill_isa::interp::Retired;
use tracefill_isa::syscall;
use tracefill_isa::ArchReg;
use tracefill_isa::Op;

impl Simulator {
    /// Echoes the about-to-retire uop into the divergence ring buffer
    /// (bounded by [`SimConfig::divergence_ring`](crate::SimConfig)), so a
    /// later divergence report can show the trail that led to it.
    fn echo_retire(&mut self, id: u64) {
        if self.cfg.divergence_ring == 0 {
            return;
        }
        let u = &self.uops[id];
        let echo = RetireEcho {
            cycle: self.cycle,
            seq: self.stats.retired,
            pc: u.pc,
            instr: u.instr,
            from_tc: u.from_tc,
            seg_id: u.seg.as_ref().map(|s| s.provenance.seg_id),
        };
        if self.retire_ring.len() >= self.cfg.divergence_ring {
            self.retire_ring.pop_front();
        }
        self.retire_ring.push_back(echo);
    }

    /// Builds a structured divergence report for the retiring uop,
    /// attributing it to the originating trace segment when there is one.
    fn divergence_report(
        &self,
        id: u64,
        kind: &'static str,
        expected: String,
        actual: String,
    ) -> Box<DivergenceReport> {
        let u = &self.uops[id];
        Box::new(DivergenceReport {
            cycle: self.cycle,
            seq: self.stats.retired,
            pc: u.pc,
            kind,
            expected,
            actual,
            recent: self.retire_ring.iter().cloned().collect(),
            provenance: u.seg.as_deref().map(SegSource::of),
        })
    }

    /// As [`divergence_report`](Self::divergence_report), wrapped as the
    /// fatal error.
    fn divergence(
        &self,
        id: u64,
        kind: &'static str,
        expected: String,
        actual: String,
    ) -> SimError {
        SimError::Divergence(self.divergence_report(id, kind, expected, actual))
    }
    /// Retire phase: up to `fetch_width` completed head-of-window uops.
    pub(crate) fn phase_retire(&mut self) -> Result<(), SimError> {
        for _ in 0..self.cfg.fetch_width {
            let Some(&head) = self.window.front() else {
                break;
            };
            let u = &self.uops[head];

            // Readiness.
            if u.is_system() {
                // Serializing ops execute at retirement, with the whole
                // machine drained ahead of them.
                self.retire_system(head)?;
                if self.halted.is_some() {
                    return Ok(());
                }
                continue;
            }
            let done = u.is_done();
            let branch_ok = match &u.branch {
                Some(b) => b.resolved,
                None => true,
            };
            if !done || !branch_ok {
                break;
            }

            self.retire_one(head)?;
        }
        // Segments whose fill latency elapsed enter the trace cache,
        // routed through the fault injector when a plan is active.
        let ready = self.fill.drain_ready(self.cycle);
        let incoming = match self.injector.as_mut() {
            Some(inj) => {
                let mut v: Vec<_> = ready
                    .into_iter()
                    .filter_map(|seg| inj.on_fill(seg, self.cycle))
                    .collect();
                v.extend(inj.release_stalled(self.cycle));
                v
            }
            None => ready,
        };
        for seg in incoming {
            // A segment carrying an injected-fault note is re-checked at
            // the cache boundary when strict verification is on: a caught
            // corruption counts as *detected* and never becomes cache
            // state. (A fault the check accepts — e.g. a truncation to a
            // valid prefix — is architecturally masked and flows through.)
            if seg.provenance.fault.is_some()
                && self.fill.config().strict_verify
                && tracefill_core::opt::strict_check(&seg).is_err()
            {
                self.observers.emit(self.cycle, Event::FaultDetected);
                continue;
            }
            let outcome = self.tcache.insert(std::sync::Arc::clone(&seg));
            self.observers.emit(
                self.cycle,
                Event::Insert {
                    seg: &seg,
                    outcome: &outcome,
                },
            );
        }
        // The fill unit's own always-on verifier rejecting a segment is a
        // divergence in its own right: an optimization pass broke the
        // segment, even if the (dropped) segment never misled fetch.
        if let Some(vf) = self.fill.take_verify_failure() {
            if self.cfg.self_repair.enabled {
                // The rejected segment never reached the cache, so the
                // ladder charge *is* the repair: no squash, no restore —
                // architectural state was never at risk.
                let escalations = self.fill.record_offense(&vf.passes, vf.end);
                self.repairs.push(RepairEvent {
                    cycle: self.cycle,
                    seq: self.stats.retired,
                    pc: vf.start_pc,
                    kind: "segment-verify",
                    expected: "optimized segment equivalent to its original".to_string(),
                    actual: vf.detail,
                    provenance: Some(SegSource {
                        seg_id: vf.seg_id,
                        start_pc: vf.start_pc,
                        len: vf.len,
                        passes: vf.passes,
                        fault: vf.fault,
                    }),
                    invalidated: false,
                    escalations,
                });
                return Ok(());
            }
            return Err(SimError::Divergence(Box::new(DivergenceReport {
                cycle: self.cycle,
                seq: self.stats.retired,
                pc: vf.start_pc,
                kind: "segment-verify",
                expected: "optimized segment equivalent to its original".to_string(),
                actual: vf.detail,
                recent: self.retire_ring.iter().cloned().collect(),
                provenance: Some(SegSource {
                    seg_id: vf.seg_id,
                    start_pc: vf.start_pc,
                    len: vf.len,
                    passes: vf.passes,
                    fault: vf.fault,
                }),
            })));
        }
        Ok(())
    }

    /// Retires one ordinary uop.
    fn retire_one(&mut self, id: u64) -> Result<(), SimError> {
        self.echo_retire(id);
        // Oracle lockstep first: any divergence is a simulator bug or an
        // injected fault — fatal, unless self-repair contains it.
        if self.cfg.oracle_check {
            let (r, div) = self.check_against_oracle(id)?;
            if let Some(report) = div {
                if self.cfg.self_repair.enabled {
                    self.contain_divergence(id, *report, &r);
                    return Ok(());
                }
                return Err(SimError::Divergence(report));
            }
        } else {
            // Still step the oracle to keep lockstep for later checks.
            self.oracle.step().map_err(SimError::Oracle)?;
        }

        let u = self.uops.get(id).expect("retiring uop exists");
        let pc = u.pc;
        let instr = u.instr;
        let op = u.op;
        let taken = u.branch.as_ref().and_then(|b| b.actual_taken);
        let actual_next = u.branch.as_ref().and_then(|b| b.actual_next);
        let pred_taken = u.branch.as_ref().and_then(|b| b.pred_taken);
        let pred_target = u.branch.as_ref().and_then(|b| b.pred_target);
        let prediction = u.branch.as_ref().and_then(|b| b.prediction);
        let prev_phys = u.prev_phys;
        let store = u
            .mem
            .as_ref()
            .filter(|m| !m.is_load)
            .map(|m| (m.addr.expect("retired store has address"), m.size, m.value));

        // Stats.
        self.stats.retired += 1;
        self.cpi_flags.retired += 1; // this cycle's CPI-stack `base` slots
        self.stats.retired_moves += u.is_move as u64;
        self.stats.retired_reassoc += u.reassociated as u64;
        self.stats.retired_scadd += u.scadd.is_some() as u64;
        self.stats.retired_from_tc += u.from_tc as u64;
        self.stats.fu_executed += u.fu_executed as u64;
        self.stats.bypass_delayed += u.bypass_delayed as u64;
        let seg = u.tc_seg();

        // Commit stores to memory.
        if let Some((addr, size, value)) = store {
            self.mem.write_sized(addr, size, value);
        }

        // Branch bookkeeping.
        if op.is_cond_branch() {
            let taken = taken.expect("retired branch resolved");
            self.stats.branches += 1;
            if pred_taken != Some(taken) {
                self.stats.branch_mispredicts += 1;
            }
            self.bias.observe(pc, taken);
            if let Some(p) = prediction {
                self.predictor.update(p, taken);
            }
        }
        if op.is_indirect() {
            let actual = actual_next.expect("retired indirect resolved");
            self.stats.indirects += 1;
            if pred_target != Some(actual) {
                self.stats.indirect_mispredicts += 1;
            }
            self.itb.update(pc, actual);
        }

        // Feed the fill unit (after the bias observation, so promotion
        // state is current).
        let promoted = if op.is_cond_branch() && self.fill.config().promotion {
            self.bias.promoted(pc)
        } else {
            None
        };
        let fetch_miss_head = self.uops[id].miss_head;
        self.fill.retire(
            FillInput {
                pc,
                instr,
                taken,
                promoted,
                fetch_miss_head,
            },
            self.cycle,
        );

        // Release source holds and the displaced mapping, drop
        // checkpoints/shadows owned by this uop, and leave the window.
        let srcs = self.uops[id].srcs;
        for p in srcs.into_iter().flatten() {
            self.phys.release(p);
        }
        if let Some(prev) = prev_phys {
            self.phys.release(prev);
        }
        self.checkpoints.retain(|c| c.branch != id);
        self.drop_shadow(id);
        if self.stores.front() == Some(&id) {
            self.stores.pop_front();
        }
        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Retire { uop: id, pc, seg }),
        );
        self.window.pop_front();
        self.uops.remove(id);
        self.last_retire_cycle = self.cycle;
        Ok(())
    }

    /// Retires a serializing system op (`SYSCALL`/`BREAK`), executing it
    /// against architectural state.
    fn retire_system(&mut self, id: u64) -> Result<(), SimError> {
        self.echo_retire(id);
        let u = self.uops.get(id).expect("retiring uop exists");
        // Architectural reads: all older uops retired, so every live
        // mapping is ready. The syscall itself renamed $v0 at issue, so
        // the service number lives in the mapping it displaced.
        let service_phys = u.prev_phys.unwrap_or(self.rat[ArchReg::V0.index()]);
        let service = self.phys.value(service_phys);
        let a0 = self.phys.value(self.rat[ArchReg::A0.index()]);

        let pc = u.pc;
        let op = u.op;
        let dest = u.dest;
        let prev_phys = u.prev_phys;
        let from_tc = u.from_tc;
        let seg = u.tc_seg();
        let instr = u.instr;

        if op == Op::Syscall {
            match syscall::execute(service, a0, &mut self.io) {
                Ok(outcome) => {
                    // The syscall renamed $v0; its new mapping holds either
                    // the service result or the unchanged old value.
                    let (_, p) = dest.expect("syscall uop renames $v0");
                    let v0 = outcome.reg_write.map(|(_, v)| v).unwrap_or(service);
                    self.phys.write_arch(p, v0);
                    if let Some(code) = outcome.exit {
                        self.halted = Some(tracefill_isa::interp::Halt::Exited(code));
                    }
                }
                Err(e) => {
                    return Err(self.divergence(
                        id,
                        "syscall",
                        "a recognized syscall service".to_string(),
                        format!("unknown syscall at {pc:#x}: {e}"),
                    ))
                }
            }
        } else {
            self.halted = Some(tracefill_isa::interp::Halt::Break);
        }

        // Oracle lockstep. The syscall already executed against the
        // pipeline's I/O above; on divergence, containment re-adopts the
        // oracle's I/O and halt state wholesale.
        if self.cfg.oracle_check {
            let r = self.oracle.step().map_err(SimError::Oracle)?;
            let mut div: Option<Box<DivergenceReport>> = None;
            if r.pc != pc || r.instr != instr {
                div = Some(self.divergence_report(
                    id,
                    "stream",
                    format!("{:#010x} `{}`", r.pc, r.instr),
                    format!("{pc:#010x} `{instr}`"),
                ));
            } else if let Some((reg, val)) = r.reg_write {
                let p = self.rat[reg.index()];
                let got = self.phys.value(p);
                if got != val {
                    div = Some(self.divergence_report(
                        id,
                        "syscall",
                        format!("{reg} = {val:#x}"),
                        format!("{reg} = {got:#x}"),
                    ));
                }
            }
            if let Some(report) = div {
                if self.cfg.self_repair.enabled {
                    self.contain_divergence(id, *report, &r);
                    return Ok(());
                }
                return Err(SimError::Divergence(report));
            }
        } else {
            self.oracle.step().map_err(SimError::Oracle)?;
        }

        self.stats.retired += 1;
        self.cpi_flags.retired += 1; // this cycle's CPI-stack `base` slots
        self.stats.retired_from_tc += from_tc as u64;
        self.fill.retire(
            FillInput {
                pc,
                instr,
                taken: None,
                promoted: None,
                fetch_miss_head: false,
            },
            self.cycle,
        );

        let srcs = self.uops[id].srcs;
        for p in srcs.into_iter().flatten() {
            self.phys.release(p);
        }
        if let Some(prev) = prev_phys {
            self.phys.release(prev);
        }
        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Retire { uop: id, pc, seg }),
        );
        self.window.pop_front();
        self.uops.remove(id);
        self.serialize = None;
        self.fetch_pc = pc.wrapping_add(4);
        self.fetch_stall_until = 0;
        self.last_retire_cycle = self.cycle;
        Ok(())
    }

    /// Compares the retiring uop's architectural effects against the
    /// functional oracle.
    ///
    /// Steps the oracle through the instruction and returns its retirement
    /// record plus the first mismatch, if any, as a structured report —
    /// the caller decides whether the divergence is fatal or contained by
    /// self-repair. An oracle fault (bad program) is always fatal.
    #[allow(clippy::type_complexity)]
    fn check_against_oracle(
        &mut self,
        id: u64,
    ) -> Result<(Retired, Option<Box<DivergenceReport>>), SimError> {
        let r = self.oracle.step().map_err(SimError::Oracle)?;
        let u = &self.uops[id];
        if r.pc != u.pc || r.instr != u.instr {
            let report = self.divergence_report(
                id,
                "stream",
                format!("{:#010x} `{}`", r.pc, r.instr),
                format!("{:#010x} `{}`", u.pc, u.instr),
            );
            return Ok((r, Some(report)));
        }
        // Register write.
        let sim_write = u.dest.map(|(reg, p)| (reg, self.phys.value(p)));
        if sim_write != r.reg_write {
            let report = self.divergence_report(
                id,
                "register-effect",
                fmt_write(r.reg_write),
                fmt_write(sim_write),
            );
            return Ok((r, Some(report)));
        }
        // Store effect.
        let sim_store = u
            .mem
            .as_ref()
            .filter(|m| !m.is_load)
            .map(|m| (m.addr.unwrap_or(0), m.size, m.value));
        if sim_store != r.store {
            let report = self.divergence_report(
                id,
                "store-effect",
                fmt_store(r.store),
                fmt_store(sim_store),
            );
            return Ok((r, Some(report)));
        }
        // Branch direction.
        let sim_taken = u.branch.as_ref().and_then(|b| b.actual_taken);
        if u.op.is_cond_branch() && sim_taken != r.taken {
            let report = self.divergence_report(
                id,
                "branch-direction",
                format!("{:?}", r.taken),
                format!("{sim_taken:?}"),
            );
            return Ok((r, Some(report)));
        }
        // Control flow of indirect jumps.
        if u.op.is_indirect() {
            let sim_next = u.branch.as_ref().and_then(|b| b.actual_next);
            if sim_next != Some(r.next_pc) {
                let report = self.divergence_report(
                    id,
                    "indirect-target",
                    format!("next pc {:#010x}", r.next_pc),
                    match sim_next {
                        Some(n) => format!("next pc {n:#010x}"),
                        None => "unresolved".to_string(),
                    },
                );
                return Ok((r, Some(report)));
            }
        }
        Ok((r, None))
    }

    /// Contains a lockstep divergence under self-repair.
    ///
    /// The oracle has already executed the diverging instruction; nothing
    /// of it was committed by the pipeline. Containment charges the
    /// offense to the offending segment's passes, invalidates that
    /// segment in the trace cache, squashes the entire machine, adopts
    /// the oracle's architectural state (registers, the instruction's
    /// store, I/O and halt), and resumes through the conventional fetch
    /// path. The retire sequence strictly advances, so repair always
    /// makes forward progress.
    fn contain_divergence(&mut self, id: u64, report: DivergenceReport, r: &Retired) {
        // Attribute and invalidate before the squash forgets the uop.
        let seg = self.uops.get(id).and_then(|u| u.seg.clone());
        let (passes, class) = match seg.as_deref() {
            Some(s) => (s.provenance.passes(), s.end.name()),
            None => (Vec::new(), "unknown"),
        };
        let invalidated = match seg.as_deref() {
            Some(s) => {
                let seg = s.provenance.seg_id;
                let removed = self.tcache.invalidate(s.start_pc, seg).is_some();
                if removed {
                    self.observers.emit(self.cycle, Event::Invalidate { seg });
                }
                removed
            }
            None => false,
        };
        let escalations = self.fill.record_offense(&passes, class);

        // Containment proper.
        self.cpi_flags.recovered = true;
        self.repair_squash();
        if let Some((addr, size, value)) = r.store {
            self.mem.write_sized(addr, size, value);
        }
        self.io = self.oracle.io().clone();
        self.halted = self.oracle.halted();

        // The diverging instruction retires with the oracle's effects.
        self.stats.retired += 1;
        self.cpi_flags.retired += 1;
        self.last_retire_cycle = self.cycle;

        // The fill unit's partial segment straddles the divergence; drop
        // it and resume building on the far side.
        self.fill.flush_partial();

        // Resume down the conventional path at the oracle's next PC.
        self.fetch_pc = r.next_pc;
        self.fetch_stall_until = 0;
        self.last_fetch_tc = false;
        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Repair {
                pc: report.pc,
                redirect: r.next_pc,
            }),
        );
        self.repairs.push(RepairEvent {
            cycle: report.cycle,
            seq: report.seq,
            pc: report.pc,
            kind: report.kind,
            expected: report.expected,
            actual: report.actual,
            provenance: report.provenance,
            invalidated,
            escalations,
        });
    }
}

/// Renders an optional register write for a divergence report.
fn fmt_write(w: Option<(ArchReg, u32)>) -> String {
    match w {
        Some((reg, val)) => format!("{reg} = {val:#x}"),
        None => "no register write".to_string(),
    }
}

/// Renders an optional store effect for a divergence report.
fn fmt_store(s: Option<(u32, u32, u32)>) -> String {
    match s {
        Some((addr, size, value)) => format!("[{addr:#010x}] <- {value:#x} ({size}B)"),
        None => "no store".to_string(),
    }
}
