//! Retire stage: in-order completion, oracle lockstep checking, predictor
//! and bias training, feeding the fill unit, and the one decision point
//! for every divergence either checker finds.

use crate::machine::{SimError, Simulator};
use crate::observe::Event;
use crate::oracle::{DivergenceReport, RetireEcho, SegSource, RING_DEPTH};
use crate::repair::RepairEvent;
use crate::tracelog::Event as Pipe;
use tracefill_core::builder::FillInput;
use tracefill_core::segment::Line;
use tracefill_isa::interp::Retired;
use tracefill_isa::syscall;
use tracefill_isa::ArchReg;
use tracefill_isa::Op;

/// What [`Simulator::lockstep`] returns: nothing, or a mismatch with the
/// oracle's record, boxed so that the common, clean retirement returns a
/// small value.
pub(crate) type Lockstep = Result<Option<Box<(DivergenceReport, Retired)>>, SimError>;

/// How self-repair contains a divergence.
enum Contain {
    /// Strict verification rejected a segment of provenance class
    /// `class`. It never reached the trace cache and architectural state
    /// was never at risk, so charging the ladder is the whole repair.
    Charge { class: &'static str },
    /// The oracle, already stepped through retiring uop `id` (its record
    /// is `oracle`), disagrees with it: squash, restore and resume.
    Restore { id: u64, oracle: Retired },
}

impl Simulator {
    /// Echoes the about-to-retire uop into the divergence ring buffer, so
    /// a later divergence report can show the trail that led to it.
    fn echo_retire(&mut self, id: u64) {
        let u = &self.uops[id];
        let echo = RetireEcho {
            cycle: self.cycle,
            seq: self.stats.retired,
            pc: u.pc,
            instr: u.instr,
            from_tc: u.from_tc,
            seg_id: u.tc_seg(),
        };
        if self.retire_ring.len() >= RING_DEPTH {
            self.retire_ring.pop_front();
        }
        self.retire_ring.push_back(echo);
    }

    /// A divergence report at `pc` for the current cycle and retire
    /// sequence, carrying the recent-retirement ring.
    fn site(
        &self,
        pc: u32,
        kind: &'static str,
        expected: String,
        actual: String,
        provenance: Option<SegSource>,
    ) -> DivergenceReport {
        DivergenceReport {
            cycle: self.cycle,
            seq: self.stats.retired,
            pc,
            kind,
            expected,
            actual,
            recent: self.retire_ring.iter().cloned().collect(),
            provenance,
        }
    }

    /// A divergence report for retiring uop `id`, attributed to the trace
    /// segment it came from, if any.
    fn uop_site(
        &self,
        id: u64,
        kind: &'static str,
        expected: String,
        actual: String,
    ) -> DivergenceReport {
        let provenance = self.fetched_line(id).map(SegSource::of);
        self.site(self.uops[id].pc, kind, expected, actual, provenance)
    }

    /// The one abort-or-contain decision for every divergence. Without
    /// self-repair, `site` becomes the fatal error. With it, the
    /// divergence is contained as `contain` says, the offense is charged
    /// to the site's passes under the segment's provenance class, the
    /// repair is recorded, and the run goes on.
    fn diverge(&mut self, site: DivergenceReport, contain: Contain) -> Result<(), SimError> {
        if !self.cfg.self_repair.enabled {
            return Err(SimError::Divergence(Box::new(site)));
        }
        let passes = site.provenance.as_ref().map_or(&[][..], |p| &p.passes[..]);
        let (invalidated, escalations) = match contain {
            Contain::Charge { class } => (false, self.fill.record_offense(passes, class)),
            Contain::Restore { id, oracle } => {
                // Attribute and invalidate before the squash forgets the
                // uop.
                let line = self.fetched_line(id);
                let line = line.map(|l| (l.start_pc, l.provenance.seg_id, l.end.name()));
                let invalidated = line.is_some_and(|(start_pc, seg, _)| {
                    let removed = self.tcache.invalidate(start_pc, seg).is_some();
                    if removed {
                        self.observers.emit(self.cycle, Event::Invalidate { seg });
                    }
                    removed
                });
                let class = line.map_or("unknown", |(_, _, class)| class);
                let escalations = self.fill.record_offense(passes, class);
                self.restore(site.pc, &oracle);
                (invalidated, escalations)
            }
        };
        self.repairs.push(RepairEvent {
            site,
            invalidated,
            escalations,
        });
        Ok(())
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
        let ready: Vec<Line> = self.fill.drain_ready(self.cycle);
        let incoming = match self.injector.as_mut() {
            Some(inj) => {
                let mut v: Vec<_> = ready
                    .into_iter()
                    .filter_map(|line| inj.on_fill(line, self.cycle))
                    .collect();
                v.extend(inj.release_stalled(self.cycle));
                v
            }
            None => ready,
        };
        for line in incoming {
            // A segment carrying an injected-fault note is re-checked at
            // the cache boundary when strict verification is on: a caught
            // corruption counts as *detected* and never becomes cache
            // state. (A fault the check accepts — e.g. a truncation to a
            // valid prefix — is architecturally masked and flows through.)
            if line.fault.is_some()
                && self.fill.config().strict_verify
                && tracefill_core::opt::strict_check(&line).is_err()
            {
                self.observers.emit(self.cycle, Event::FaultDetected);
                continue;
            }
            let seg = std::sync::Arc::clone(&line.seg);
            let outcome = self.tcache.insert(line);
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
            let site = self.site(
                vf.seg.start_pc,
                "segment-verify",
                "optimized segment equivalent to its original".to_string(),
                vf.detail,
                Some(vf.seg),
            );
            return self.diverge(site, Contain::Charge { class: vf.end });
        }
        Ok(())
    }

    /// Retires one ordinary uop.
    fn retire_one(&mut self, id: u64) -> Result<(), SimError> {
        self.echo_retire(id);
        // Oracle lockstep first: any divergence is a simulator bug or an
        // injected fault.
        if let Some(found) = self.lockstep(id)? {
            let (site, oracle) = *found;
            return self.diverge(site, Contain::Restore { id, oracle });
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
        let store = u.mem.as_ref().filter(|m| !m.is_load).map(|m| {
            let addr = m.addr.expect("retired store has address");
            (addr, u32::from(m.size), m.value)
        });

        // Stats.
        self.stats.retired += 1;
        self.cpi_flags.retired += 1; // this cycle's CPI-stack `base` slots
        self.stats.retired_moves += u.is_move as u64;
        self.stats.retired_reassoc += u.reassociated as u64;
        self.stats.retired_scadd += u.scadd.is_some() as u64;
        self.stats.retired_from_tc += u.from_tc as u64;
        self.stats.fu_executed += u.fu_executed as u64;
        self.stats.bypass_delayed += u.bypass_delayed as u64;

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

        self.leave_window(id);
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
        let from_tc = u.from_tc;
        let instr = u.instr;

        if op == Op::Syscall {
            match syscall::execute(service, a0, &mut self.io) {
                Ok(outcome) => {
                    // The syscall renamed $v0; its new mapping holds either
                    // the service result or the unchanged old value.
                    let (_, p) = dest.expect("syscall uop renames $v0");
                    let v0 = outcome.reg_write.map(|(_, v)| v).unwrap_or(service);
                    self.publish_arch(p, v0);
                    if let Some(code) = outcome.exit {
                        self.halted = Some(tracefill_isa::interp::Halt::Exited(code));
                    }
                }
                Err(e) => {
                    // A bad program, not a machine fault: always fatal.
                    return Err(SimError::Divergence(Box::new(self.uop_site(
                        id,
                        "syscall",
                        "a recognized syscall service".to_string(),
                        format!("unknown syscall at {pc:#x}: {e}"),
                    ))));
                }
            }
        } else {
            self.halted = Some(tracefill_isa::interp::Halt::Break);
        }

        // Oracle lockstep. The syscall already executed against the
        // pipeline's I/O above; on divergence, containment re-adopts the
        // oracle's I/O and halt state wholesale.
        if let Some(found) = self.lockstep(id)? {
            let (site, oracle) = *found;
            return self.diverge(site, Contain::Restore { id, oracle });
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

        self.leave_window(id);
        self.serialize = None;
        self.fetch_pc = pc.wrapping_add(4);
        self.fetch_stall_until = 0;
        Ok(())
    }

    /// The end of every retirement: releases the uop's source holds and
    /// the mapping it displaced, drops the checkpoint and shadow it owns,
    /// takes it off the store queue, the window and the uop table, and
    /// drops the trace lines no uop in flight came from.
    fn leave_window(&mut self, id: u64) {
        let u = &self.uops[id];
        let (pc, seg, srcs, prev_phys) = (u.pc, u.tc_seg(), u.srcs, u.prev_phys);
        for p in srcs.into_iter().flatten() {
            self.phys.release(p);
        }
        if let Some(prev) = prev_phys {
            self.phys.release(prev);
        }
        // The retiring uop is the oldest in flight, so a checkpoint it
        // owns is the front one.
        debug_assert!(self.checkpoints.front().is_none_or(|c| c.branch >= id));
        if self.checkpoints.front().is_some_and(|c| c.branch == id) {
            self.checkpoints.pop_front();
        }
        self.drop_shadow(id);
        if self.stores.front() == Some(&id) {
            self.stores.pop_front();
            // Loads a partial overlap held back may go now.
            self.wake_parked(id);
        }
        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Retire { uop: id, pc, seg }),
        );
        self.window.pop_front();
        self.uops.remove(id);
        self.lines.prune(self.uops.oldest());
        self.last_retire_cycle = self.cycle;
    }

    /// Steps the oracle through retiring uop `id` and, when the oracle
    /// check is on, compares the uop's architectural effects with it.
    /// Returns the first mismatch, with the oracle's record, for
    /// [`diverge`](Self::diverge) to decide. An oracle fault (bad program)
    /// is always fatal.
    fn lockstep(&mut self, id: u64) -> Lockstep {
        let r = self.oracle.step().map_err(SimError::Oracle)?;
        if !self.cfg.oracle_check {
            return Ok(None);
        }
        Ok(self.compare(id, &r).map(|site| Box::new((site, r))))
    }

    /// The first way retiring uop `id` disagrees with the oracle's record
    /// `r`, if any. A system op's one checked effect is the syscall
    /// result, read through the rename table.
    fn compare(&self, id: u64, r: &Retired) -> Option<DivergenceReport> {
        let u = &self.uops[id];
        if r.pc != u.pc || r.instr != u.instr {
            return Some(self.uop_site(
                id,
                "stream",
                format!("{:#010x} `{}`", r.pc, r.instr),
                format!("{:#010x} `{}`", u.pc, u.instr),
            ));
        }
        if u.is_system() {
            let (reg, val) = r.reg_write?;
            let got = self.phys.value(self.rat[reg.index()]);
            return (got != val).then(|| {
                self.uop_site(
                    id,
                    "syscall",
                    format!("{reg} = {val:#x}"),
                    format!("{reg} = {got:#x}"),
                )
            });
        }
        // Register write.
        let sim_write = u.dest.map(|(reg, p)| (reg, self.phys.value(p)));
        if sim_write != r.reg_write {
            return Some(self.uop_site(
                id,
                "register-effect",
                fmt_write(r.reg_write),
                fmt_write(sim_write),
            ));
        }
        // Store effect.
        let sim_store = u
            .mem
            .as_ref()
            .filter(|m| !m.is_load)
            .map(|m| (m.addr.unwrap_or(0), u32::from(m.size), m.value));
        if sim_store != r.store {
            return Some(self.uop_site(
                id,
                "store-effect",
                fmt_store(r.store),
                fmt_store(sim_store),
            ));
        }
        // Branch direction.
        let sim_taken = u.branch.as_ref().and_then(|b| b.actual_taken);
        if u.op.is_cond_branch() && sim_taken != r.taken {
            return Some(self.uop_site(
                id,
                "branch-direction",
                format!("{:?}", r.taken),
                format!("{sim_taken:?}"),
            ));
        }
        // Control flow of indirect jumps.
        if u.op.is_indirect() {
            let sim_next = u.branch.as_ref().and_then(|b| b.actual_next);
            if sim_next != Some(r.next_pc) {
                return Some(self.uop_site(
                    id,
                    "indirect-target",
                    format!("next pc {:#010x}", r.next_pc),
                    match sim_next {
                        Some(n) => format!("next pc {n:#010x}"),
                        None => "unresolved".to_string(),
                    },
                ));
            }
        }
        None
    }

    /// Contains a lockstep divergence at `pc` once the oracle has stepped
    /// through it (its record is `oracle`); nothing of the instruction was
    /// committed by the pipeline. Squashes the entire machine, adopts the
    /// oracle's architectural state (registers, the instruction's store,
    /// I/O and halt), retires the instruction with the oracle's effects
    /// and resumes through the conventional fetch path. The retire
    /// sequence strictly advances, so repair always makes forward
    /// progress.
    fn restore(&mut self, pc: u32, oracle: &Retired) {
        self.cpi_flags.recovered = true;
        self.repair_squash();
        if let Some((addr, size, value)) = oracle.store {
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
        self.fetch_pc = oracle.next_pc;
        self.fetch_stall_until = 0;
        self.last_fetch_tc = false;
        self.observers.emit(
            self.cycle,
            Event::Pipeline(Pipe::Repair {
                pc,
                redirect: oracle.next_pc,
            }),
        );
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RepairConfig, SimConfig};
    use tracefill_core::config::PassMask;
    use tracefill_core::quarantine::Escalation;
    use tracefill_core::{OptConfig, QuarantineConfig};
    use tracefill_isa::asm::assemble;
    use tracefill_isa::interp::Interp;
    use tracefill_isa::Program;

    fn program() -> Program {
        assemble(
            "        .text
main:   li   $s0, 200
loop:   andi $t0, $s0, 3
        add  $s1, $s1, $t0
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
",
        )
        .unwrap()
    }

    /// A machine run far enough to fill the retirement ring, with a
    /// threshold-1 ladder when self-repair is on.
    fn warmed(self_repair: bool) -> Simulator {
        let mut cfg = SimConfig::with_opts(OptConfig::all());
        cfg.self_repair = RepairConfig {
            enabled: self_repair,
            ladder: QuarantineConfig {
                quarantine_after: 1,
                disable_after: 100,
            },
        };
        let mut sim = Simulator::new(&program(), cfg);
        sim.run_instrs(100).unwrap();
        sim
    }

    /// Strict verification rejecting a segment two passes rewrote.
    fn rejected_site(sim: &Simulator) -> DivergenceReport {
        let site = sim.site(
            0x40_0004,
            "segment-verify",
            "optimized segment equivalent to its original".to_string(),
            "slot 1 reads a clobbered source".to_string(),
            Some(SegSource {
                seg_id: 3,
                start_pc: 0x40_0004,
                len: 4,
                passes: vec!["moves", "reassoc"],
                fault: None,
            }),
        );
        assert_eq!(site.recent.len(), RING_DEPTH, "the ring is full");
        assert_eq!(
            site.recent.last().map(|e| e.seq + 1),
            Some(sim.stats.retired)
        );
        site
    }

    #[test]
    fn a_rejected_segment_is_fatal_without_self_repair() {
        let mut sim = warmed(false);
        let site = rejected_site(&sim);
        let err = sim
            .diverge(site.clone(), Contain::Charge { class: "loop" })
            .expect_err("fatal without self-repair");
        let rep = err.divergence().expect("a structured divergence");
        assert_eq!(rep.kind, "segment-verify");
        assert_eq!(rep, &site, "the ring and the provenance ride along");
        assert!(sim.repairs().is_empty());
    }

    #[test]
    fn a_rejected_segment_charges_the_ladder_and_the_run_goes_on() {
        let mut sim = warmed(true);
        let site = rejected_site(&sim);
        sim.diverge(site.clone(), Contain::Charge { class: "loop" })
            .expect("contained under self-repair");
        let [ev] = sim.repairs() else {
            panic!("one repair event, got {:?}", sim.repairs());
        };
        assert_eq!(ev.site, site);
        assert!(!ev.invalidated, "the segment never reached the cache");
        let quarantined = |pass| Escalation::Quarantined {
            pass,
            class: "loop",
        };
        assert_eq!(
            ev.escalations,
            vec![quarantined("moves"), quarantined("reassoc")]
        );
        let ladder = sim.fill.quarantine().expect("armed");
        assert_eq!(ladder.offenses(), 2);
        assert_eq!(
            ladder.blocked_for("loop"),
            PassMask::MOVES.union(PassMask::REASSOC)
        );

        // The run goes on, to the interpreter's end state.
        let mut oracle = Interp::new(&program());
        let halt = oracle.run(1_000_000).unwrap();
        sim.run(1_000_000).expect("the run goes on");
        assert_eq!(sim.halted(), Some(halt));
        assert_eq!(sim.io().output, oracle.io().output);
        assert_eq!(sim.repairs().len(), 1, "nothing else diverged");
    }
}
