//! The simulator: machine state, reset, and the cycle loop.
//!
//! One [`Simulator`] owns every structure of the paper's machine. Each
//! simulated cycle runs five phases in a fixed order chosen so that every
//! pipeline stage costs at least one cycle:
//!
//! 1. **complete** — execution results whose latency elapses this cycle
//!    become visible; branches resolve (possibly triggering checkpoint
//!    recovery or shadow activation);
//! 2. **retire** — completed head-of-window uops retire in order, checked
//!    against the functional oracle and fed to the fill unit;
//! 3. **execute** — each functional unit selects the oldest ready uop in
//!    its reservation station and begins execution;
//! 4. **issue** — the previously fetched bundle renames and dispatches
//!    (bounded by width, checkpoints/cycle and RS space);
//! 5. **fetch** — the next bundle is fetched from the trace cache or the
//!    instruction cache.
//!
//! # Id order
//!
//! Uop ids come from one counter that only grows, and every structure
//! that names uops keeps them in ascending id order, which is program
//! order: the window, each functional unit's ready set, the store queue
//! and its list of stores without an address, the checkpoint list and
//! the shadow list (by anchor). Issue appends in id order. Shadow
//! activation appends the shadow's uops only after `squash_younger` has
//! removed everything younger than the anchor, so every id it appends is
//! past the back. Removal keeps the order. The uop table, select, the
//! memory scheduler, retirement and the window-position search rely on
//! this: the oldest ready uop of a functional unit is the first entry of
//! its ready set, a load's older stores are the queue's prefix below its
//! id, a retiring uop's checkpoint is the front one, and `window_pos`,
//! checkpoint and shadow lookup are binary searches. Every append
//! asserts the order in debug builds.
//!
//! # Uop lifecycle
//!
//! A uop is built once and never copied. Fetch fills a reused slot
//! buffer; a trace-cache bundle holds its line's `Arc` once, and each of
//! its slots names its instruction by position in that line. When the
//! bundle's first uop issues, the `Arc` moves out of the bundle into the
//! in-flight lines, a queue of `(first uop id, line)` in id order, and
//! the bundle's later slots read the line there. Issue moves each slot
//! out of its bundle and builds the uop in its slot of the uop table, a
//! power-of-two ring indexed by `id & mask` over the span of live ids
//! (grown by doubling), reading the executed form from the line; the uop
//! keeps only the line's seg id and its functional unit's cluster, and
//! owns nothing that needs dropping. An active branch's checkpoint takes
//! the fetch-time return-stack snapshot by move, and that snapshot is
//! itself one reference count, since the return stack is copy on write.
//! Squash, shadow discard and retire read the fields they need in place;
//! then the table drops the uop where it lies and moves its base past
//! empty slots. Nothing is popped out or returned, and no reference
//! count moves per uop: retirement drops a line once none of its
//! bundle's uops is in flight, a squash drops the lines of the bundles
//! younger than its anchor, and a divergence report or self-repair finds
//! a uop's line (the fetched copy, which a read-path fault may have
//! corrupted) by its id.
//!
//! # Scheduling
//!
//! Execute does not poll the reservation stations. The `sched` module
//! files a waiting uop under the physical registers it still lacks and,
//! when the last producer executes, puts it on a wake ring at its ready
//! cycle (the largest per-cluster `avail_at` of its sources); each
//! cycle's bucket joins the per-FU ready sets just before select. A load
//! the memory scheduler blocks is parked on the deciding store and comes
//! back when that store gets its address, completes or retires.
//! Completions come off a ring of per-cycle buckets sized from the
//! longest latency, which is why every latency must be at least 1.
//! Squash, shadow discard, activation and self-repair leave only stale
//! entries, which are skipped by id since ids are never reused.

use crate::config::SimConfig;
use crate::cpi::{CpiFlags, CpiStack, StallCause};
use crate::inject::FaultInjector;
use crate::observe::{Event, Observers};
use crate::oracle::{DivergenceReport, RetireEcho};
use crate::physreg::{PhysFile, PhysReg};
use crate::sched::Scheduler;
use crate::stats::{Report, Stats};
use crate::tracelog::TraceLog;
use crate::uop::{FetchBundle, FetchSlot, InFlightLines, UopId, UopTable};
use std::collections::VecDeque;
use std::fmt;
use tracefill_core::fill::FillUnit;
use tracefill_core::tcache::TraceCache;
use tracefill_isa::interp::{Halt, Interp};
use tracefill_isa::mem::Memory;
use tracefill_isa::program::{Program, STACK_TOP};
use tracefill_isa::reg::NUM_ARCH_REGS;
use tracefill_isa::syscall::IoCtx;
use tracefill_isa::ArchReg;
use tracefill_uarch::bias::BiasTable;
use tracefill_uarch::hierarchy::MemHierarchy;
use tracefill_uarch::indirect::TargetBuffer;
use tracefill_uarch::pht::{HistorySnapshot, MultiBranchPredictor};
use tracefill_uarch::ras::{RasSnapshot, ReturnStack};

/// A checkpoint taken at a conditional branch or indirect jump.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    pub branch: UopId,
    pub rat: [PhysReg; NUM_ARCH_REGS],
    pub ras: RasSnapshot,
    pub ghr: HistorySnapshot,
}

/// An inactive (shadow) continuation created by inactive issue.
#[derive(Debug)]
pub(crate) struct Shadow {
    /// The divergence branch this shadow hangs off.
    pub anchor: UopId,
    /// Shadow uops in program order.
    pub uops: Vec<UopId>,
    /// Shadow rename state after all shadow uops.
    pub rat: [PhysReg; NUM_ARCH_REGS],
    /// Per-shadow-branch rename snapshots, for checkpoint creation at
    /// activation (RAS/history snapshots are reconstructed by walking the
    /// shadow uops in order at activation time).
    pub branch_snaps: Vec<(UopId, [PhysReg; NUM_ARCH_REGS])>,
    /// Where fetch resumes after activation.
    pub resume: crate::uop::ShadowResume,
}

/// A bundle being issued, possibly across several cycles.
#[derive(Debug)]
pub(crate) struct PendingIssue {
    pub bundle: FetchBundle,
    /// Next slot index to issue.
    pub next: usize,
    /// Rename state at segment entry. Trace-line `LiveIn` sources resolve
    /// against this (the whole line renames "at once", as in the paper);
    /// raw instruction-cache slots resolve against the running RAT, since
    /// they carry no explicit dependency marking.
    pub entry_rat: [PhysReg; NUM_ARCH_REGS],
    /// Shadow context under construction (slots past the divergence).
    pub shadow: Option<ShadowBuild>,
}

/// Shadow state while its slots are still issuing.
#[derive(Debug)]
pub(crate) struct ShadowBuild {
    pub anchor: UopId,
    pub uops: Vec<UopId>,
    pub rat: [PhysReg; NUM_ARCH_REGS],
    pub branch_snaps: Vec<(UopId, [PhysReg; NUM_ARCH_REGS])>,
}

/// Why a simulation run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// The program exited via the `EXIT` service.
    Exited(u32),
    /// A `BREAK` instruction retired.
    Break,
    /// The cycle budget ran out before the program finished.
    CycleLimit,
    /// The instruction budget was reached (see
    /// [`Simulator::run_budgeted`]).
    InstrLimit,
    /// An external cancellation flag was raised mid-run (see
    /// [`Simulator::run_budgeted`]).
    Cancelled,
}

/// A fatal simulation error (always a simulator bug, an injected fault
/// the checkers caught, or a bad program).
#[derive(Debug, Clone)]
pub enum SimError {
    /// The pipeline retired an architectural effect the oracle disagrees
    /// with (or a strict-mode segment verification failed) — the full
    /// structured report names the cycle, the expected/actual effects,
    /// the recent-retirement ring and the originating trace segment.
    Divergence(Box<DivergenceReport>),
    /// The machine stopped making progress.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Last retired instruction count.
        retired: u64,
    },
    /// The functional oracle itself faulted (bad program).
    Oracle(tracefill_isa::interp::InterpError),
}

impl SimError {
    /// The divergence report, when this error is a lockstep divergence.
    pub fn divergence(&self) -> Option<&DivergenceReport> {
        match self {
            SimError::Divergence(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Divergence(report) => write!(f, "{report}"),
            SimError::Deadlock { cycle, retired } => {
                write!(
                    f,
                    "no retirement progress by cycle {cycle} ({retired} retired)"
                )
            }
            SimError::Oracle(e) => write!(f, "oracle fault: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The trace-cache microprocessor simulator.
///
/// # Examples
///
/// ```
/// use tracefill_isa::asm::assemble;
/// use tracefill_sim::{SimConfig, Simulator};
///
/// let prog = assemble(r#"
///         .text
/// main:   li   $t0, 100
///         li   $t1, 0
/// loop:   add  $t1, $t1, $t0
///         addi $t0, $t0, -1
///         bgtz $t0, loop
///         move $a0, $t1
///         li   $v0, 1
///         syscall
///         li   $v0, 10
///         syscall
/// "#)?;
/// let mut sim = Simulator::new(&prog, SimConfig::default());
/// let exit = sim.run(1_000_000)?;
/// // The EXIT service reports `$a0` as the exit code.
/// assert!(matches!(exit, tracefill_sim::RunExit::Exited(_)));
/// assert_eq!(sim.io().output, vec![5050]);
/// assert!(sim.stats().ipc() > 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    pub(crate) cfg: SimConfig,

    // Memory and architectural oracle.
    pub(crate) mem: Memory,
    pub(crate) io: IoCtx,
    pub(crate) oracle: Interp,

    // Front-end structures.
    pub(crate) tcache: TraceCache,
    pub(crate) fill: FillUnit,
    pub(crate) predictor: MultiBranchPredictor,
    pub(crate) bias: BiasTable,
    pub(crate) ras: ReturnStack,
    pub(crate) itb: TargetBuffer,
    pub(crate) hier: MemHierarchy,

    // Fetch state.
    pub(crate) fetch_pc: u32,
    pub(crate) fetch_stall_until: u64,
    pub(crate) fetch_buffer: Option<FetchBundle>,
    pub(crate) pending: Option<PendingIssue>,
    /// The pending bundle's physical destination of each already-issued
    /// slot (for `Internal` dataflow references). Moves record their
    /// aliased register. Kept across bundles to reuse its allocation.
    pub(crate) line_phys: Vec<Option<PhysReg>>,
    /// The last issued bundle's emptied slot buffer, for the next fetch.
    pub(crate) slot_buf: VecDeque<FetchSlot>,
    /// Serializing uop in flight: fetch halts until it retires.
    pub(crate) serialize: Option<UopId>,

    // Rename state.
    pub(crate) rat: [PhysReg; NUM_ARCH_REGS],
    pub(crate) phys: PhysFile,
    pub(crate) next_uop_id: UopId,
    /// Live checkpoints, in id order of their branches.
    pub(crate) checkpoints: VecDeque<Checkpoint>,

    // Window and backend.
    pub(crate) uops: UopTable,
    /// The trace line of each bundle with uops in flight, under its
    /// first uop's id.
    pub(crate) lines: InFlightLines,
    pub(crate) window: VecDeque<UopId>,
    /// Inactive continuations, in id order of their anchors.
    pub(crate) shadows: Vec<Shadow>,
    /// In-flight active stores (loads never wait here: the memory
    /// scheduler only asks which older stores a load must respect).
    pub(crate) stores: VecDeque<UopId>,
    /// Reservation-station occupancy, ready sets, wakeups and
    /// completions (see [`crate::sched`]).
    pub(crate) sched: Scheduler,

    // Control.
    pub(crate) cycle: u64,
    pub(crate) halted: Option<Halt>,
    pub(crate) stats: Stats,
    pub(crate) last_retire_cycle: u64,

    // Robustness.
    /// Ring buffer of recent retirements for divergence reports (the last
    /// [`RING_DEPTH`](crate::oracle::RING_DEPTH)).
    pub(crate) retire_ring: VecDeque<RetireEcho>,
    /// Deterministic fault injector, when the config carries a plan.
    pub(crate) injector: Option<FaultInjector>,
    /// Contained failures, in occurrence order (empty unless
    /// `cfg.self_repair.enabled` and something actually diverged).
    pub(crate) repairs: Vec<crate::repair::RepairEvent>,

    // Observability.
    pub(crate) cpi: CpiStack,
    pub(crate) cpi_flags: CpiFlags,
    /// Whether the most recent fetch bundle came from the trace cache
    /// (false at cold start, when supply is icache by definition).
    pub(crate) last_fetch_tc: bool,
    /// Trace log, segment ledger and distributions, fed through
    /// [`Observers::emit`].
    pub(crate) observers: Observers,
}

impl Simulator {
    /// Creates a simulator with the program loaded and the machine reset.
    ///
    /// # Panics
    ///
    /// Panics if any [`LatencyConfig`](crate::config::LatencyConfig)
    /// field is 0, naming the field: every result must appear at least
    /// one cycle after its uop executes.
    pub fn new(program: &Program, cfg: SimConfig) -> Simulator {
        Simulator::with_io(program, cfg, IoCtx::default())
    }

    /// Creates a simulator with an input stream for `READ_INT`.
    ///
    /// # Panics
    ///
    /// As for [`new`](Self::new).
    pub fn with_io(program: &Program, cfg: SimConfig, io: IoCtx) -> Simulator {
        for (field, cycles) in cfg.latency.fields() {
            assert!(
                cycles >= 1,
                "LatencyConfig::{field} is 0; every latency must be at least 1 cycle"
            );
        }
        let mut phys = PhysFile::new(cfg.phys_regs, cfg.cross_cluster_latency);
        let mut rat = [PhysFile::ZERO; NUM_ARCH_REGS];
        for r in ArchReg::all() {
            if r.is_zero() {
                continue;
            }
            let p = phys.alloc();
            let v = if r == ArchReg::SP { STACK_TOP } else { 0 };
            phys.write_arch(p, v);
            rat[r.index()] = p;
        }
        let mut fill = FillUnit::new(cfg.fill);
        if cfg.self_repair.enabled {
            fill.enable_quarantine(cfg.self_repair.ladder);
        }
        Simulator {
            mem: program.load(),
            io: io.clone(),
            oracle: Interp::with_io(program, io),
            tcache: TraceCache::new(cfg.tcache),
            fill,
            predictor: MultiBranchPredictor::new(cfg.predictor),
            bias: BiasTable::new(cfg.bias),
            ras: ReturnStack::new(cfg.ras_depth),
            itb: TargetBuffer::new(cfg.target_buffer),
            hier: MemHierarchy::new(cfg.hierarchy),
            fetch_pc: program.entry,
            fetch_stall_until: 0,
            fetch_buffer: None,
            pending: None,
            line_phys: Vec::new(),
            slot_buf: VecDeque::new(),
            serialize: None,
            rat,
            phys,
            next_uop_id: 0,
            checkpoints: VecDeque::new(),
            uops: UopTable::default(),
            lines: InFlightLines::default(),
            window: VecDeque::new(),
            shadows: Vec::new(),
            stores: VecDeque::new(),
            sched: Scheduler::new(&cfg),
            cycle: 0,
            halted: None,
            stats: Stats::default(),
            last_retire_cycle: 0,
            retire_ring: VecDeque::new(),
            injector: cfg.fault_plan.clone().map(FaultInjector::new),
            repairs: Vec::new(),
            cpi: CpiStack::new(cfg.fetch_width),
            cpi_flags: CpiFlags::default(),
            last_fetch_tc: false,
            observers: Observers::new(&cfg),
            cfg,
        }
    }

    /// Pipeline statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// The I/O channels (program output lands here).
    pub fn io(&self) -> &IoCtx {
        &self.io
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The committed architectural value of a register (reads through the
    /// rename table — only meaningful between cycles or after halt, when
    /// no speculative mappings are outstanding ahead of the retire point).
    pub fn arch_reg(&self, r: ArchReg) -> u32 {
        self.phys.value(self.rat[r.index()])
    }

    /// The architectural memory (stores commit here at retirement).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// How the program halted, if it has.
    pub fn halted(&self) -> Option<Halt> {
        self.halted
    }

    /// Faults that actually fired from the configured
    /// [`FaultPlan`](crate::inject::FaultPlan) (0 without a plan).
    pub fn faults_fired(&self) -> u64 {
        self.injector.as_ref().map_or(0, FaultInjector::fired)
    }

    /// Contained failures so far, in occurrence order (empty unless
    /// [`SimConfig::self_repair`](crate::config::SimConfig::self_repair)
    /// is enabled and something actually diverged).
    pub fn repairs(&self) -> &[crate::repair::RepairEvent] {
        &self.repairs
    }

    /// Assembles the run's self-repair report: every contained failure
    /// plus the escalation ladder's final state. Byte-deterministic for a
    /// fixed seed and fault plan.
    pub fn repair_report(&self) -> crate::repair::RepairReport {
        crate::repair::RepairReport {
            events: self.repairs.clone(),
            ladder: self
                .fill
                .quarantine()
                .map_or(tracefill_util::Json::Null, |q| q.to_json()),
        }
    }

    /// The pipeline event trace (empty unless
    /// [`SimConfig::trace_depth`](crate::config::SimConfig::trace_depth)
    /// was set).
    pub fn trace(&self) -> &TraceLog {
        &self.observers.trace
    }

    /// The CPI stack accumulated so far (commit-slot stall attribution).
    pub fn cpi(&self) -> CpiStack {
        self.cpi
    }

    /// The segment lifetime ledger (empty unless
    /// [`SimConfig::ledger`](crate::config::SimConfig::ledger) was set).
    pub fn ledger(&self) -> &tracefill_core::ledger::Ledger {
        &self.observers.ledger
    }

    /// Assembles a full report (pipeline + structure statistics, the CPI
    /// stack and the metrics registry).
    ///
    /// The registry is built here, by folding in the observers' exports
    /// (window occupancy and fetch bundle distributions, the ledger's
    /// `ledger.*` summary), the fill unit's per-optimization
    /// accept/reject telemetry, and — mirrored mechanically from
    /// [`Stats`] so the two can never drift — the retire-time
    /// transformation counters the Table 2 path consumes
    /// (`retire.moves` / `retire.reassoc` / `retire.scadd`).
    pub fn report(&self) -> Report {
        let mut metrics = tracefill_util::Registry::new();
        self.observers.export(&mut metrics, self.cycle);
        metrics.merge(&self.fill.telemetry());
        if let Some(inj) = &self.injector {
            metrics.merge(inj.metrics());
        }
        metrics.add("retire.moves", self.stats.retired_moves);
        metrics.add("retire.reassoc", self.stats.retired_reassoc);
        metrics.add("retire.scadd", self.stats.retired_scadd);
        metrics.add("retire.from_tc", self.stats.retired_from_tc);
        metrics.add("retire.total", self.stats.retired);
        let tc = self.tcache.stats();
        metrics.add("tcache.hits", tc.hits);
        metrics.add("tcache.misses", tc.misses);
        metrics.add("tcache.full_path_hits", tc.full_path_hits);
        metrics.add("tcache.fills", tc.fills);
        metrics.add("tcache.refreshes", tc.refreshes);
        metrics.add("tcache.evictions", tc.evictions);
        metrics.add(
            &format!("policy.evict.{}", self.tcache.policy_name()),
            tc.evictions,
        );
        // The replacement policy's own bookkeeping; always agrees with
        // the cache statistics above (cross-checked in tests).
        let pc = self.tcache.policy_counters();
        metrics.add("policy.hits", pc.hits);
        metrics.add("policy.evictions", pc.evictions);
        metrics.add("policy.evict_age_ticks", pc.evict_age_ticks);
        // Self-repair availability counters, only once something was
        // actually contained: a clean self-repair-on run stays
        // metric-identical (and therefore byte-identical in every export)
        // to a run without self-repair.
        if !self.repairs.is_empty() {
            use tracefill_core::quarantine::Escalation;
            metrics.add("repair.total", self.repairs.len() as u64);
            for ev in &self.repairs {
                metrics.inc(&format!("repair.kind.{}", ev.site.kind));
                if ev.invalidated {
                    metrics.inc("repair.invalidated");
                }
                for esc in &ev.escalations {
                    metrics.inc(match esc {
                        Escalation::Quarantined { .. } => "repair.quarantined",
                        Escalation::Disabled { .. } => "repair.disabled",
                    });
                }
            }
        }
        Report {
            stats: self.stats,
            tcache: self.tcache.stats(),
            caches: self.hier.stats(),
            fill_segments: self.fill.stats().segments,
            mean_segment_len: self.fill.stats().mean_segment_len(),
            cpi: self.cpi,
            metrics,
        }
    }

    /// Fill-unit statistics (transformation counts at build time).
    pub fn fill_stats(&self) -> tracefill_core::fill::FillStats {
        self.fill.stats()
    }

    /// The fill unit itself (its telemetry, repair ladder and build memo).
    pub fn fill_unit(&self) -> &tracefill_core::fill::FillUnit {
        &self.fill
    }

    /// Trace-cache statistics.
    pub fn tcache_stats(&self) -> tracefill_core::tcache::TraceCacheStats {
        self.tcache.stats()
    }

    /// The replacement policy's own hit/eviction bookkeeping (always
    /// agrees with [`tcache_stats`](Self::tcache_stats)).
    pub fn tcache_policy_counters(&self) -> tracefill_core::tcache::PolicyCounters {
        self.tcache.policy_counters()
    }

    /// Runs until the program exits or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Divergence`] if a retirement diverges from
    /// the functional oracle (a simulator bug or an injected fault the
    /// checkers caught), [`SimError::Deadlock`] if no instruction retires
    /// for a long stretch, or [`SimError::Oracle`] for faults in the
    /// program itself.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunExit, SimError> {
        self.run_budgeted(u64::MAX, max_cycles, None)
    }

    /// Runs until `n` more instructions retire or the program exits. Used
    /// by benchmark harnesses that sample fixed instruction budgets.
    ///
    /// Returns `Ok(RunExit::CycleLimit)` once the `n` instructions have
    /// retired, even if the program halted in that same cycle (the next
    /// call reports the halt); the halt only if it came short of `n`.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_instrs(&mut self, n: u64) -> Result<RunExit, SimError> {
        let target = self.stats.retired.saturating_add(n);
        match self.run_budgeted(n, u64::MAX, None)? {
            _ if self.stats.retired >= target => Ok(RunExit::CycleLimit),
            exit => Ok(exit),
        }
    }

    /// Runs until `max_instrs` more instructions retire, `max_cycles` more
    /// cycles elapse, the program exits, or `cancel` is raised — whichever
    /// comes first.
    ///
    /// This is the campaign engine's hook: the instruction budget bounds
    /// the measured window, the cycle budget is a hard watchdog against
    /// pathological configurations that stop retiring (but keep resetting
    /// the internal deadlock detector), and the cancellation flag lets a
    /// worker pool abandon a run from another thread. The flag is polled
    /// every [`CANCEL_POLL_CYCLES`](Self::CANCEL_POLL_CYCLES) cycles, so
    /// cancellation latency is bounded and the hot loop stays branch-cheap.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_budgeted(
        &mut self,
        max_instrs: u64,
        max_cycles: u64,
        cancel: Option<&std::sync::atomic::AtomicBool>,
    ) -> Result<RunExit, SimError> {
        let instr_target = self.stats.retired.saturating_add(max_instrs);
        let cycle_target = self.cycle.saturating_add(max_cycles);
        loop {
            match self.halted {
                Some(Halt::Exited(code)) => return Ok(RunExit::Exited(code)),
                Some(Halt::Break) => return Ok(RunExit::Break),
                None => {}
            }
            if self.stats.retired >= instr_target {
                return Ok(RunExit::InstrLimit);
            }
            if self.cycle >= cycle_target {
                return Ok(RunExit::CycleLimit);
            }
            if self.cycle.is_multiple_of(Self::CANCEL_POLL_CYCLES) {
                if let Some(flag) = cancel {
                    if flag.load(std::sync::atomic::Ordering::Relaxed) {
                        return Ok(RunExit::Cancelled);
                    }
                }
            }
            self.step_cycle()?;
        }
    }

    /// How often (in cycles) [`run_budgeted`](Self::run_budgeted) polls its
    /// cancellation flag.
    pub const CANCEL_POLL_CYCLES: u64 = 1024;

    /// Simulates one cycle.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        self.cycle += 1;
        self.phase_complete();
        self.phase_retire()?;
        if self.halted.is_none() {
            self.phase_execute();
            self.phase_issue();
            self.phase_fetch();
        }
        // Every executed cycle is counted and CPI-attributed — including
        // the halting one, whose retirements must land in `base` for the
        // stack to stay slot-exact against `cycles × width`.
        self.stats.cycles = self.cycle;
        self.account_cpi();
        if self.halted.is_some() {
            return Ok(());
        }

        // Watchdog: a healthy machine retires something every few thousand
        // cycles (the worst case is a serialized miss chain).
        if self.cycle - self.last_retire_cycle > 100_000 {
            return Err(SimError::Deadlock {
                cycle: self.cycle,
                retired: self.stats.retired,
            });
        }
        Ok(())
    }

    /// End-of-cycle CPI attribution: `retired` slots go to `base`, the
    /// rest of the cycle's commit slots are charged to one stall cause
    /// picked by the priority cascade documented in [`crate::cpi`]. Also
    /// emits the end of the cycle (window occupancy) to the observers.
    fn account_cpi(&mut self) {
        let flags = std::mem::take(&mut self.cpi_flags);
        let cause = if flags.recovered {
            StallCause::BranchRecovery
        } else if self.serialize.is_some() {
            StallCause::Serialize
        } else if self.window.is_empty() {
            if flags.icache_stall || self.cycle < self.fetch_stall_until {
                StallCause::IcacheMiss
            } else if !self.last_fetch_tc {
                StallCause::TcMiss
            } else {
                StallCause::FetchRedirect
            }
        } else if flags.head_bypass_delayed {
            StallCause::BypassDelay
        } else if flags.issue_backpressure {
            StallCause::WindowFull
        } else {
            StallCause::FuContention
        };
        self.cpi
            .account_cycle(flags.retired.min(self.cpi.width), cause);
        self.observers.emit(
            self.cycle,
            Event::Cycle {
                window: self.window.len(),
            },
        );
    }

    // ---- shared helpers used by the stage modules ----

    pub(crate) fn new_uop_id(&mut self) -> UopId {
        let id = self.next_uop_id;
        self.next_uop_id += 1;
        id
    }

    /// Program-order position of `id` in the window (for age comparisons).
    pub(crate) fn window_pos(&self, id: UopId) -> Option<usize> {
        self.window.binary_search(&id).ok()
    }

    /// The trace line uop `id` was fetched from, as fetched (a
    /// read-path fault corrupts the fetched copy, not the cached line);
    /// `None` for an instruction-cache uop or one no longer in flight.
    pub(crate) fn fetched_line(&self, id: UopId) -> Option<&tracefill_core::segment::Line> {
        self.uops.get(id).filter(|u| u.from_tc)?;
        self.lines.of(id)
    }
}

impl Simulator {
    /// Formats a diagnostic dump of the window around the retirement head —
    /// uop states, operand mappings and values. Intended for debugging
    /// simulator issues; the format is unstable.
    pub fn dump_window(&self, n: usize) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cycle {} window={} stores={}",
            self.cycle,
            self.window.len(),
            self.stores.len()
        );
        for &id in self.window.iter().take(n) {
            let Some(u) = self.uops.get(id) else {
                continue;
            };
            let srcs: Vec<String> = u
                .srcs
                .iter()
                .flatten()
                .map(|&p| {
                    format!(
                        "p{}={:#x}@{}",
                        p.0,
                        self.phys.value(p),
                        if self.phys.done_at(p) == crate::physreg::NEVER {
                            "never".to_string()
                        } else {
                            self.phys.done_at(p).to_string()
                        }
                    )
                })
                .collect();
            let _ = writeln!(
                s,
                "  [{id}] {:#x} `{}` op={} imm={} srcs={srcs:?} dest={:?} state={:?} tc={} inact={} reassoc={} mem={:?}",
                u.pc, u.instr, u.op, u.imm, u.dest, u.state, u.from_tc, u.inactive, u.reassociated,
                u.mem.as_ref().map(|m| (m.is_load, m.addr, m.value))
            );
        }
        s
    }
}

// The campaign engine moves `Simulator`s across worker threads; every field
// is owned data (no `Rc`, interior pointers or thread affinity), and this
// assertion keeps it that way at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulator>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{FaultKind, FaultPlan};
    use tracefill_core::config::OptConfig;
    use tracefill_isa::asm::assemble;
    use tracefill_workloads::gen::{generate, PatternMix};

    /// Steps `sim` up to `cycles` cycles or to its halt, checking the
    /// in-flight lines after every cycle: they are in id order; every
    /// in-flight trace-cache uop finds its bundle's line and that line
    /// carries the uop's seg id; and every line covers a trace-cache uop
    /// in flight, so there are never more lines than bundles with uops
    /// in flight. Returns the number of lines seen across the run.
    fn step_checking_lines(sim: &mut Simulator, cycles: u64) -> usize {
        let mut seen = 0;
        for _ in 0..cycles {
            if sim.halted.is_some() {
                break;
            }
            sim.step_cycle().expect("the run stays clean or contained");
            let firsts: Vec<UopId> = sim.lines.iter().map(|(first, _)| first).collect();
            assert!(firsts.windows(2).all(|w| w[0] < w[1]), "id order");
            let mut covered = vec![false; firsts.len()];
            for u in sim.uops.values().filter(|u| u.from_tc) {
                let line = sim.lines.of(u.id).expect("a trace-cache uop's line");
                assert_eq!(line.provenance.seg_id, u.seg, "uop {}", u.id);
                covered[firsts.partition_point(|&f| f <= u.id) - 1] = true;
            }
            let idle = covered.iter().position(|&c| !c);
            assert_eq!(
                idle, None,
                "cycle {}: a line with no uop in flight",
                sim.cycle
            );
            seen += firsts.len();
        }
        seen
    }

    #[test]
    fn in_flight_lines_follow_a_mispredict_heavy_kernel() {
        let go = tracefill_workloads::by_name("go").unwrap();
        let mut sim = Simulator::new(&go.program(2).unwrap(), SimConfig::default());
        assert!(step_checking_lines(&mut sim, 30_000) > 0);
        let s = sim.stats();
        assert!(
            s.branch_mispredicts > 100 && s.squashed_uops > 1000,
            "{s:?}"
        );
    }

    /// A branch the predictor cannot learn, inside trace lines that embed
    /// one direction: shadows are activated and discarded throughout.
    #[test]
    fn in_flight_lines_follow_shadow_activations() {
        let prog = assemble(
            "        .text
main:   li   $s0, 2000
        li   $s1, 0
        li   $s2, 12345
loop:   li   $t9, 1103515245
        mul  $s2, $s2, $t9
        addi $s2, $s2, 12345
        srl  $t0, $s2, 13
        andi $t0, $t0, 1
        beqz $t0, skip
        addi $s1, $s1, 3
skip:   addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
",
        )
        .unwrap();
        let mut sim = Simulator::new(&prog, SimConfig::default());
        step_checking_lines(&mut sim, 100_000);
        assert!(sim.halted.is_some());
        let s = sim.stats();
        assert!(
            s.inactive_rescues > 10 && s.discarded_inactive_uops > 0,
            "{s:?}"
        );
    }

    /// Read-path faults corrupt fetched copies of lines; self-repair
    /// invalidates the line each divergence names and squashes the whole
    /// machine.
    #[test]
    fn in_flight_lines_follow_self_repair_squashes() {
        let mut cfg = SimConfig::with_opts(OptConfig::all());
        cfg.fill.strict_verify = false;
        cfg.self_repair.enabled = true;
        cfg.fault_plan = Some(FaultPlan::generate(
            41,
            16,
            64,
            &[FaultKind::BitFlipLookup, FaultKind::CorruptImm],
        ));
        let prog = generate(&PatternMix::default(), 24, 120, 13).unwrap();
        let mut sim = Simulator::new(&prog, cfg);
        step_checking_lines(&mut sim, 1_000_000);
        assert!(sim.halted.is_some());
        assert!(
            sim.repairs.iter().any(|r| r.invalidated),
            "{:?}",
            sim.repairs
        );
    }
}
