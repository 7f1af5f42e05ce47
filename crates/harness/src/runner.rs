//! Executes one [`RunDescriptor`]: program construction, then the one
//! warmup-and-window path ([`run_program`]) with the per-run watchdogs.
//!
//! Two watchdogs bound every run:
//!
//! * a **cycle cap** (`max_cycles`, part of the run id) — configurations
//!   that stop retiring at a healthy rate (e.g. the bistable `tex` kernel
//!   under an adversarial machine) hit this deterministically;
//! * a **wall-clock cap** (`wall_limit_ms`, *not* part of the id) — a
//!   last-resort guard so a pathologically slow host or an unforeseen
//!   slowdown cannot hang a whole sweep. The simulator is stepped in
//!   bounded chunks via [`Simulator::run_budgeted`], and the clock is
//!   checked between chunks.
//!
//! Workload resolution understands three families:
//!
//! * suite kernels by short or full name (`m88k`, `compress`, …) — the
//!   seed is recorded but does not perturb the deterministic kernels;
//! * `gen:<blocks>` — the pattern-mix generator with `<blocks>` pattern
//!   blocks per iteration (default mix), seeded per run, so seed sweeps
//!   produce genuinely different programs;
//! * `__panic__` — a test hook that panics inside the worker, used to
//!   prove panic isolation; it is never produced by spec parsing.

use crate::grid::RunDescriptor;
use std::sync::atomic::AtomicBool;
use std::time::Instant;
use tracefill_core::config::{ControllerConfig, ControllerMode};
use tracefill_isa::Program;
use tracefill_sim::{CpiStack, RunExit, SimConfig, Simulator, Stats};
use tracefill_util::{Json, Registry};
use tracefill_workloads::gen::{generate, PatternMix};

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The measured window completed (or the program exited inside it).
    Ok,
    /// The cycle watchdog fired before the window completed.
    CycleLimit,
    /// The wall-clock watchdog fired.
    Timeout,
    /// The campaign was cancelled mid-run.
    Cancelled,
    /// The simulator reported a fatal error (oracle divergence, deadlock,
    /// program fault) — the message is preserved.
    SimError(String),
    /// The run panicked; the payload is preserved.
    Panic(String),
    /// The run was skipped because its configuration was quarantined
    /// (K consecutive panics earlier in the campaign, this invocation or a
    /// previous one); the quarantine key is preserved.
    Quarantined(String),
}

impl RunStatus {
    /// Whether this record carries a usable measurement.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Ok)
    }

    pub(crate) fn tag(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::CycleLimit => "cycle-limit",
            RunStatus::Timeout => "timeout",
            RunStatus::Cancelled => "cancelled",
            RunStatus::SimError(_) => "sim-error",
            RunStatus::Panic(_) => "panic",
            RunStatus::Quarantined(_) => "quarantined",
        }
    }

    fn detail(&self) -> Option<&str> {
        match self {
            RunStatus::SimError(d) | RunStatus::Panic(d) | RunStatus::Quarantined(d) => Some(d),
            _ => None,
        }
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.detail() {
            Some(d) => write!(f, "{}: {d}", self.tag()),
            None => f.write_str(self.tag()),
        }
    }
}

/// Self-repair availability counters for one run — present only on rows
/// produced with `--self-repair`, so plain stores stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairSummary {
    /// Contained failures (0 for a clean armed run).
    pub repairs: u64,
    /// Pass quarantines the ladder issued.
    pub quarantined: u64,
    /// Machine-wide pass disables the ladder issued.
    pub disabled: u64,
}

impl RepairSummary {
    fn to_json(self) -> Json {
        Json::object()
            .with("repairs", self.repairs)
            .with("quarantined", self.quarantined)
            .with("disabled", self.disabled)
    }

    /// Strict parse: a present-but-malformed `repair` member is an error,
    /// so the store loader can count and skip rows written by a newer
    /// incompatible tool instead of silently misreading them.
    fn from_json(v: &Json) -> Result<RepairSummary, String> {
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("repair summary missing number `{k}`"))
        };
        Ok(RepairSummary {
            repairs: u("repairs")?,
            quarantined: u("quarantined")?,
            disabled: u("disabled")?,
        })
    }
}

/// One completed run — the JSONL row format of the result store.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Stable run id (matches the descriptor).
    pub run_id: String,
    /// Campaign name, for provenance when stores are merged.
    pub campaign: String,
    /// Benchmark name.
    pub bench: String,
    /// Optimization label.
    pub opt_label: String,
    /// Fill latency (cycles).
    pub fill_latency: u32,
    /// Workload seed.
    pub seed: u64,
    /// Trace-cache replacement policy name (`lru` for legacy rows).
    pub policy: String,
    /// Pass-controller mode label (`off` for legacy rows).
    pub controller: String,
    /// Outcome.
    pub status: RunStatus,
    /// IPC over the measured window (0 for failed runs).
    pub ipc: f64,
    /// Cycles in the measured window.
    pub window_cycles: u64,
    /// Instructions retired in the measured window.
    pub window_retired: u64,
    /// Cumulative pipeline counters at end of run.
    pub stats: Stats,
    /// CPI-stack slot attribution over the measured window (empty for
    /// failed runs and for rows written before the stack existed).
    pub cpi: CpiStack,
    /// Fill-unit and pipeline telemetry at end of run (accept/reject
    /// counters, distributions; empty for pre-telemetry rows).
    pub metrics: Registry,
    /// Self-repair availability counters; `None` for plain rows (and for
    /// every row written before self-repair existed).
    pub repair: Option<RepairSummary>,
    /// Wall-clock milliseconds the run took (timing field: excluded from
    /// determinism comparisons).
    pub wall_ms: u64,
}

impl RunRecord {
    /// A record of `desc` that carries no measurement yet.
    #[must_use]
    pub fn empty(desc: &RunDescriptor, campaign: &str, status: RunStatus) -> RunRecord {
        RunRecord {
            run_id: desc.run_id.clone(),
            campaign: campaign.to_string(),
            bench: desc.bench.clone(),
            opt_label: desc.opt_label.clone(),
            fill_latency: desc.fill_latency,
            seed: desc.seed,
            policy: desc.policy.name().to_string(),
            controller: desc.controller.label(),
            status,
            ipc: 0.0,
            window_cycles: 0,
            window_retired: 0,
            stats: Stats::default(),
            cpi: CpiStack::default(),
            metrics: Registry::new(),
            repair: desc.self_repair.then(RepairSummary::default),
            wall_ms: 0,
        }
    }

    /// The full JSONL row.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut v = Json::object()
            .with("v", 1u64)
            .with("run_id", self.run_id.as_str())
            .with("campaign", self.campaign.as_str())
            .with("bench", self.bench.as_str())
            .with("opts", self.opt_label.as_str())
            .with("fill_latency", self.fill_latency)
            .with("seed", self.seed)
            .with("policy", self.policy.as_str())
            .with("controller", self.controller.as_str())
            .with("status", self.status.tag());
        if let Some(d) = self.status.detail() {
            v = v.with("detail", d);
        }
        if let Some(r) = self.repair {
            v = v.with("repair", r.to_json());
        }
        v.with("ipc", self.ipc)
            .with("window_cycles", self.window_cycles)
            .with("window_retired", self.window_retired)
            .with("stats", self.stats.to_json())
            .with("cpi", self.cpi.to_json())
            .with("metrics", self.metrics.to_json())
            .with("wall_ms", self.wall_ms)
    }

    /// The row without timing fields — byte-identical across reruns of the
    /// same descriptor, regardless of parallelism or host speed.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let mut v = self.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "wall_ms");
        }
        v.dump()
    }

    /// Parses a JSONL row.
    ///
    /// # Errors
    ///
    /// Reports missing/mistyped required members.
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row missing string `{k}`"))
        };
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("row missing number `{k}`"))
        };
        let status = match (
            s("status")?.as_str(),
            v.get("detail").and_then(Json::as_str),
        ) {
            ("ok", _) => RunStatus::Ok,
            ("cycle-limit", _) => RunStatus::CycleLimit,
            ("timeout", _) => RunStatus::Timeout,
            ("cancelled", _) => RunStatus::Cancelled,
            ("sim-error", d) => RunStatus::SimError(d.unwrap_or("").to_string()),
            ("panic", d) => RunStatus::Panic(d.unwrap_or("").to_string()),
            ("quarantined", d) => RunStatus::Quarantined(d.unwrap_or("").to_string()),
            (other, _) => return Err(format!("unknown status `{other}`")),
        };
        Ok(RunRecord {
            run_id: s("run_id")?,
            campaign: s("campaign").unwrap_or_default(),
            bench: s("bench")?,
            opt_label: s("opts")?,
            fill_latency: u32::try_from(u("fill_latency")?).map_err(|e| e.to_string())?,
            seed: u("seed")?,
            // Rows written before the policy axes existed ran the static
            // LRU machine.
            policy: s("policy").unwrap_or_else(|_| "lru".to_string()),
            controller: s("controller").unwrap_or_else(|_| "off".to_string()),
            status,
            ipc: v.get("ipc").and_then(Json::as_f64).unwrap_or(0.0),
            window_cycles: u("window_cycles").unwrap_or(0),
            window_retired: u("window_retired").unwrap_or(0),
            stats: v.get("stats").map(Stats::from_json).unwrap_or_default(),
            cpi: v.get("cpi").map(CpiStack::from_json).unwrap_or_default(),
            metrics: v
                .get("metrics")
                .and_then(|m| Registry::from_json(m).ok())
                .unwrap_or_default(),
            repair: match v.get("repair") {
                None => None,
                Some(r) => Some(RepairSummary::from_json(r)?),
            },
            wall_ms: u("wall_ms").unwrap_or(0),
        })
    }
}

/// Builds the program for a descriptor.
///
/// # Errors
///
/// Unknown benchmark names or assembler failures (both indicate a spec or
/// kernel bug; spec parsing validates names up front).
pub fn build_program(desc: &RunDescriptor) -> Result<Program, String> {
    let total_instrs = desc.warmup + desc.budget;
    if let Some(arg) = desc.bench.strip_prefix("gen:") {
        let blocks: usize = if arg.is_empty() {
            24
        } else {
            arg.parse()
                .map_err(|_| format!("bad gen block count `{arg}`"))?
        };
        // ~4 dynamic instructions per block plus loop overhead.
        let per_iter = (blocks as u64) * 4 + 4;
        let scale = u32::try_from((total_instrs * 2) / per_iter.max(1) + 2).unwrap_or(u32::MAX);
        return generate(&PatternMix::default(), blocks, scale, desc.seed)
            .map_err(|e| format!("gen workload failed to assemble: {e}"));
    }
    let bench = tracefill_workloads::by_name(&desc.bench)
        .ok_or_else(|| format!("unknown benchmark `{}`", desc.bench))?;
    bench
        .program(bench.scale_for(total_instrs * 2))
        .map_err(|e| format!("{}: kernel failed to assemble: {e}", desc.bench))
}

/// The machine a descriptor runs on: the paper's baseline with the
/// descriptor's opt set, fill latency, replacement policy, controller,
/// ledger and self-repair settings.
#[must_use]
pub fn sim_config(desc: &RunDescriptor) -> SimConfig {
    let mut cfg = SimConfig::with_opts(desc.opts);
    cfg.fill.latency = desc.fill_latency;
    cfg.tcache.policy = desc.policy;
    cfg.ledger = desc.ledger;
    cfg.self_repair.enabled = desc.self_repair;
    if desc.controller != ControllerMode::Off {
        cfg.fill.controller = ControllerConfig {
            mode: desc.controller,
            epoch_fills: desc.epoch_fills.max(1),
            seed: desc.seed,
        };
    }
    cfg
}

/// Outcome of one bounded phase (warmup or measurement).
enum Phase {
    /// Retired the requested instructions (or the program finished).
    Done,
    Failed(RunStatus),
}

fn advance(
    sim: &mut Simulator,
    instrs: u64,
    cycle_cap: u64,
    deadline: Instant,
    cancel: Option<&AtomicBool>,
) -> Phase {
    /// Cycles simulated between wall-clock checks.
    const CHUNK_CYCLES: u64 = 1 << 20;
    let instr_target = sim.stats().retired + instrs;
    loop {
        let remaining_instrs = instr_target.saturating_sub(sim.stats().retired);
        if remaining_instrs == 0 {
            return Phase::Done;
        }
        let remaining_cycles = cycle_cap.saturating_sub(sim.cycle());
        if remaining_cycles == 0 {
            return Phase::Failed(RunStatus::CycleLimit);
        }
        let chunk = remaining_cycles.min(CHUNK_CYCLES);
        match sim.run_budgeted(remaining_instrs, chunk, cancel) {
            Ok(RunExit::Exited(_) | RunExit::Break | RunExit::InstrLimit) => return Phase::Done,
            Ok(RunExit::Cancelled) => return Phase::Failed(RunStatus::Cancelled),
            Ok(RunExit::CycleLimit) => {
                if Instant::now() >= deadline {
                    return Phase::Failed(RunStatus::Timeout);
                }
                // Chunk boundary: loop and keep going.
            }
            Err(e) => return Phase::Failed(RunStatus::SimError(e.to_string())),
        }
    }
}

/// Executes one run to completion (or watchdog) and returns its record:
/// [`build_program`] and [`sim_config`] of `desc`, then [`run_program`].
///
/// Never panics on simulator errors — they land in
/// [`RunStatus::SimError`]. Panics from kernel/assembler bugs (or the
/// `__panic__` test hook) propagate; the worker pool catches them.
#[must_use]
pub fn execute(desc: &RunDescriptor, campaign: &str, cancel: Option<&AtomicBool>) -> RunRecord {
    let start = Instant::now();
    assert!(
        desc.bench != "__panic__",
        "injected panic (test hook) in run {}",
        desc.run_id
    );
    let mut record = match build_program(desc) {
        Ok(prog) => run_program(desc, &prog, sim_config(desc), campaign, cancel).0,
        Err(e) => RunRecord::empty(desc, campaign, RunStatus::SimError(e)),
    };
    record.wall_ms = start.elapsed().as_millis() as u64;
    record
}

/// Runs `prog` on the machine `cfg` for `desc`'s warmup and measured
/// window under `desc`'s watchdogs, and returns the record with the
/// finished simulator. Simulator errors land in [`RunStatus::SimError`].
pub fn run_program(
    desc: &RunDescriptor,
    prog: &Program,
    cfg: SimConfig,
    campaign: &str,
    cancel: Option<&AtomicBool>,
) -> (RunRecord, Simulator) {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_millis(desc.wall_limit_ms);
    let mut record = RunRecord::empty(desc, campaign, RunStatus::Ok);
    let mut sim = Simulator::new(prog, cfg);

    // Warmup: trace cache, bias table and predictor state need a long
    // run-in before the steady state is representative.
    if let Phase::Failed(status) = advance(&mut sim, desc.warmup, desc.max_cycles, deadline, cancel)
    {
        record.status = status;
        record.stats = sim.stats();
        record.wall_ms = start.elapsed().as_millis() as u64;
        return (record, sim);
    }

    let (c0, r0) = (sim.cycle(), sim.stats().retired);
    let cpi0 = sim.cpi();
    let phase = advance(&mut sim, desc.budget, desc.max_cycles, deadline, cancel);
    record.window_cycles = sim.cycle() - c0;
    record.window_retired = sim.stats().retired - r0;
    record.ipc = record.window_retired as f64 / record.window_cycles.max(1) as f64;
    record.stats = sim.stats();
    record.cpi = sim.cpi().delta_since(&cpi0);
    record.metrics = sim.report().metrics;
    if desc.self_repair {
        record.repair = Some(RepairSummary {
            repairs: record.metrics.counter("repair.total"),
            quarantined: record.metrics.counter("repair.quarantined"),
            disabled: record.metrics.counter("repair.disabled"),
        });
    }
    record.status = match phase {
        Phase::Done => RunStatus::Ok,
        Phase::Failed(status) => status,
    };
    record.wall_ms = start.elapsed().as_millis() as u64;
    (record, sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CampaignSpec;

    fn tiny_desc(bench: &str) -> RunDescriptor {
        let mut spec = CampaignSpec::fig8();
        spec.benchmarks = vec![bench.to_string()];
        spec.fill_latencies = vec![1];
        spec.warmup = 2_000;
        spec.budget = 2_000;
        spec.max_cycles = 5_000_000;
        spec.expand().remove(0)
    }

    #[test]
    fn executes_a_suite_kernel() {
        let rec = execute(&tiny_desc("m88k"), "test", None);
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        assert!(rec.ipc > 0.0);
        assert!(rec.window_retired >= 2_000);
    }

    #[test]
    fn ledgered_runs_carry_ledger_metrics_without_perturbing_the_run() {
        let plain_desc = tiny_desc("m88k");
        let plain = execute(&plain_desc, "t", None);
        assert!(plain
            .metrics
            .counters()
            .all(|(k, _)| !k.starts_with("ledger.")));
        let mut desc = plain_desc;
        desc.ledger = true;
        let rec = execute(&desc, "t", None);
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        assert!(rec.metrics.counter("ledger.segments") > 0);
        assert!(rec.metrics.histogram("ledger.reuse").is_some());
        // Observation only: the simulation itself is identical.
        assert_eq!(rec.stats, plain.stats);
        assert_eq!(rec.window_cycles, plain.window_cycles);
    }

    #[test]
    fn self_repair_runs_carry_a_summary_without_perturbing_the_run() {
        let plain_desc = tiny_desc("m88k");
        let plain = execute(&plain_desc, "t", None);
        assert_eq!(plain.repair, None);
        assert!(!plain.to_json().dump().contains("\"repair\""));
        let mut desc = plain_desc;
        desc.self_repair = true;
        let rec = execute(&desc, "t", None);
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        // A healthy machine records zero repairs — and simulates
        // identically to the plain run.
        assert_eq!(rec.repair, Some(RepairSummary::default()));
        assert_eq!(rec.stats, plain.stats);
        assert_eq!(rec.window_cycles, plain.window_cycles);
        let back = RunRecord::from_json(&Json::parse(&rec.to_json().dump()).unwrap()).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn malformed_repair_member_is_a_parse_error() {
        let rec = execute(&tiny_desc("comp"), "test", None);
        let mut row = rec.to_json();
        row = row.with("repair", Json::from("broken"));
        let err = RunRecord::from_json(&row).unwrap_err();
        assert!(err.contains("repair"), "{err}");
        row = rec
            .to_json()
            .with("repair", Json::object().with("repairs", 1u64));
        assert!(
            RunRecord::from_json(&row).is_err(),
            "partial summary rejected"
        );
    }

    #[test]
    fn executes_a_generated_workload() {
        let rec = execute(&tiny_desc("gen:12"), "test", None);
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        assert!(rec.ipc > 0.0);
    }

    #[test]
    fn gen_seeds_change_the_program() {
        let a = tiny_desc("gen:12");
        let mut b = a.clone();
        b.seed = 99;
        let ra = execute(&a, "t", None);
        let rb = execute(&b, "t", None);
        assert!(
            ra.stats.cycles != rb.stats.cycles || (ra.ipc - rb.ipc).abs() > 1e-12,
            "different gen seeds should yield different dynamics"
        );
    }

    #[test]
    fn cycle_watchdog_fires_deterministically() {
        let mut desc = tiny_desc("m88k");
        desc.max_cycles = 500; // far too small to finish warmup
        let rec = execute(&desc, "test", None);
        assert_eq!(rec.status, RunStatus::CycleLimit);
        assert_eq!(rec.ipc, 0.0);
    }

    #[test]
    fn cancellation_is_observed() {
        let flag = AtomicBool::new(true); // pre-cancelled
        let rec = execute(&tiny_desc("m88k"), "test", Some(&flag));
        assert_eq!(rec.status, RunStatus::Cancelled);
    }

    #[test]
    fn record_roundtrips_and_canonical_drops_timing() {
        let mut rec = execute(&tiny_desc("comp"), "test", None);
        let back = RunRecord::from_json(&Json::parse(&rec.to_json().dump()).unwrap()).unwrap();
        assert_eq!(rec, back);
        let a = rec.canonical_json();
        rec.wall_ms += 12345;
        assert_eq!(a, rec.canonical_json());
        assert!(!a.contains("wall_ms"));
    }
}
