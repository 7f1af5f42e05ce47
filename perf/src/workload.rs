//! The four workloads, and the child process that runs one repetition of
//! one of them and reports it as one JSON line.
//!
//! Each workload stresses different layers, and each is the bypass for
//! some optimisation (see the README for the full map):
//!
//! * `m88k-all` — the paper's best case: the densest fill-unit rewriting,
//!   with the oracle and strict verification on, and no trace-cache
//!   evictions (replacement does nothing);
//! * `go-none-trrip` — a shallow window with frequent mispredicts and
//!   thousands of evictions: fetch, prediction, recovery and replacement
//!   carry the load, and no pass rewrites anything;
//! * `gen24-fullwindow` — a seeded `gen:24` program whose serial
//!   dependency chain keeps the window full, in the raw-throughput
//!   configuration (oracle and verify off): reservation-station and LSQ
//!   scans dominate;
//! * `sweep-observed` — eight short cold campaign runs with the ledger
//!   and self-repair on, through the harness, its store and its report.

use crate::replay::{self, Costs, Counts};
use crate::stats::median;
use crate::trace::{self, Tracer};
use std::path::Path;
use std::time::Instant;
use tracefill_core::config::{OptConfig, ReplacementKind};
use tracefill_harness::grid::{CampaignSpec, OptPoint, RunDescriptor};
use tracefill_harness::{report, run_campaign, runner, ResultStore, RunRecord};
use tracefill_isa::asm::assemble;
use tracefill_isa::encode::decode;
use tracefill_isa::interp::{Halt, Interp};
use tracefill_isa::{Op, Program};
use tracefill_sim::{Report, RunExit, SimConfig, Simulator};
use tracefill_util::{fnv1a64, Json, SplitMix64};
use tracefill_workloads::gen::{generate, PatternMix};
use tracefill_workloads::Benchmark;

/// Constructions per repetition behind `setup_s` (reported as their
/// median: one construction takes well under a millisecond).
const SETUP_REPS: usize = 21;

/// `run_instrs` calls the measured window is cut into.
const CHUNKS: u64 = 100;

/// Longest stream a layer replay walks.
const REPLAY_CAP: u64 = 200_000;

/// The sweep's kernels.
const SWEEP_BENCHES: [&str; 4] = ["comp", "li", "ijpeg", "perl"];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// m88ksim kernel, every pass on, default machine.
    M88kAll,
    /// go kernel, no passes, TRRIP replacement.
    GoNoneTrrip,
    /// `gen:24` pattern mix, every pass on, oracle and verify off.
    Gen24FullWindow,
    /// A campaign of four kernels × {none, all} with ledger and self-repair.
    SweepObserved,
}

impl Workload {
    /// Every workload, in the order reports list them.
    pub const ALL: [Workload; 4] = [
        Workload::M88kAll,
        Workload::GoNoneTrrip,
        Workload::Gen24FullWindow,
        Workload::SweepObserved,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::M88kAll => "m88k-all",
            Workload::GoNoneTrrip => "go-none-trrip",
            Workload::Gen24FullWindow => "gen24-fullwindow",
            Workload::SweepObserved => "sweep-observed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations one repetition attempts: one run, or one campaign row.
    pub fn ops(self) -> u64 {
        match self {
            Workload::SweepObserved => (SWEEP_BENCHES.len() * 2) as u64,
            _ => 1,
        }
    }
}

/// How long a single-run workload simulates.
#[derive(Debug, Clone, Copy)]
struct Single {
    /// Suite kernel, or `None` for the `gen:24` generator.
    kernel: Option<&'static str>,
    /// Kernel scale (outer iterations): the smallest whose interpreter
    /// run covers the warmup plus about `window` instructions.
    scale: u32,
    /// Retired instructions before the window opens.
    warmup: u64,
    /// Approximate window length; the window runs to program exit.
    window: u64,
}

fn single(w: Workload, smoke: bool) -> Single {
    let (kernel, scale, warmup, window) = match (w, smoke) {
        (Workload::M88kAll, false) => (Some("m88k"), 332, 200_000, 400_000),
        (Workload::M88kAll, true) => (Some("m88k"), 8, 5_000, 10_000),
        (Workload::GoNoneTrrip, false) => (Some("go"), 151, 200_000, 800_000),
        (Workload::GoNoneTrrip, true) => (Some("go"), 2, 5_000, 10_000),
        (Workload::Gen24FullWindow, false) => (None, 660, 10_000, 50_000),
        (Workload::Gen24FullWindow, true) => (None, 44, 1_000, 3_000),
        (Workload::SweepObserved, _) => unreachable!("the sweep is not a single run"),
    };
    Single {
        kernel,
        scale,
        warmup,
        window,
    }
}

/// The machine a single-run workload simulates.
fn sim_config(w: Workload) -> SimConfig {
    match w {
        Workload::M88kAll => SimConfig::with_opts(OptConfig::all()),
        Workload::GoNoneTrrip => {
            let mut cfg = SimConfig::with_opts(OptConfig::none());
            cfg.tcache.policy = ReplacementKind::Trrip;
            cfg
        }
        Workload::Gen24FullWindow => {
            let mut cfg = SimConfig::with_opts(OptConfig::all());
            cfg.oracle_check = false;
            cfg.fill.strict_verify = false;
            cfg
        }
        Workload::SweepObserved => {
            unreachable!("sweep runs take their machine from the harness grid")
        }
    }
}

/// The sweep's campaign.
fn sweep_spec(seed: u64, smoke: bool) -> CampaignSpec {
    let (warmup, budget) = if smoke {
        (2_000, 4_000)
    } else {
        (20_000, 40_000)
    };
    let opt = |label: &str| OptPoint {
        label: label.to_string(),
        opts: OptConfig::from_name(label).expect("built-in opt-set name"),
    };
    CampaignSpec {
        name: "perf-sweep-observed".to_string(),
        opt_sets: vec![opt("none"), opt("all")],
        fill_latencies: vec![1],
        benchmarks: SWEEP_BENCHES.iter().map(|b| b.to_string()).collect(),
        seeds: vec![seed],
        warmup,
        budget,
        policies: vec!["lru".to_string()],
        controller: "off".to_string(),
        ledger: true,
        self_repair: true,
        ..CampaignSpec::fig8()
    }
}

/// The machine the harness builds for a campaign run (the runner's
/// configuration of a static, controller-off descriptor). The traced run
/// re-simulates each row with it and checks the row's statistics match,
/// so a drift from the runner shows up as a failed op.
fn sweep_config(d: &RunDescriptor) -> SimConfig {
    let mut cfg = SimConfig::with_opts(d.opts);
    cfg.fill.latency = d.fill_latency;
    cfg.tcache.policy = d.policy;
    cfg.ledger = d.ledger;
    cfg.self_repair.enabled = d.self_repair;
    cfg
}

fn kernel(name: &str) -> Benchmark {
    tracefill_workloads::by_name(name).expect("workload kernels are suite benchmarks")
}

/// The block composition every `gen24-fullwindow` program has: the
/// default pattern mix's expected share of 24 blocks, counted by each
/// block kind's marker opcode — `bltz` (immediate chain), `sll`
/// (shift-add), `xor` (ALU) and `sw` (memory); the other 3 blocks are
/// register moves. Host cost per instruction depends on the composition
/// (a free draw of 24 blocks moves it by 2x between seeds), so the seed
/// varies only the blocks' order and constants.
const GEN24_COMPOSITION: [(Op, usize); 4] =
    [(Op::Bltz, 3), (Op::Sll, 3), (Op::Xor, 10), (Op::Sw, 5)];

/// Generator candidates tried before giving up (about one in 350 has the
/// pinned composition).
const GEN24_CANDIDATES: u32 = 100_000;

/// The generator seed of the `gen24-fullwindow` program for benchmark
/// seed `seed`: the first of a sequence of candidates drawn from `seed`
/// whose program has [`GEN24_COMPOSITION`].
fn gen24_seed(seed: u64) -> Result<u64, String> {
    let mut candidates = SplitMix64::new(seed);
    for _ in 0..GEN24_CANDIDATES {
        let candidate = candidates.next_u64();
        let prog = generate(&PatternMix::default(), 24, 1, candidate)
            .map_err(|e| format!("gen:24: {e}"))?;
        let ops: Vec<Op> = prog
            .text_words()
            .filter_map(|(_, word)| decode(word).ok().map(|i| i.op))
            .collect();
        let count = |op: Op| ops.iter().filter(|&&o| o == op).count();
        if GEN24_COMPOSITION.iter().all(|&(op, n)| count(op) == n) {
            return Ok(candidate);
        }
    }
    Err(format!(
        "no gen:24 program with the pinned composition among {GEN24_CANDIDATES} candidates"
    ))
}

/// Seconds spent in each set-up step, one entry per construction.
#[derive(Debug, Default)]
struct SetupTimes {
    total: Vec<f64>,
    source: Vec<f64>,
    asm: Vec<f64>,
    new: Vec<f64>,
}

impl SetupTimes {
    /// Records one construction from the instants that bound its steps:
    /// source generation, assembly, then `Simulator::new`.
    fn push(&mut self, t0: Instant, t1: Instant, t2: Instant, t3: Instant) {
        self.source.push((t1 - t0).as_secs_f64());
        self.asm.push((t2 - t1).as_secs_f64());
        self.new.push((t3 - t2).as_secs_f64());
        self.total.push((t3 - t0).as_secs_f64());
    }

    fn layers(&self) -> [(&'static str, f64); 3] {
        [
            ("workloads.source_ms", median(&self.source) * 1e3),
            ("isa.asm_ms", median(&self.asm) * 1e3),
            ("sim.new_ms", median(&self.new) * 1e3),
        ]
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why the first failed operation failed.
    pub reason: Option<String>,
    /// Instructions retired in the measured window(s).
    pub retired: u64,
    /// Cycles simulated in the measured window(s).
    pub cycles: u64,
    /// Host seconds of the measured window(s).
    pub window_s: f64,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// The process's peak resident set, in MB.
    pub rss_mb: f64,
    /// Simulated IPC over the window(s).
    pub ipc: f64,
    /// Hash of the simulated results (see [`report_fingerprint`]).
    pub fingerprint: String,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Span totals `(name, calls, total_ns, self_ns)` (traced runs only).
    pub spans: Vec<(String, u64, u64, u64)>,
}

impl Sample {
    /// The child's output line.
    pub fn to_json(&self) -> Json {
        let mut layers = Json::object();
        for (k, v) in &self.layers {
            layers = layers.with(k, *v);
        }
        let spans = self
            .spans
            .iter()
            .map(|(n, calls, total, own)| {
                Json::Arr(vec![
                    Json::from(n.as_str()),
                    Json::from(*calls),
                    Json::from(*total),
                    Json::from(*own),
                ])
            })
            .collect();
        Json::object()
            .with("ops", self.ops)
            .with("failed", self.failed)
            .with("reason", self.reason.clone().map_or(Json::Null, Json::from))
            .with("retired", self.retired)
            .with("cycles", self.cycles)
            .with("window_s", self.window_s)
            .with("setup_s", self.setup_s)
            .with("rss_mb", self.rss_mb)
            .with("ipc", self.ipc)
            .with("fingerprint", self.fingerprint.as_str())
            .with("layers", layers)
            .with("spans", Json::Arr(spans))
    }

    /// Parses a child's output line.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped member.
    pub fn from_json(v: &Json) -> Result<Sample, String> {
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("missing `{k}`"))
        };
        let f = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing `{k}`"))
        };
        let mut s = Sample {
            ops: u("ops")?,
            failed: u("failed")?,
            reason: v.get("reason").and_then(Json::as_str).map(str::to_string),
            ..Sample::default()
        };
        if s.failed >= s.ops {
            // A failed repetition carries nothing else.
            return Ok(s);
        }
        s.retired = u("retired")?;
        s.cycles = u("cycles")?;
        s.window_s = f("window_s")?;
        s.setup_s = f("setup_s")?;
        s.rss_mb = f("rss_mb")?;
        s.ipc = f("ipc")?;
        s.fingerprint = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("missing `fingerprint`")?
            .to_string();
        for (k, val) in v.get("layers").and_then(Json::as_obj).unwrap_or(&[]) {
            s.layers.push((
                k.clone(),
                val.as_f64().ok_or(format!("layer `{k}` is not a number"))?,
            ));
        }
        for row in v.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            let cell = |i: usize| row.as_arr().and_then(|r| r.get(i));
            let num = |i: usize| cell(i).and_then(Json::as_u64).ok_or("malformed span row");
            let name = cell(0).and_then(Json::as_str).ok_or("malformed span row")?;
            s.spans.push((name.to_string(), num(1)?, num(2)?, num(3)?));
        }
        Ok(s)
    }
}

/// FNV-1a of a report's JSON without its `metrics` member, as 16 hex
/// digits. Leaving the metrics registry out lets observers rename their
/// metrics without moving the fingerprint; every simulated statistic is
/// still covered.
pub fn report_fingerprint(r: &Report) -> String {
    let mut v = r.to_json();
    if let Json::Obj(members) = &mut v {
        members.retain(|(k, _)| k != "metrics");
    }
    format!("{:016x}", fnv1a64(v.dump().as_bytes()))
}

/// FNV-1a over each campaign row's simulated results (status, IPC, window
/// fields, statistics and CPI stack) in row order.
fn rows_fingerprint(rows: &[RunRecord]) -> String {
    const KEEP: [&str; 6] = [
        "status",
        "ipc",
        "window_cycles",
        "window_retired",
        "stats",
        "cpi",
    ];
    let items = rows
        .iter()
        .map(|r| {
            let j = r.to_json();
            Json::Obj(
                KEEP.iter()
                    .filter_map(|k| j.get(k).map(|v| (k.to_string(), v.clone())))
                    .collect(),
            )
        })
        .collect();
    format!("{:016x}", fnv1a64(Json::Arr(items).dump().as_bytes()))
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn sim_err(e: tracefill_sim::SimError) -> String {
    format!("simulator: {e}")
}

fn run_single(w: Workload, seed: u64, smoke: bool, t: &mut Tracer) -> Result<Sample, String> {
    let size = single(w, smoke);
    let cfg = sim_config(w);
    let kernel = size.kernel.map(kernel);
    let gen_seed = match kernel {
        Some(_) => 0,
        None => gen24_seed(seed)?,
    };

    let mut times = SetupTimes::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let machine = cfg.clone();
        let t0 = Instant::now();
        let (prog, t1) = match &kernel {
            Some(b) => {
                let src = t.span("workloads.source", |_| b.source(size.scale));
                let t1 = Instant::now();
                let prog = t.span("isa.assemble", |_| assemble(&src));
                (prog.map_err(|e| format!("{}: {e}", b.name))?, t1)
            }
            // The generator assembles its own source, so its whole cost
            // lands in `workloads.source_ms`.
            None => {
                let prog = t.span("workloads.generate", |_| {
                    generate(&PatternMix::default(), 24, size.scale, gen_seed)
                });
                (prog.map_err(|e| format!("gen:24: {e}"))?, Instant::now())
            }
        };
        let t2 = Instant::now();
        let sim = t.span("sim.new", |_| Simulator::new(&prog, machine));
        times.push(t0, t1, t2, Instant::now());
        built = Some((prog, sim));
    }
    let (prog, mut sim) = built.expect("at least one construction");

    match t.span("sim.warmup", |_| sim.run_instrs(size.warmup)) {
        Ok(RunExit::CycleLimit) => {}
        Ok(exit) => return Err(format!("program stopped during warmup: {exit:?}")),
        Err(e) => return Err(sim_err(e)),
    }

    let before = t.enabled().then(|| Counts::of(&sim.report()));
    let (c0, r0) = (sim.cycle(), sim.stats().retired);
    let chunk = (size.window / CHUNKS).max(1);
    let start = Instant::now();
    let mut exit = None;
    for _ in 0..4 * CHUNKS {
        match t.span("sim.run_instrs", |_| sim.run_instrs(chunk)) {
            Ok(RunExit::CycleLimit) => {}
            Ok(e) => {
                exit = Some(e);
                break;
            }
            Err(e) => return Err(sim_err(e)),
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let exit = exit.ok_or("program did not exit within four times its window")?;
    let report_start = Instant::now();
    let report = t.span("sim.report", |_| sim.report());
    let report_ms = report_start.elapsed().as_secs_f64() * 1e3;

    // The program's observable behaviour must equal the interpreter's.
    let mut oracle = Interp::new(&prog);
    let halt = oracle
        .run(report.stats.retired * 2 + 1_000)
        .map_err(|e| format!("interpreter: {e}"))?;
    let expected = match halt {
        Halt::Exited(code) => RunExit::Exited(code),
        Halt::Break => RunExit::Break,
    };
    if exit != expected {
        return Err(format!(
            "simulator ended with {exit:?}, interpreter with {expected:?}"
        ));
    }
    if sim.io().output != oracle.io().output {
        return Err("program output differs from the interpreter's".to_string());
    }
    if report.stats.retired != oracle.icount() {
        return Err(format!(
            "simulator retired {} instructions, interpreter {}",
            report.stats.retired,
            oracle.icount()
        ));
    }

    let retired = report.stats.retired - r0;
    let cycles = sim.cycle() - c0;
    let mut sample = Sample {
        ops: 1,
        retired,
        cycles,
        window_s,
        setup_s: median(&times.total),
        ipc: replay::ratio(retired as f64, cycles as f64),
        fingerprint: report_fingerprint(&report),
        ..Sample::default()
    };
    if let Some(before) = before {
        let window = Counts::of(&report).since(before);
        let costs = replay::replay(&prog, &cfg, r0, retired.min(REPLAY_CAP), t)?;
        let ns = replay::layer_ns(&cfg, &costs, &window);
        let mut layers = replay::layer_metrics(&costs, &window, window_s * 1e9, ns);
        layers.extend(times.layers());
        layers.push(("sim.report_ms", report_ms));
        // No harness on a single run.
        for name in [
            "harness.overhead_share",
            "harness.store_append_us",
            "harness.store_load_ms",
            "harness.store_bytes_per_run",
        ] {
            layers.push((name, 0.0));
        }
        sample.layers = layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
    }
    Ok(sample)
}

fn run_sweep(seed: u64, smoke: bool, out_dir: &Path, t: &mut Tracer) -> Result<Sample, String> {
    let spec = sweep_spec(seed, smoke);
    let descs = spec.expand();
    let benches: Vec<Benchmark> = SWEEP_BENCHES.iter().map(|b| kernel(b)).collect();
    let prog_of = |d: &RunDescriptor| {
        SWEEP_BENCHES
            .iter()
            .position(|b| *b == d.bench)
            .expect("sweep rows run sweep kernels")
    };
    let total = spec.warmup + spec.budget;

    // Set-up: the four programs and eight simulators the campaign builds.
    let mut times = SetupTimes::default();
    let mut progs: Vec<Program> = Vec::new();
    for _ in 0..SETUP_REPS {
        progs.clear();
        let machines: Vec<SimConfig> = descs.iter().map(sweep_config).collect();
        let t0 = Instant::now();
        let srcs: Vec<String> = t.span("workloads.source", |_| {
            benches
                .iter()
                .map(|b| b.source(b.scale_for(total * 2)))
                .collect()
        });
        let t1 = Instant::now();
        progs = t
            .span("isa.assemble", |_| {
                srcs.iter().map(|s| assemble(s)).collect::<Result<_, _>>()
            })
            .map_err(|e| format!("sweep kernel: {e}"))?;
        let t2 = Instant::now();
        let sims: Vec<Simulator> = t.span("sim.new", |_| {
            descs
                .iter()
                .zip(machines)
                .map(|(d, m)| Simulator::new(&progs[prog_of(d)], m))
                .collect()
        });
        times.push(t0, t1, t2, Instant::now());
        drop(sims);
    }
    for d in &descs {
        if runner::build_program(d)? != progs[prog_of(d)] {
            return Err(format!(
                "set-up built a different {} program from the harness",
                d.bench
            ));
        }
    }

    let store_path = out_dir.join(format!("sweep-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", store_path.display());
    let mut store = ResultStore::open(&store_path).map_err(|e| io("opening", e))?;
    let start = Instant::now();
    t.span("harness.run_campaign", |_| {
        run_campaign(&spec, &mut store, 1, false)
    })
    .map_err(|e| io("writing", e))?;
    let wall_s = start.elapsed().as_secs_f64();
    let load_start = Instant::now();
    let mut rows = t
        .span("harness.store_load", |_| store.load())
        .map_err(|e| io("loading", e))?;
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    let summary = t.span("harness.report_summary", |_| report::summary(&rows));
    let store_bytes = std::fs::metadata(&store_path).map_or(0, |m| m.len());
    drop(store);
    let _ = std::fs::remove_file(&store_path);
    if !summary.starts_with(&format!("{} rows", rows.len())) {
        return Err(format!(
            "report summary disagrees with the store: {summary}"
        ));
    }

    rows.sort_by(|a, b| (&a.bench, &a.opt_label).cmp(&(&b.bench, &b.opt_label)));
    let bad: Vec<&RunRecord> = rows.iter().filter(|r| !r.status.is_ok()).collect();
    let missing = descs.len().saturating_sub(rows.len());
    let mut sample = Sample {
        ops: descs.len() as u64,
        failed: (bad.len() + missing) as u64,
        reason: bad
            .first()
            .map(|r| format!("{} {}: {:?}", r.bench, r.opt_label, r.status))
            .or_else(|| (missing > 0).then(|| format!("{missing} campaign rows missing"))),
        retired: rows.iter().map(|r| r.stats.retired).sum(),
        cycles: rows.iter().map(|r| r.stats.cycles).sum(),
        window_s: wall_s,
        setup_s: median(&times.total),
        ipc: replay::ratio(
            rows.iter().map(|r| r.window_retired).sum::<u64>() as f64,
            rows.iter().map(|r| r.window_cycles).sum::<u64>() as f64,
        ),
        fingerprint: rows_fingerprint(&rows),
        ..Sample::default()
    };
    if !t.enabled() || sample.failed > 0 {
        return Ok(sample);
    }

    // Store appends, timed on the same rows into a fresh store.
    let append_path = out_dir.join(format!("sweep-{}-append.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&append_path);
    let mut again = ResultStore::open(&append_path).map_err(|e| io("opening", e))?;
    let append_start = Instant::now();
    for r in &rows {
        t.span("harness.store_append", |_| again.append(r))
            .map_err(|e| io("appending", e))?;
    }
    let append_us = append_start.elapsed().as_secs_f64() * 1e6 / rows.len() as f64;
    drop(again);
    let _ = std::fs::remove_file(&append_path);

    // Layer costs from each kernel's stream, under the all-passes machine.
    let mut costs = Costs::default();
    for (i, _) in benches.iter().enumerate() {
        let all = descs
            .iter()
            .find(|d| prog_of(d) == i && d.opts == OptConfig::all())
            .expect("every kernel runs with all passes");
        costs.add(&replay::replay(&progs[i], &sweep_config(all), 0, total, t)?);
    }
    // Call counts: rows carry no cache statistics, so each row is
    // simulated again (deterministically) for its full report.
    let mut counts = Counts::default();
    let mut ns = [0.0; 9];
    let mut report_s = Vec::new();
    for d in &descs {
        let cfg = sweep_config(d);
        let mut sim = Simulator::new(&progs[prog_of(d)], cfg.clone());
        t.span("sim.resimulate", |_| {
            sim.run_instrs(spec.warmup)?;
            sim.run_instrs(spec.budget)
        })
        .map_err(sim_err)?;
        let report_start = Instant::now();
        let report = t.span("sim.report", |_| sim.report());
        report_s.push(report_start.elapsed().as_secs_f64());
        let row = rows
            .iter()
            .find(|r| r.bench == d.bench && r.opt_label == d.opt_label)
            .expect("row per descriptor");
        if report.stats != row.stats {
            return Err(format!(
                "re-simulating {} {} disagrees with its campaign row",
                d.bench, d.opt_label
            ));
        }
        let n = Counts::of(&report);
        counts.add(n);
        for (acc, layer) in ns.iter_mut().zip(replay::layer_ns(&cfg, &costs, &n)) {
            *acc += layer;
        }
    }
    let rows_ms: u64 = rows.iter().map(|r| r.wall_ms).sum();
    let mut layers = replay::layer_metrics(&costs, &counts, rows_ms as f64 * 1e6, ns);
    layers.extend(times.layers());
    layers.extend([
        ("sim.report_ms", median(&report_s) * 1e3),
        (
            "harness.overhead_share",
            replay::ratio(wall_s * 1e3 - rows_ms as f64, wall_s * 1e3),
        ),
        ("harness.store_append_us", append_us),
        ("harness.store_load_ms", load_ms),
        (
            "harness.store_bytes_per_run",
            store_bytes as f64 / rows.len() as f64,
        ),
    ]);
    sample.layers = layers
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Ok(sample)
}

/// Runs repetition `rep` of `w` and returns the child's output line.
/// Failures land in the line (`failed`, `reason`); with `traced`, the
/// spans also go to `<out_dir>/trace-<workload>.json`.
pub fn child(w: Workload, rep: u32, seed: u64, smoke: bool, traced: bool, out_dir: &Path) -> Json {
    let mut t = Tracer::new(traced, rep);
    let result = match w {
        Workload::SweepObserved => run_sweep(seed, smoke, out_dir, &mut t),
        _ => run_single(w, seed, smoke, &mut t),
    }
    .and_then(|mut s| {
        s.rss_mb = peak_rss_mb()?;
        if traced {
            let path = out_dir.join(format!("trace-{}.json", w.name()));
            std::fs::write(&path, trace::chrome_trace(t.spans()).dump())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            s.spans = trace::by_name(t.spans())
                .into_iter()
                .map(|(n, calls, total, own)| (n.to_string(), calls, total, own))
                .collect();
        }
        Ok(s)
    });
    let sample = result.unwrap_or_else(|reason| Sample {
        ops: w.ops(),
        failed: w.ops(),
        reason: Some(reason),
        ..Sample::default()
    });
    sample.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("m88k"), None);
    }

    #[test]
    fn gen24_seeds_pin_the_composition_and_differ_by_seed() {
        let a = gen24_seed(1).expect("seed 1 finds a program");
        assert_eq!(gen24_seed(1), Ok(a), "deterministic");
        let b = gen24_seed(2).expect("seed 2 finds a program");
        let prog = |s| generate(&PatternMix::default(), 24, 2, s).expect("assembles");
        assert_ne!(prog(a), prog(b), "another seed, another program");
    }

    #[test]
    fn sample_round_trips_through_json() {
        let s = Sample {
            ops: 8,
            failed: 1,
            reason: Some("comp none: CycleLimit".to_string()),
            retired: 480_123,
            cycles: 120_456,
            window_s: 4.25,
            setup_s: 0.000_812_7,
            rss_mb: 21.5,
            ipc: 3.181_234_5,
            fingerprint: "00ff00ff00ff00ff".to_string(),
            layers: vec![
                ("sim.loop_share".to_string(), 0.61),
                ("core.fill.segments".to_string(), 4200.0),
            ],
            spans: vec![("sim.run_instrs".to_string(), 100, 4_000_000, 3_900_000)],
        };
        let text = s.to_json().dump();
        let back = Sample::from_json(&Json::parse(&text).expect("reparses")).expect("well-formed");
        assert_eq!(back, s);
        assert_eq!(back.to_json().dump(), text);
    }

    #[test]
    fn failed_line_needs_no_measurements() {
        let line = Json::object()
            .with("ops", 1u64)
            .with("failed", 1u64)
            .with("reason", "boom");
        let s = Sample::from_json(&line).expect("parses");
        assert_eq!((s.ops, s.failed, s.reason.as_deref()), (1, 1, Some("boom")));
        assert!(Sample::from_json(&Json::object().with("ops", 1u64).with("failed", 0u64)).is_err());
    }
}
