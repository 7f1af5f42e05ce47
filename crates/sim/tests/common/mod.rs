//! The observation-identity check: whichever observers are on — the
//! pipeline trace log, the segment ledger, and self-repair (armed, but
//! idle on a healthy run) — the machine retires the same instructions in
//! the same cycles, and its report differs from an all-off run only in
//! `ledger.*` keys. One checker, run over a different slice of programs
//! by each observer's identity test.

// Each test target uses a subset of these helpers.
#![allow(dead_code)]

use tracefill_core::config::OptConfig;
use tracefill_core::tcache::TraceCacheStats;
use tracefill_isa::Program;
use tracefill_sim::{RunExit, SimConfig, Simulator, Stats};
use tracefill_util::Json;

/// Which observers a run arms.
#[derive(Debug, Clone, Copy)]
pub struct Observers {
    pub trace_depth: usize,
    pub ledger: bool,
    pub self_repair: bool,
}

pub const ALL_OFF: Observers = Observers {
    trace_depth: 0,
    ledger: false,
    self_repair: false,
};

pub const LEDGER_ONLY: Observers = Observers {
    ledger: true,
    ..ALL_OFF
};

pub const ALL_ON: Observers = Observers {
    trace_depth: 4096,
    ledger: true,
    self_repair: true,
};

/// Every on/off combination of the three observers, all off first.
pub fn matrix() -> Vec<Observers> {
    let mut all = Vec::new();
    for trace_depth in [0, 4096] {
        for ledger in [false, true] {
            for self_repair in [false, true] {
                all.push(Observers {
                    trace_depth,
                    ledger,
                    self_repair,
                });
            }
        }
    }
    all
}

/// What a run shows of the simulated machine.
#[derive(Debug, PartialEq)]
struct Run {
    exit: RunExit,
    cycles: u64,
    stats: Stats,
    tcache: TraceCacheStats,
    cpi: String,
    /// The report JSON with every `ledger.*` member removed.
    report: String,
}

/// `doc` without any `ledger.*` member, at any depth.
fn without_ledger(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !k.starts_with("ledger."))
                .map(|(k, v)| (k.clone(), without_ledger(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Runs `case` with `obs` armed, checks that each armed observer saw
/// something and that the report carries `ledger.*` keys exactly when the
/// ledger is on and no `repair.*` key, and returns what the run shows.
fn run(case: &Case, obs: Observers) -> Run {
    let label = case.label;
    let mut cfg = SimConfig::with_opts(case.opts);
    cfg.trace_depth = obs.trace_depth;
    cfg.ledger = obs.ledger;
    cfg.self_repair.enabled = obs.self_repair;
    let mut sim = Simulator::new(&case.prog, cfg);
    let exit = match case.instrs {
        Some(n) => sim.run_instrs(n),
        None => sim.run(TO_HALT_CYCLES),
    }
    .unwrap_or_else(|e| panic!("{label} {obs:?}: {e}"));
    if case.instrs.is_none() {
        assert!(
            matches!(exit, RunExit::Exited(_)),
            "{label} {obs:?}: ran to {exit:?}, not to the exit syscall"
        );
    }
    assert!(sim.repairs().is_empty(), "{label} {obs:?}: a healthy run");
    assert_eq!(
        sim.trace().is_empty(),
        obs.trace_depth == 0,
        "{label} {obs:?}"
    );
    assert_eq!(sim.ledger().is_empty(), !obs.ledger, "{label} {obs:?}");
    let report = sim.report().to_json();
    let text = report.dump();
    assert_eq!(
        text.contains("\"ledger."),
        obs.ledger,
        "{label} {obs:?}: ledger.* keys exactly when the ledger is on"
    );
    assert!(
        !text.contains("\"repair."),
        "{label} {obs:?}: repair.* keys"
    );
    Run {
        exit,
        cycles: sim.cycle(),
        stats: sim.stats(),
        tcache: sim.tcache_stats(),
        cpi: sim.cpi().to_json().dump(),
        report: without_ledger(&report).dump(),
    }
}

/// `f` over `items` on two threads, results in item order. The runs are
/// independent, so this only halves the wall time.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let odd = s.spawn(|| items.iter().skip(1).step_by(2).map(&f).collect::<Vec<_>>());
        let even: Vec<R> = items.iter().step_by(2).map(&f).collect();
        let mut odd = odd.join().expect("a run panicked").into_iter();
        even.into_iter()
            .flat_map(|r| std::iter::once(r).chain(odd.next()))
            .collect()
    })
}

/// The cycle budget of a case that runs to halt; hitting it fails the
/// case.
const TO_HALT_CYCLES: u64 = 50_000_000;

/// A labelled program, the machine it runs on, how long it runs, and the
/// observer sets to run it under; the first set is the baseline the
/// others must match.
pub struct Case {
    pub label: &'static str,
    pub prog: Program,
    pub opts: OptConfig,
    /// Instructions to retire, or `None` to run to the exit syscall.
    pub instrs: Option<u64>,
    pub sets: Vec<Observers>,
}

/// `instrs` instructions of suite kernel `bench` on the all-opts machine,
/// scaled to run that long.
pub fn suite_case(bench: &'static str, instrs: u64, sets: Vec<Observers>) -> Case {
    let b = tracefill_workloads::by_name(bench).unwrap();
    Case {
        label: bench,
        prog: b.program(b.scale_for(2 * instrs)).unwrap(),
        opts: OptConfig::all(),
        instrs: Some(instrs),
        sets,
    }
}

/// Runs every case under each of its observer sets and asserts that each
/// run shows exactly what its baseline run shows.
pub fn assert_observation_never_perturbs_simulation(cases: &[Case]) {
    let runs: Vec<_> = cases
        .iter()
        .flat_map(|case| case.sets.iter().map(move |&obs| (case, obs)))
        .collect();
    let shown = par_map(&runs, |&(case, obs)| run(case, obs));
    let mut base = 0;
    for (i, &(case, obs)) in runs.iter().enumerate() {
        if !std::ptr::eq(runs[base].0, case) {
            base = i;
        }
        assert_eq!(shown[i], shown[base], "{} {obs:?}", case.label);
    }
}
