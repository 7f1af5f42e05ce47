//! # tracefill-bench
//!
//! Shared harness code for regenerating every table and figure of the
//! paper's evaluation. Each `cargo bench` target prints the same rows or
//! series the paper reports, side by side with the paper's numbers:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_suite` | Table 1 — the benchmark suite |
//! | `fig3_register_moves` | Figure 3 — IPC gain of register-move handling |
//! | `fig4_reassociation` | Figure 4 — IPC gain of reassociation |
//! | `fig5_scaled_adds` | Figure 5 — IPC gain of scaled adds |
//! | `fig6_placement` | Figure 6 — IPC gain of instruction placement |
//! | `fig7_bypass_delay` | Figure 7 — % instructions delayed by bypass |
//! | `fig8_combined` | Figure 8 — combined gain at fill latency 1/5/10 |
//! | `table2_coverage` | Table 2 — % of instructions transformed |
//! | `ablations` | beyond-paper design-choice sweeps |
//!
//! Instruction budgets are environment-tunable: `TRACEFILL_BUDGET` (measured
//! window, default 150 000 retired instructions per run) and
//! `TRACEFILL_WARMUP` (default 150 000 — trace-cache, bias-table and
//! predictor state need a long run-in before the steady state is
//! representative).
//!
//! Every run goes through the harness runner: figures and tables as
//! campaign grids ([`campaign_records`]), and the ablations, whose machine
//! settings are not grid axes, one `SimConfig` at a time ([`run_with`]).

#![warn(missing_docs)]

use tracefill_core::config::OptConfig;
use tracefill_harness::runner::{build_program, run_program};
use tracefill_harness::{report, run_campaign, CampaignSpec, OptPoint, ResultStore, RunRecord};
use tracefill_sim::SimConfig;
use tracefill_workloads::Benchmark;

/// An integer environment knob, or `default` when unset.
///
/// # Panics
///
/// Panics on a value that is not an integer.
fn env_knob(key: &str, default: u64) -> u64 {
    std::env::var(key).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{key} must be an integer"))
    })
}

/// Runs `bench` on the machine `cfg` through the harness runner for the
/// standard warmup + budget window and returns the IPC over the window.
///
/// # Panics
///
/// Panics if the run does not end `ok` — the oracle lockstep check is
/// enabled, so a completed run is an architecturally verified run.
pub fn run_with(bench: &Benchmark, cfg: SimConfig) -> f64 {
    let desc = CampaignSpec {
        name: "ablations".to_string(),
        benchmarks: vec![bench.name.to_string()],
        warmup: env_knob("TRACEFILL_WARMUP", 150_000),
        budget: env_knob("TRACEFILL_BUDGET", 150_000),
        ..CampaignSpec::fig8()
    }
    .expand()
    .remove(0);
    let prog = build_program(&desc).expect("kernel assembles");
    let (record, _) = run_program(&desc, &prog, cfg, "ablations", None);
    assert!(record.status.is_ok(), "{}: {}", bench.name, record.status);
    record.ipc
}

/// Runs `spec` through the campaign engine into a resumable store under
/// `target/campaigns/` and returns every recorded row.
///
/// The store path is keyed by campaign name and window sizes
/// (`TRACEFILL_WARMUP`/`TRACEFILL_BUDGET` override the spec's windows), so
/// a killed regeneration resumes instead of restarting, and window changes
/// never mix rows. Set `TRACEFILL_JOBS` to pin the worker count.
///
/// # Panics
///
/// Panics on store I/O errors — figure regeneration has no useful
/// degraded mode without its results file.
pub fn campaign_records(mut spec: CampaignSpec) -> Vec<RunRecord> {
    spec.warmup = env_knob("TRACEFILL_WARMUP", spec.warmup);
    spec.budget = env_knob("TRACEFILL_BUDGET", spec.budget);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = env_knob("TRACEFILL_JOBS", cores as u64) as usize;
    std::fs::create_dir_all("target/campaigns").expect("create target/campaigns");
    let (name, warmup, budget) = (&spec.name, spec.warmup, spec.budget);
    let path = format!("target/campaigns/{name}-w{warmup}-b{budget}.jsonl");
    let mut store = ResultStore::open(&path).expect("open campaign store");
    let summary = run_campaign(&spec, &mut store, jobs, true).expect("campaign I/O");
    let (total, resumed, failed) = (summary.total, summary.skipped, summary.failed);
    eprintln!("[{total} runs, {resumed} resumed, {failed} failed -> {path}]");
    store.load().expect("load campaign store")
}

/// Runs the whole suite at fill latency 1 under `none` and `opts`
/// through [`campaign_records`]. Every figure uses the same campaign name,
/// so figures that need the same runs share them from one store.
///
/// # Panics
///
/// Panics if any run failed — a figure has no row for a failed run.
pub fn suite_records(opts: OptConfig) -> Vec<RunRecord> {
    let point = |opts: OptConfig| OptPoint {
        label: opts.label(),
        opts,
    };
    let records = campaign_records(CampaignSpec {
        name: "suite".to_string(),
        opt_sets: vec![point(OptConfig::none()), point(opts)],
        fill_latencies: vec![1],
        ..CampaignSpec::fig8()
    });
    if let Some(r) = records.iter().find(|r| !r.status.is_ok()) {
        panic!("{} [{}]: {:?}", r.bench, r.opt_label, r.status);
    }
    records
}

/// Prints the standard per-benchmark improvement table for one
/// optimization, with the paper's reported improvement alongside.
pub fn improvement_table(title: &str, opts: OptConfig, paper: &dyn Fn(&Benchmark) -> Option<f64>) {
    println!("\n=== {title} ===");
    println!(
        "{:6} {:>9} {:>9} {:>8} {:>10}",
        "bench", "base IPC", "opt IPC", "ours", "paper"
    );
    let label = opts.label();
    let cells = report::aggregates(&suite_records(opts));
    let cell = cells.iter().find(|c| c.opt_label == label);
    let cell = cell.expect("suite cell");
    for (bench, base, ipc, imp) in &cell.per_bench {
        let paper = tracefill_workloads::by_name(bench).and_then(|b| paper(&b));
        let paper = paper.map_or_else(|| "-".into(), |p| format!("{p:+.1}%"));
        println!("{bench:6} {base:9.3} {ipc:9.3} {imp:+7.1}% {paper:>10}");
    }
    let mean = cell.arith_mean_pct;
    println!("{:6} {:>9} {:>9} {mean:+7.1}%", "mean", "", "");
}
