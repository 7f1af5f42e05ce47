//! # tracefill-bench
//!
//! The `tracefill` CLI and the `ablations` benchmark. Every table and
//! figure of the paper's evaluation comes from the CLI, through the
//! harness's campaign store and its renderers:
//!
//! | command | reproduces |
//! |---|---|
//! | `tracefill characterize` | Table 1 — the benchmark suite |
//! | `tracefill campaign passes` + `report --format fig3`…`fig6` | Figures 3–6 — IPC gain of each pass alone |
//! | `tracefill campaign passes` + `report --format fig7` | Figure 7 — % instructions delayed by bypass |
//! | `tracefill campaign fig8` + `report --format fig8` | Figure 8 — combined gain at fill latency 1/5/10 |
//! | `tracefill campaign fig8` + `report --format table2` | Table 2 — % of instructions transformed |
//!
//! The `ablations` target sweeps machine settings that are not grid
//! axes, one `SimConfig` at a time through [`run_with`]. Its windows are
//! environment-tunable: `TRACEFILL_BUDGET` (measured window, default
//! 150 000 retired instructions per run) and `TRACEFILL_WARMUP` (default
//! 150 000 — trace-cache, bias-table and predictor state need a long
//! run-in before the steady state is representative).

#![warn(missing_docs)]

use tracefill_harness::runner::{build_program, run_program};
use tracefill_harness::CampaignSpec;
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
