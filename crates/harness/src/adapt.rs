//! Static-vs-adaptive comparison: the `tracefill adapt` engine.
//!
//! For each benchmark, every static optimization set in the spec is run
//! with the controller off, and one adaptive run executes with the pass
//! controller enabled (arms gate which passes run; pass parameters stay at
//! the paper's values), all on the pool. The result is a deterministic
//! JSON report — no wall-clock fields, members in fixed order — so two
//! same-seed invocations produce byte-identical output.

use crate::grid::{CampaignSpec, OptPoint};
use crate::pool;
use crate::runner::RunRecord;
use tracefill_core::config::{ControllerMode, OptConfig, ReplacementKind};
use tracefill_util::Json;

/// What an adaptive comparison sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptSpec {
    /// Benchmarks to compare on (suite names or `gen:` workloads).
    pub benchmarks: Vec<String>,
    /// The static arms: opt-set specs run with the controller off.
    pub opt_specs: Vec<String>,
    /// The adaptive controller mode (e.g. `egreedy:100`, `ucb:1414`).
    pub mode: ControllerMode,
    /// Workload and controller seed.
    pub seed: u64,
    /// Trace-cache replacement policy for every run.
    pub policy: ReplacementKind,
    /// Fill-pipeline latency in cycles.
    pub fill_latency: u32,
    /// Warmup window (retired instructions).
    pub warmup: u64,
    /// Measured window (retired instructions).
    pub budget: u64,
    /// Per-run cycle watchdog.
    pub max_cycles: u64,
    /// Per-run wall-clock watchdog (milliseconds; never in the report).
    pub wall_limit_ms: u64,
    /// Fills per controller epoch. Epochs much shorter than trace-cache
    /// residence feed the bandit rewards earned by *previous* arms'
    /// segments, so the default is deliberately long.
    pub epoch_fills: u64,
}

impl Default for AdaptSpec {
    /// The paper's six comparison points on the full suite, with the
    /// settings that let the bandit converge: a low-exploration UCB, long
    /// epochs (reward attribution needs the arm's own segments resident),
    /// and a warmup long enough to pay the exploration bill before the
    /// measured window opens.
    fn default() -> AdaptSpec {
        AdaptSpec {
            benchmarks: tracefill_workloads::names()
                .iter()
                .map(|n| (*n).to_string())
                .collect(),
            opt_specs: ["none", "moves", "reassoc", "scadd", "placement", "all"]
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            mode: ControllerMode::Ucb { c_milli: 100 },
            seed: 0,
            policy: ReplacementKind::Lru,
            fill_latency: 1,
            warmup: 200_000,
            budget: 50_000,
            max_cycles: 50_000_000,
            wall_limit_ms: 120_000,
            epoch_fills: 1024,
        }
    }
}

impl AdaptSpec {
    fn campaign(&self, opt_sets: Vec<OptPoint>, controller: String) -> CampaignSpec {
        CampaignSpec {
            name: "adapt".to_string(),
            opt_sets,
            fill_latencies: vec![self.fill_latency],
            benchmarks: self.benchmarks.clone(),
            seeds: vec![self.seed],
            warmup: self.warmup,
            budget: self.budget,
            max_cycles: self.max_cycles,
            wall_limit_ms: self.wall_limit_ms,
            policies: vec![self.policy.name().to_string()],
            controller,
            epoch_fills: self.epoch_fills,
            ledger: false,
            self_repair: false,
        }
    }
}

fn run_row(rec: &RunRecord) -> Result<Json, String> {
    if !rec.status.is_ok() {
        let (bench, opts, status) = (&rec.bench, &rec.opt_label, rec.status.tag());
        return Err(format!("{bench} [{opts}] failed: {status}"));
    }
    Ok(Json::object()
        .with("opts", rec.opt_label.as_str())
        .with("ipc", rec.ipc)
        .with("window_cycles", rec.window_cycles)
        .with("window_retired", rec.window_retired))
}

/// Runs the comparison and builds the deterministic report.
///
/// # Errors
///
/// Unknown benchmark names, unparseable opt specs, and failed runs
/// (watchdog, simulator error) are reported with the offending
/// configuration.
pub fn run_adapt(spec: &AdaptSpec) -> Result<Json, String> {
    if spec.benchmarks.is_empty() || spec.opt_specs.is_empty() {
        return Err("adapt spec has an empty axis".to_string());
    }
    for b in &spec.benchmarks {
        if !b.starts_with("gen:") && tracefill_workloads::by_name(b).is_none() {
            return Err(format!(
                "unknown benchmark `{b}` (try one of: {})",
                tracefill_workloads::names().join(", ")
            ));
        }
    }
    let mut static_sets = Vec::new();
    for s in &spec.opt_specs {
        let opts = OptConfig::from_name(s)?;
        static_sets.push(OptPoint {
            label: opts.label(),
            opts,
        });
    }
    let adaptive_sets = vec![OptPoint {
        label: "all".to_string(),
        opts: OptConfig::all(),
    }];

    let mut runs = spec.campaign(static_sets, "off".to_string()).expand();
    let n_static = runs.len();
    runs.extend(spec.campaign(adaptive_sets, spec.mode.label()).expand());
    let records = pool::execute_all(&runs, "adapt");
    let (static_runs, adaptive_runs) = records.split_at(n_static);

    let mut bench_rows = Vec::new();
    let mut sum_best = 0.0f64;
    let mut sum_adaptive = 0.0f64;
    let mut wins = 0u64;
    // Per-opt-set IPC sums across benchmarks, for the "best single static
    // set" aggregate (the honest adaptive-vs-static yardstick: one fixed
    // configuration for the whole suite).
    let mut set_sums = vec![0.0f64; spec.opt_specs.len()];
    for (i, bench) in spec.benchmarks.iter().enumerate() {
        // expand() is benchmark-major: this benchmark's static runs are a
        // contiguous block, and it has exactly one adaptive run.
        let statics = &static_runs[i * spec.opt_specs.len()..(i + 1) * spec.opt_specs.len()];
        let mut static_rows = Vec::new();
        let mut best: Option<(String, f64)> = None;
        for (j, rec) in statics.iter().enumerate() {
            static_rows.push(run_row(rec)?);
            set_sums[j] += rec.ipc;
            if best.as_ref().is_none_or(|(_, ipc)| rec.ipc > *ipc) {
                best = Some((rec.opt_label.clone(), rec.ipc));
            }
        }
        let (best_label, best_ipc) = best.expect("non-empty opt axis");

        let rec = &adaptive_runs[i];
        let mut adaptive = run_row(rec)?;
        adaptive = adaptive
            .with("controller", rec.controller.as_str())
            .with("epochs", rec.metrics.counter("policy.epochs"))
            .with("evictions", rec.metrics.counter("tcache.evictions"));
        // Every `policy.arm.<label>` counter, in registry order.
        let mut arms = Json::object();
        for (name, n) in rec.metrics.counters() {
            if let Some(label) = name.strip_prefix("policy.arm.") {
                arms = arms.with(label, n);
            }
        }
        adaptive = adaptive.with("arm_epochs", arms);

        sum_best += best_ipc;
        sum_adaptive += rec.ipc;
        if rec.ipc >= best_ipc {
            wins += 1;
        }
        bench_rows.push(
            Json::object()
                .with("bench", bench.as_str())
                .with("static", Json::Arr(static_rows))
                .with(
                    "best_static",
                    Json::object()
                        .with("opts", best_label.as_str())
                        .with("ipc", best_ipc),
                )
                .with("adaptive", adaptive)
                .with("delta_vs_best", rec.ipc - best_ipc),
        );
    }

    let n = spec.benchmarks.len() as f64;
    let (best_set_idx, best_set_sum) = set_sums
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite IPC sums"))
        .expect("non-empty opt axis");
    let best_set_label = OptConfig::from_name(&spec.opt_specs[best_set_idx])
        .expect("validated above")
        .label();
    Ok(Json::object()
        .with(
            "spec",
            Json::object()
                .with("controller", spec.mode.label().as_str())
                .with("policy", spec.policy.name())
                .with("seed", spec.seed)
                .with("fill_latency", spec.fill_latency)
                .with("warmup", spec.warmup)
                .with("budget", spec.budget)
                .with("epoch_fills", spec.epoch_fills)
                .with(
                    "opts",
                    spec.opt_specs.iter().map(String::as_str).collect::<Json>(),
                ),
        )
        .with("benchmarks", Json::Arr(bench_rows))
        .with(
            "summary",
            Json::object()
                .with("benches", spec.benchmarks.len() as u64)
                .with("mean_best_static_ipc", sum_best / n)
                .with(
                    "best_single_static",
                    Json::object()
                        .with("opts", best_set_label.as_str())
                        .with("mean_ipc", best_set_sum / n),
                )
                .with("mean_adaptive_ipc", sum_adaptive / n)
                .with("adaptive_wins", wins),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> AdaptSpec {
        AdaptSpec {
            benchmarks: vec!["m88k".to_string()],
            opt_specs: vec!["none".to_string(), "all".to_string()],
            warmup: 2_000,
            budget: 2_000,
            max_cycles: 5_000_000,
            epoch_fills: 16, // tiny windows: still exercise arm switching
            ..AdaptSpec::default()
        }
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let spec = tiny_spec();
        let a = run_adapt(&spec).unwrap().dump();
        let b = run_adapt(&spec).unwrap().dump();
        assert_eq!(a, b, "same seed must produce byte-identical reports");
        assert!(a.contains("\"adaptive\""));
        assert!(a.contains("\"best_static\""));
    }

    #[test]
    fn different_seeds_may_differ_but_still_complete() {
        let mut spec = tiny_spec();
        spec.seed = 1;
        let report = run_adapt(&spec).unwrap();
        let summary = report.get("summary").unwrap();
        assert_eq!(summary.get("benches").and_then(Json::as_u64), Some(1));
        assert!(
            summary
                .get("mean_adaptive_ipc")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn rejects_unknown_benchmarks_and_opts() {
        let mut spec = tiny_spec();
        spec.benchmarks = vec!["nonesuch".to_string()];
        assert!(run_adapt(&spec).is_err());
        let mut spec = tiny_spec();
        spec.opt_specs = vec!["frob".to_string()];
        assert!(run_adapt(&spec).is_err());
    }
}
