//! Design-choice ablations beyond the paper's own figures (indexed in
//! DESIGN.md): trace packing, branch promotion, inactive issue,
//! loop-aligned fill, promotion threshold, and scaled-add shift limit.

use tracefill_bench::run_with;
use tracefill_core::config::OptConfig;
use tracefill_sim::SimConfig;

/// Geometric-mean IPC over the suite on the machine `make` builds.
fn sweep(title: &str, make: &dyn Fn() -> SimConfig) -> f64 {
    let suite = tracefill_workloads::suite();
    let log_sum: f64 = suite.iter().map(|b| run_with(b, make()).ln()).sum();
    let g = (log_sum / suite.len() as f64).exp();
    println!("{title:40} geomean IPC = {g:.3}");
    g
}

fn main() {
    println!("=== Ablations (geomean IPC over the suite) ===");
    let base = sweep("baseline (paper machine)", &SimConfig::default);
    sweep("baseline, trace packing off", &|| {
        let mut c = SimConfig::default();
        c.fill.packing = false;
        c
    });
    sweep("baseline, promotion off", &|| {
        let mut c = SimConfig::default();
        c.fill.promotion = false;
        c
    });
    sweep("baseline, inactive issue off", &|| SimConfig {
        inactive_issue: false,
        ..SimConfig::default()
    });
    sweep("baseline, loop-aligned fill off", &|| {
        let mut c = SimConfig::default();
        c.fill.align_loops = false;
        c
    });
    sweep("baseline, promotion threshold 16", &|| {
        let mut c = SimConfig::default();
        c.bias.threshold = 16;
        c
    });
    let all = sweep("all optimizations", &|| {
        SimConfig::with_opts(OptConfig::all())
    });
    sweep("all opts, in-block reassoc allowed", &|| {
        let mut o = OptConfig::all();
        o.reassoc_cross_block_only = false;
        SimConfig::with_opts(o)
    });
    sweep("all opts + CSE (paper future work)", &|| {
        let mut o = OptConfig::all();
        o.cse = true;
        SimConfig::with_opts(o)
    });
    sweep("all opts, scadd shift limit 4", &|| {
        let mut o = OptConfig::all();
        o.scadd_max_shift = 4;
        SimConfig::with_opts(o)
    });
    sweep("all opts, cross-cluster latency 2", &|| {
        let mut c = SimConfig::with_opts(OptConfig::all());
        c.cross_cluster_latency = 2;
        c
    });
    sweep("all opts, trace cache 512 entries", &|| {
        let mut c = SimConfig::with_opts(OptConfig::all());
        c.tcache.entries = 512;
        c
    });
    sweep("all opts, trace cache 8192 entries", &|| {
        let mut c = SimConfig::with_opts(OptConfig::all());
        c.tcache.entries = 8192;
        c
    });
    println!(
        "\ncombined optimizations: {:+.1}% over baseline",
        (all / base - 1.0) * 100.0
    );
}
