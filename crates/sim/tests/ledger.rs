//! Segment-lifetime-ledger guarantees: its attribution conserves the
//! machine's own retire counters, its accounting agrees with the cache
//! and policy statistics, its report is byte-deterministic, and it is
//! purely observational.

mod common;

use common::{ALL_OFF, LEDGER_ONLY};

use tracefill_core::config::{OptConfig, ReplacementKind};
use tracefill_sim::{SimConfig, Simulator};
use tracefill_util::Json;

const BUDGET: u64 = 4_000;

fn run(bench: &str, mut cfg: SimConfig, ledger: bool) -> Simulator {
    cfg.ledger = ledger;
    let b = tracefill_workloads::by_name(bench).unwrap();
    let prog = b.program(b.scale_for(BUDGET * 2)).unwrap();
    let mut sim = Simulator::new(&prog, cfg);
    sim.run_instrs(BUDGET)
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    sim
}

/// On every suite kernel, the ledger changes no simulated quantity and no
/// report byte outside `ledger.*`, and a ledger-off report carries no
/// `ledger.*` key.
#[test]
fn ledger_off_and_on_are_bit_identical() {
    let cases: Vec<_> = tracefill_workloads::names()
        .into_iter()
        .map(|b| common::suite_case(b, BUDGET, vec![ALL_OFF, LEDGER_ONLY]))
        .collect();
    common::assert_observation_never_perturbs_simulation(&cases);
}

/// Conservation: ≥ 99% of trace-cache-served retired uops must map back
/// to a ledgered segment. (In practice the attribution is exact — every
/// trace-cache uop carries its segment.)
#[test]
fn ledger_attribution_conserves_retired_from_tc() {
    for bench in tracefill_workloads::names() {
        let sim = run(bench, SimConfig::with_opts(OptConfig::all()), true);
        let from_tc = sim.stats().retired_from_tc;
        let attributed = sim.ledger().attributed_retired();
        assert!(
            attributed * 100 >= from_tc * 99,
            "{bench}: only {attributed}/{from_tc} tc-retired uops attributed"
        );
        assert!(
            attributed <= from_tc,
            "{bench}: attribution over-counts ({attributed} > {from_tc})"
        );
    }
}

/// The ledger's eviction/hit accounting agrees with both the trace
/// cache's statistics and the replacement policy's own counters.
#[test]
fn ledger_cache_and_policy_accounting_agree() {
    for kind in [
        ReplacementKind::Lru,
        ReplacementKind::Srrip,
        ReplacementKind::Trrip,
    ] {
        let mut cfg = SimConfig::with_opts(OptConfig::all());
        cfg.tcache.policy = kind;
        let sim = run("m88k", cfg, true);
        let tc = sim.tcache_stats();
        let pc = sim.tcache_policy_counters();
        assert_eq!(pc.hits, tc.hits, "{}: policy vs cache hits", kind.name());
        assert_eq!(
            pc.evictions,
            tc.evictions,
            "{}: policy vs cache evictions",
            kind.name()
        );
        let led = sim.ledger();
        let conflict = led
            .records()
            .filter(|r| matches!(r.evicted, Some((_, tracefill_core::EvictCause::Conflict))))
            .count() as u64;
        let refresh = led
            .records()
            .filter(|r| matches!(r.evicted, Some((_, tracefill_core::EvictCause::Refresh))))
            .count() as u64;
        let hits: u64 = led.records().map(|r| r.hits).sum();
        assert_eq!(conflict, tc.evictions, "{}: ledger conflicts", kind.name());
        assert_eq!(refresh, tc.refreshes, "{}: ledger refreshes", kind.name());
        assert_eq!(hits, tc.hits, "{}: ledger hits", kind.name());
        // Every cached fill is ledgered.
        assert_eq!(led.len() as u64, tc.fills, "{}: ledger fills", kind.name());
    }
}

/// Same configuration ⇒ byte-identical ledger report, and the report's
/// totals agree with the exported `ledger.*` metrics.
#[test]
fn ledger_report_is_byte_deterministic() {
    let a = run("m88k", SimConfig::with_opts(OptConfig::all()), true);
    let b = run("m88k", SimConfig::with_opts(OptConfig::all()), true);
    let ra = a.ledger().report(a.cycle(), 5).dump_pretty(2);
    let rb = b.ledger().report(b.cycle(), 5).dump_pretty(2);
    assert_eq!(ra, rb);
    let rep = a.ledger().report(a.cycle(), 5);
    let metrics = a.report().metrics;
    assert_eq!(
        rep.get("segments").and_then(Json::as_u64),
        Some(metrics.counter("ledger.segments"))
    );
    assert_eq!(
        rep.get("uops_retired").and_then(Json::as_u64),
        Some(metrics.counter("ledger.uops_retired"))
    );
    assert!(rep.get("segments").and_then(Json::as_u64).unwrap() > 0);
}

/// With the ledger on, the Chrome trace carries one `segment` span per
/// ledgered segment on its own (pid 1) track, after one event per
/// pipeline event.
#[test]
fn chrome_trace_gains_segment_tracks() {
    let mut cfg = SimConfig::with_opts(OptConfig::all());
    cfg.trace_depth = 4096;
    let sim = run("m88k", cfg, true);
    let n_base = sim.trace().len();
    let enriched = sim.trace().to_chrome_trace(sim.ledger(), sim.cycle());
    let events = enriched.get("traceEvents").and_then(Json::as_arr).unwrap();
    let seg_spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("segment"))
        .collect();
    assert_eq!(events.len(), n_base + sim.ledger().len());
    assert_eq!(seg_spans.len(), sim.ledger().len());
    for s in seg_spans {
        assert_eq!(s.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(s.get("pid").and_then(Json::as_u64), Some(1));
        assert!(s.get("dur").and_then(Json::as_u64).unwrap() >= 1);
    }
}
