//! Aggregation and reporting — the campaign engine's scientific output.
//!
//! Everything here is computed from the JSONL rows alone (no live
//! simulator state), so `tracefill report` can reproduce the paper-shaped
//! tables from a results file long after the sweep ran, and the output is
//! deterministic: records are grouped and sorted by content, never by
//! arrival order, so `--jobs 1` and `--jobs 4` campaigns aggregate
//! identically.

use crate::faults::{Outcome, Tally};
use crate::runner::RunRecord;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Per-benchmark IPC delta of one grid cell (an {opt set} × {fill latency}
/// point) against the `none` baseline at the same latency.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDelta {
    /// Optimization label of the cell.
    pub opt_label: String,
    /// Fill latency of the cell.
    pub fill_latency: u32,
    /// `(bench, base IPC, cell IPC, delta %)` rows, in suite order.
    pub per_bench: Vec<BenchDelta>,
    /// Arithmetic mean of the per-benchmark deltas (%).
    pub arith_mean_pct: f64,
    /// Geometric mean of the per-benchmark speedups, as a delta (%).
    pub geo_mean_pct: f64,
    /// Smallest per-benchmark delta (%).
    pub min_pct: f64,
    /// Largest per-benchmark delta (%).
    pub max_pct: f64,
}

/// A `(bench, base IPC, cell IPC, delta %)` row.
type BenchDelta = (String, f64, f64, f64);

/// Orders benchmarks in the paper's Table 1 order; unknown names sort
/// after the suite, alphabetically.
fn bench_order(name: &str) -> (usize, String) {
    let idx = tracefill_workloads::names()
        .iter()
        .position(|n| *n == name)
        .unwrap_or(usize::MAX);
    (idx, name.to_string())
}

/// Mean measured-window IPC per (bench, opt, latency), over `Ok` rows.
fn cell_means(records: &[RunRecord]) -> BTreeMap<(String, String, u32), f64> {
    let mut sums: BTreeMap<(String, String, u32), (f64, u32)> = BTreeMap::new();
    for r in records.iter().filter(|r| r.status.is_ok()) {
        let e = sums
            .entry((r.bench.clone(), r.opt_label.clone(), r.fill_latency))
            .or_insert((0.0, 0));
        e.0 += r.ipc;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(k, (sum, n))| (k, sum / f64::from(n)))
        .collect()
}

/// Computes every non-baseline cell's per-benchmark deltas. Cells are
/// sorted by (opt label, latency); benchmarks within a cell are in suite
/// order. Benchmarks without a usable baseline (missing or zero-IPC
/// `none` run at the same latency) are omitted from that cell.
#[must_use]
pub fn aggregates(records: &[RunRecord]) -> Vec<CellDelta> {
    let means = cell_means(records);
    let mut cells: BTreeMap<(String, u32), Vec<BenchDelta>> = BTreeMap::new();
    for ((bench, opt, lat), &ipc) in &means {
        if opt == "none" {
            continue;
        }
        let Some(&base) = means.get(&(bench.clone(), "none".to_string(), *lat)) else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        cells.entry((opt.clone(), *lat)).or_default().push((
            bench.clone(),
            base,
            ipc,
            (ipc / base - 1.0) * 100.0,
        ));
    }
    let mut out = Vec::new();
    for ((opt_label, fill_latency), mut per_bench) in cells {
        per_bench.sort_by_key(|(b, _, _, _)| bench_order(b));
        let n = per_bench.len() as f64;
        let arith = per_bench.iter().map(|r| r.3).sum::<f64>() / n;
        let geo = (per_bench
            .iter()
            .map(|r| (r.3 / 100.0 + 1.0).ln())
            .sum::<f64>()
            / n)
            .exp();
        let min = per_bench.iter().map(|r| r.3).fold(f64::INFINITY, f64::min);
        let max = per_bench
            .iter()
            .map(|r| r.3)
            .fold(f64::NEG_INFINITY, f64::max);
        out.push(CellDelta {
            opt_label,
            fill_latency,
            per_bench,
            arith_mean_pct: arith,
            geo_mean_pct: (geo - 1.0) * 100.0,
            min_pct: min,
            max_pct: max,
        });
    }
    out
}

/// The Figure 8-shaped table: per-benchmark IPC delta per cell, with
/// arithmetic/geometric means and min/max rows.
#[must_use]
pub fn fig8_table(records: &[RunRecord]) -> String {
    let cells = aggregates(records);
    if cells.is_empty() {
        return "no aggregatable runs (need `none` baselines plus at least one opt cell)\n"
            .to_string();
    }
    // Union of benchmarks across cells, suite order.
    let mut benches: Vec<String> = cells
        .iter()
        .flat_map(|c| c.per_bench.iter().map(|r| r.0.clone()))
        .collect();
    benches.sort_by_key(|b| bench_order(b));
    benches.dedup();

    let mut s = String::new();
    let _ = write!(s, "{:8} {:>9}", "bench", "base IPC");
    for c in &cells {
        let _ = write!(
            s,
            " {:>14}",
            format!("{}@lat{}", c.opt_label, c.fill_latency)
        );
    }
    s.push('\n');
    fn row<'a>(c: &'a CellDelta, bench: &str) -> Option<&'a BenchDelta> {
        c.per_bench.iter().find(|r| r.0 == bench)
    }
    let dash = || "-".to_string();
    for bench in &benches {
        let base = cells.iter().find_map(|c| row(c, bench));
        let base = base.map_or_else(dash, |r| format!("{:.3}", r.1));
        let _ = write!(s, "{bench:8} {base:>9}");
        for c in &cells {
            let delta = row(c, bench).map_or_else(dash, |r| format!("{:+.1}%", r.3));
            let _ = write!(s, " {delta:>14}");
        }
        s.push('\n');
    }
    for (label, f) in [
        ("mean", (|c| c.arith_mean_pct) as fn(&CellDelta) -> f64),
        ("geomean", |c| c.geo_mean_pct),
        ("min", |c| c.min_pct),
        ("max", |c| c.max_pct),
    ] {
        let _ = write!(s, "{label:8} {:>9}", "");
        for c in &cells {
            let _ = write!(s, " {:>14}", format!("{:+.1}%", f(c)));
        }
        s.push('\n');
    }
    s
}

/// The CPI-stack table: one column per `(opt set, fill latency)` cell,
/// merged over the measured windows of that cell's `Ok` rows. Rows are the
/// `base` component (useful work), the eight stall components, their sum
/// (the cell's CPI), and the IPC reconstructed from `base` — which equals
/// `window_retired / window_cycles` exactly, because merged stacks add
/// slot counts, never ratios.
#[must_use]
pub fn cpi_table(records: &[RunRecord]) -> String {
    let mut cells: BTreeMap<(String, u32), tracefill_sim::CpiStack> = BTreeMap::new();
    for r in records
        .iter()
        .filter(|r| r.status.is_ok() && r.cpi.cycles > 0)
    {
        cells
            .entry((r.opt_label.clone(), r.fill_latency))
            .or_default()
            .merge(&r.cpi);
    }
    if cells.is_empty() {
        return "no rows carry a CPI stack (rows predate CPI recording)\n".to_string();
    }
    let mut s = String::new();
    let _ = write!(s, "{:16}", "component");
    for (opt, lat) in cells.keys() {
        let _ = write!(s, " {:>14}", format!("{opt}@lat{lat}"));
    }
    s.push('\n');
    let _ = write!(s, "{:16}", "base");
    for c in cells.values() {
        let _ = write!(s, " {:>14.4}", c.cpi_of(c.base));
    }
    s.push('\n');
    let names: Vec<&str> = tracefill_sim::cpi::STALL_COMPONENTS.to_vec();
    for (i, name) in names.iter().enumerate() {
        let _ = write!(s, "{name:16}");
        for c in cells.values() {
            let _ = write!(s, " {:>14.4}", c.cpi_of(c.stall_slots()[i].1));
        }
        s.push('\n');
    }
    let _ = write!(s, "{:16}", "total CPI");
    for c in cells.values() {
        let _ = write!(s, " {:>14.4}", c.cpi_of(c.total_slots()));
    }
    s.push('\n');
    let _ = write!(s, "{:16}", "IPC");
    for c in cells.values() {
        let _ = write!(s, " {:>14.4}", c.ipc_from_base());
    }
    s.push('\n');
    s
}

/// The Table 2-shaped table: % of retired instructions each transformation
/// touched, per benchmark, next to the paper's numbers. Uses the `all`
/// cell at the lowest recorded latency. Counts come from the metrics
/// registry (`retire.*`, the single source of truth shared with the fill
/// unit's accept counters); rows recorded before the registry existed fall
/// back to the `Stats.retired_*` fields.
#[must_use]
pub fn table2_table(records: &[RunRecord]) -> String {
    let mut rows: BTreeMap<(usize, String), (f64, f64, f64, u32)> = BTreeMap::new();
    let min_lat = records
        .iter()
        .filter(|r| r.status.is_ok() && r.opt_label == "all")
        .map(|r| r.fill_latency)
        .min();
    let Some(min_lat) = min_lat else {
        return "no `all` runs to measure transformation coverage from\n".to_string();
    };
    for r in records
        .iter()
        .filter(|r| r.status.is_ok() && r.opt_label == "all" && r.fill_latency == min_lat)
    {
        // Registry first (shared with the fill unit's accept counters);
        // fall back to Stats for rows that predate the registry.
        let (ret, moves, reassoc, scadd) = if r.metrics.counter("retire.total") > 0 {
            (
                r.metrics.counter("retire.total"),
                r.metrics.counter("retire.moves"),
                r.metrics.counter("retire.reassoc"),
                r.metrics.counter("retire.scadd"),
            )
        } else {
            (
                r.stats.retired,
                r.stats.retired_moves,
                r.stats.retired_reassoc,
                r.stats.retired_scadd,
            )
        };
        let ret = ret.max(1) as f64;
        let e = rows
            .entry(bench_order(&r.bench))
            .or_insert((0.0, 0.0, 0.0, 0));
        e.0 += moves as f64 / ret * 100.0;
        e.1 += reassoc as f64 / ret * 100.0;
        e.2 += scadd as f64 / ret * 100.0;
        e.3 += 1;
    }
    let mut s = String::new();
    let _ = writeln!(s, "{:8} | {:>30} | {:>30}", "", "ours", "paper");
    let _ = writeln!(
        s,
        "{:8} | {:>6} {:>8} {:>6} {:>6} | {:>6} {:>8} {:>6} {:>6}",
        "bench", "moves", "reassoc", "scadd", "total", "moves", "reassoc", "scadd", "total"
    );
    let mut total_sum = 0.0;
    let mut n = 0.0;
    for ((_, bench), &(ms, res, scs, k)) in &rows {
        let k = f64::from(k.max(1));
        let (m, re, sc) = (ms / k, res / k, scs / k);
        // The paper's columns, or dashes for a benchmark it does not list.
        let paper = match tracefill_workloads::by_name(bench).map(|b| b.table2) {
            Some(t) => format!(
                "{:6.1} {:8.1} {:6.1} {:6.1}",
                t.moves, t.reassoc, t.scadd, t.total
            ),
            None => format!("{:>6} {:>8} {:>6} {:>6}", "-", "-", "-", "-"),
        };
        let _ = writeln!(
            s,
            "{bench:8} | {m:6.1} {re:8.1} {sc:6.1} {:6.1} | {paper}",
            m + re + sc
        );
        total_sum += m + re + sc;
        n += 1.0;
    }
    if n > 0.0 {
        let _ = writeln!(s, "mean total: ours {:.1}%  paper 13.3%", total_sum / n);
    }
    s
}

/// The segment-ledger table: per-`(bench, opt, latency)` roll-up of the
/// `ledger.*` metrics that ledgered runs carry in their registry, followed
/// by a per-pass estimated-cycles-saved attribution (the ROI proxy:
/// transforms × hits). Counters add and histograms merge across the seeds
/// of a cell, so quantiles are over the union of segment lives, not means
/// of per-seed quantiles. Rows without ledger metrics (ledger off, or
/// recorded before the ledger existed) are skipped; if none carry them the
/// table says so instead of rendering empty columns.
#[must_use]
pub fn ledger_table(records: &[RunRecord]) -> String {
    const PASSES: [&str; 5] = ["moves", "cse", "reassoc", "scadd", "placement"];
    let mut cells: BTreeMap<(usize, String, String, u32), tracefill_util::Registry> =
        BTreeMap::new();
    for r in records.iter().filter(|r| r.status.is_ok()) {
        if r.metrics.counter("ledger.segments") == 0 {
            continue;
        }
        let (ord, bench) = bench_order(&r.bench);
        cells
            .entry((ord, bench, r.opt_label.clone(), r.fill_latency))
            .or_default()
            .merge(&r.metrics);
    }
    if cells.is_empty() {
        return "no rows carry ledger metrics (enable the segment ledger on the campaign)\n"
            .to_string();
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:8} {:>12} {:>7} {:>6} {:>9} {:>7} {:>7} {:>9} {:>9} {:>12}",
        "bench",
        "cell",
        "segs",
        "doa",
        "hits",
        "reuse50",
        "reuse90",
        "resid50",
        "evict c/r",
        "uops retired"
    );
    for ((_, bench, opt, lat), m) in &cells {
        let reuse = m.histogram("ledger.reuse");
        let resid = m.histogram("ledger.residency");
        let _ = writeln!(
            s,
            "{:8} {:>12} {:>7} {:>6} {:>9} {:>7.1} {:>7.1} {:>9.0} {:>9} {:>12}",
            bench,
            format!("{opt}@lat{lat}"),
            m.counter("ledger.segments"),
            m.counter("ledger.doa"),
            m.counter("ledger.hits"),
            reuse.map_or(0.0, tracefill_util::Histogram::p50),
            reuse.map_or(0.0, tracefill_util::Histogram::p90),
            resid.map_or(0.0, tracefill_util::Histogram::p50),
            format!(
                "{}/{}",
                m.counter("ledger.evict.conflict"),
                m.counter("ledger.evict.refresh")
            ),
            m.counter("ledger.uops_retired"),
        );
    }
    let _ = writeln!(
        s,
        "\nper-pass est cycles saved (ROI proxy: transforms x segment hits):"
    );
    let _ = write!(s, "{:8} {:>12}", "bench", "cell");
    for p in PASSES {
        let _ = write!(s, " {p:>12}");
    }
    let _ = writeln!(s, " {:>12}", "total");
    for ((_, bench, opt, lat), m) in &cells {
        let _ = write!(s, "{:8} {:>12}", bench, format!("{opt}@lat{lat}"));
        let mut total = 0u64;
        for p in PASSES {
            let v = m.counter(&format!("ledger.saved.{p}"));
            total += v;
            let _ = write!(s, " {v:>12}");
        }
        let _ = writeln!(s, " {total:>12}");
    }
    s
}

/// The self-repair availability table: per-`(bench, opt, latency)`
/// roll-up of the rows that carry a repair summary (runs executed with
/// `--self-repair`), counted by [`Outcome`] and folded into the same
/// columns as `tracefill heal`. `recovered` counts runs that completed
/// after at least one contained failure, `hung` runs a watchdog stopped,
/// `fatal` armed runs that still died, and `avail%` is completed over
/// total — the headline number the repair ladder exists to keep at 100.
/// Plain rows (no summary) are skipped; if none carry one the table says
/// so.
#[must_use]
pub fn availability_table(records: &[RunRecord]) -> String {
    let mut cells: BTreeMap<(usize, String, String, u32), Tally> = BTreeMap::new();
    for r in records {
        let (Some(outcome), Some(rep)) = (Outcome::of_record(r), r.repair) else {
            continue;
        };
        let (ord, bench) = bench_order(&r.bench);
        let cell = cells
            .entry((ord, bench, r.opt_label.clone(), r.fill_latency))
            .or_default();
        cell.add(outcome);
        cell.repairs += rep.repairs;
        cell.quarantines += rep.quarantined;
        cell.disables += rep.disabled;
    }
    if cells.is_empty() {
        return "no rows carry repair summaries (run the campaign with --self-repair)\n"
            .to_string();
    }
    let header = Tally::default().table_row(true);
    let mut s = format!("{:8} {:>12} {:>6}{header}\n", "bench", "cell", "runs");
    for ((_, bench, opt, lat), c) in &cells {
        let cell = format!("{opt}@lat{lat}");
        let _ = writeln!(
            s,
            "{bench:8} {cell:>12} {:>6}{}",
            c.runs(),
            c.table_row(false)
        );
    }
    s
}

/// A status roll-up: how many rows ended in each state, plus totals.
#[must_use]
pub fn summary(records: &[RunRecord]) -> String {
    let mut by_status: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut cycles = 0u64;
    let mut retired = 0u64;
    let mut quarantined: BTreeMap<(String, String), usize> = BTreeMap::new();
    for r in records {
        let tag = r.status.tag();
        if let crate::runner::RunStatus::Quarantined(_) = r.status {
            *quarantined
                .entry((r.bench.clone(), r.opt_label.clone()))
                .or_default() += 1;
        }
        *by_status.entry(tag).or_default() += 1;
        cycles += r.stats.cycles;
        retired += r.stats.retired;
    }
    let mut s = format!(
        "{} rows, {} cycles simulated, {} instructions retired\n",
        records.len(),
        cycles,
        retired
    );
    for (tag, count) in by_status {
        let _ = writeln!(s, "  {tag:12} {count}");
    }
    if !quarantined.is_empty() {
        let _ = writeln!(s, "quarantined configurations (skipped without executing):");
        for ((bench, opts), count) in quarantined {
            let _ = writeln!(s, "  {bench}|{opts}  ({count} run(s) skipped)");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunRecord, RunStatus};
    use tracefill_sim::Stats;

    fn row(bench: &str, opt: &str, lat: u32, ipc: f64) -> RunRecord {
        RunRecord {
            run_id: format!("{bench}-{opt}-{lat}"),
            campaign: "t".to_string(),
            bench: bench.to_string(),
            opt_label: opt.to_string(),
            fill_latency: lat,
            seed: 0,
            policy: "lru".to_string(),
            controller: "off".to_string(),
            status: RunStatus::Ok,
            ipc,
            window_cycles: 1000,
            window_retired: (ipc * 1000.0) as u64,
            stats: Stats {
                cycles: 1000,
                retired: (ipc * 1000.0) as u64,
                ..Stats::default()
            },
            cpi: tracefill_sim::CpiStack::default(),
            metrics: tracefill_util::Registry::new(),
            repair: None,
            wall_ms: 1,
        }
    }

    #[test]
    fn deltas_are_computed_against_same_latency_baseline() {
        let records = vec![
            row("m88k", "none", 1, 2.0),
            row("m88k", "all", 1, 2.5),
            row("m88k", "none", 5, 1.9),
            row("m88k", "all", 5, 2.28),
        ];
        let cells = aggregates(&records);
        assert_eq!(cells.len(), 2);
        let lat1 = cells.iter().find(|c| c.fill_latency == 1).unwrap();
        assert!((lat1.per_bench[0].3 - 25.0).abs() < 1e-9);
        let lat5 = cells.iter().find(|c| c.fill_latency == 5).unwrap();
        assert!((lat5.per_bench[0].3 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_ignores_order_and_failed_rows() {
        let mut a = vec![
            row("m88k", "none", 1, 2.0),
            row("m88k", "all", 1, 2.5),
            row("comp", "none", 1, 1.0),
            row("comp", "all", 1, 1.1),
        ];
        let mut failed = row("comp", "all", 1, 9.9);
        failed.status = RunStatus::Panic("boom".to_string());
        a.push(failed);
        let mut b = a.clone();
        b.reverse();
        assert_eq!(aggregates(&a), aggregates(&b));
        let cell = &aggregates(&a)[0];
        assert!((cell.arith_mean_pct - 17.5).abs() < 1e-9);
        assert!((cell.min_pct - 10.0).abs() < 1e-9);
        assert!((cell.max_pct - 25.0).abs() < 1e-9);
        // geomean of 1.25 and 1.10: sqrt(1.375) - 1 = 17.26%
        assert!((cell.geo_mean_pct - (1.375f64.sqrt() - 1.0) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn seeds_average_within_a_cell() {
        let mut r1 = row("m88k", "all", 1, 2.0);
        r1.seed = 0;
        let mut r2 = row("m88k", "all", 1, 3.0);
        r2.seed = 1;
        let records = vec![row("m88k", "none", 1, 2.0), r1, r2];
        let cells = aggregates(&records);
        assert!((cells[0].per_bench[0].2 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn tables_render_without_panicking() {
        let records = vec![
            row("m88k", "none", 1, 2.0),
            row("m88k", "all", 1, 2.5),
            row("ch", "none", 1, 1.5),
            row("ch", "all", 1, 1.8),
        ];
        let fig8 = fig8_table(&records);
        assert!(fig8.contains("all@lat1"), "{fig8}");
        assert!(fig8.contains("m88k"), "{fig8}");
        assert!(fig8.contains("geomean"), "{fig8}");
        let t2 = table2_table(&records);
        assert!(t2.contains("m88k"), "{t2}");
        let sum = summary(&records);
        assert!(sum.contains("ok"), "{sum}");
    }

    #[test]
    fn empty_input_degrades_gracefully() {
        assert!(fig8_table(&[]).contains("no aggregatable"));
        assert!(table2_table(&[]).contains("no `all` runs"));
        assert!(cpi_table(&[]).contains("no rows carry a CPI stack"));
        assert!(ledger_table(&[]).contains("no rows carry ledger metrics"));
    }

    /// Builds a ledgered row with `segs` segments, `hits` total hits, and
    /// a given moves-pass savings counter.
    fn row_with_ledger(bench: &str, seed: u64, segs: u64, hits: u64, moves: u64) -> RunRecord {
        let mut r = row(bench, "all", 1, 2.0);
        r.run_id = format!("{bench}-ledger-{seed}");
        r.seed = seed;
        r.metrics.add("ledger.segments", segs);
        r.metrics.add("ledger.doa", 1);
        r.metrics.add("ledger.hits", hits);
        r.metrics.add("ledger.evict.conflict", 3);
        r.metrics.add("ledger.evict.refresh", 2);
        r.metrics.add("ledger.uops_retired", hits * 10);
        r.metrics.add("ledger.saved.moves", moves);
        r.metrics.add("ledger.saved.cse", 7);
        let bounds = [1u64, 2, 4, 8, 16, 32, 64, 128];
        for h in 0..segs {
            r.metrics.observe("ledger.reuse", &bounds, h);
            r.metrics.observe("ledger.residency", &bounds, h * 4);
        }
        r
    }

    #[test]
    fn ledger_table_merges_seeds_and_attributes_passes() {
        let records = vec![
            row("m88k", "all", 1, 2.0), // no ledger metrics: skipped
            row_with_ledger("m88k", 0, 10, 40, 100),
            row_with_ledger("m88k", 1, 10, 60, 50),
        ];
        let t = ledger_table(&records);
        // Counters add across seeds within the cell.
        assert!(t.contains(" 20 "), "segments should sum to 20:\n{t}");
        assert!(t.contains(" 100 "), "hits should sum to 100:\n{t}");
        assert!(t.contains("6/4"), "evictions should sum per cause:\n{t}");
        // Per-pass savings: moves 150, cse 7+7, total 164.
        assert!(t.contains("150"), "{t}");
        assert!(t.contains("164"), "{t}");
        assert!(t.contains("per-pass est cycles saved"), "{t}");
        for p in ["moves", "cse", "reassoc", "scadd", "placement"] {
            assert!(t.contains(p), "missing pass column {p}:\n{t}");
        }
    }

    #[test]
    fn ledger_table_ignores_failed_rows_and_row_order() {
        let mut failed = row_with_ledger("m88k", 2, 999, 999, 999);
        failed.status = RunStatus::Panic("boom".to_string());
        let a = vec![
            row_with_ledger("m88k", 0, 5, 20, 10),
            row_with_ledger("comp", 0, 6, 30, 12),
            failed.clone(),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(ledger_table(&a), ledger_table(&b));
        assert!(!ledger_table(&a).contains("999"));
    }

    fn row_with_repair(bench: &str, seed: u64, repairs: u64, quarantined: u64) -> RunRecord {
        let mut r = row(bench, "all", 1, 2.0);
        r.run_id = format!("{bench}-repair-{seed}");
        r.seed = seed;
        r.repair = Some(crate::runner::RepairSummary {
            repairs,
            quarantined,
            disabled: 0,
        });
        r
    }

    #[test]
    fn availability_table_counts_recovered_and_fatal_rows() {
        let mut fatal = row_with_repair("m88k", 2, 3, 1);
        fatal.status = RunStatus::SimError("lockstep divergence".to_string());
        let records = vec![
            row("m88k", "all", 1, 2.0), // plain row: skipped
            row_with_repair("m88k", 0, 0, 0),
            row_with_repair("m88k", 1, 4, 2),
            fatal.clone(),
        ];
        let t = availability_table(&records);
        // 3 armed rows: 1 clean, 1 recovered, 1 fatal; repairs sum to 7.
        assert!(t.contains(" 3 "), "3 armed runs:\n{t}");
        assert!(t.contains(" 7 "), "repairs sum to 7:\n{t}");
        assert!(t.contains("66.7"), "availability 2/3:\n{t}");
        // Ordering-independent (BTreeMap cells).
        let mut rev = records.clone();
        rev.reverse();
        assert_eq!(t, availability_table(&rev));
    }

    #[test]
    fn availability_table_counts_watchdog_rows_as_hung_not_fatal() {
        let mut cycle_limit = row_with_repair("m88k", 0, 0, 0);
        cycle_limit.status = RunStatus::CycleLimit;
        let mut timeout = row_with_repair("m88k", 1, 1, 0);
        timeout.status = RunStatus::Timeout;
        let mut fatal = row_with_repair("m88k", 2, 0, 0);
        fatal.status = RunStatus::SimError("lockstep divergence".to_string());
        let t = availability_table(&[
            cycle_limit,
            timeout,
            fatal,
            row_with_repair("m88k", 3, 0, 0),
        ]);
        let header: Vec<&str> = t.lines().next().unwrap().split_whitespace().collect();
        let row: Vec<&str> = t.lines().nth(1).unwrap().split_whitespace().collect();
        let col = |name: &str| row[header.iter().position(|h| *h == name).unwrap()];
        assert_eq!(col("runs"), "4", "{t}");
        assert_eq!(col("clean"), "1", "{t}");
        assert_eq!(col("hung"), "2", "{t}");
        assert_eq!(col("fatal"), "1", "{t}");
        assert_eq!(col("avail%"), "25.0", "{t}");
    }

    #[test]
    fn availability_table_without_armed_rows_says_so() {
        let t = availability_table(&[row("m88k", "all", 1, 2.0)]);
        assert!(t.contains("no rows carry repair summaries"), "{t}");
    }

    /// Builds a row whose windowed CPI stack is slot-exact for 16-wide
    /// commit: `base == retired`, remaining slots split across stalls.
    fn row_with_cpi(opt: &str, cycles: u64, retired: u64) -> RunRecord {
        let mut r = row("m88k", opt, 1, retired as f64 / cycles as f64);
        r.run_id = format!("m88k-{opt}-{cycles}-{retired}");
        r.window_cycles = cycles;
        r.window_retired = retired;
        let slots = cycles * 16 - retired;
        r.cpi = tracefill_sim::CpiStack {
            width: 16,
            cycles,
            base: retired,
            tc_miss: slots / 2,
            window_full: slots - slots / 2,
            ..tracefill_sim::CpiStack::default()
        };
        assert!(r.cpi.check_complete());
        r
    }

    #[test]
    fn cpi_table_base_reproduces_window_ipc() {
        // Two seeds per cell with different window lengths: the merged
        // stack must reproduce sum(retired)/sum(cycles), not a mean of
        // per-row IPCs.
        let records = vec![
            row_with_cpi("none", 1000, 2000),
            row_with_cpi("none", 3000, 7500),
            row_with_cpi("all", 1000, 2600),
            row_with_cpi("all", 5000, 14000),
        ];
        let mut merged = tracefill_sim::CpiStack::default();
        merged.merge(&records[2].cpi);
        merged.merge(&records[3].cpi);
        let want_ipc = (2600u64 + 14000) as f64 / (1000u64 + 5000) as f64;
        assert!(
            (merged.ipc_from_base() - want_ipc).abs() < 1e-9,
            "{} vs {want_ipc}",
            merged.ipc_from_base()
        );
        // Component CPIs sum to the cell CPI.
        let total: f64 = merged.cpi_of(merged.base)
            + merged
                .stall_slots()
                .iter()
                .map(|&(_, v)| merged.cpi_of(v))
                .sum::<f64>();
        assert!((total - 1.0 / want_ipc).abs() < 1e-9);
        let table = cpi_table(&records);
        for needle in [
            "component",
            "all@lat1",
            "none@lat1",
            "base",
            "tc_miss",
            "total CPI",
            "IPC",
        ] {
            assert!(table.contains(needle), "missing {needle} in\n{table}");
        }
        let ipc_line = table.lines().last().unwrap();
        assert!(
            ipc_line.contains(&format!("{want_ipc:.4}")),
            "IPC row should show {want_ipc:.4}: {ipc_line}"
        );
    }

    #[test]
    fn cpi_table_skips_rows_without_stacks() {
        // A legacy row (no stack) must not poison the cell.
        let records = vec![row("m88k", "all", 1, 2.5)];
        assert!(cpi_table(&records).contains("no rows carry a CPI stack"));
    }

    #[test]
    fn table2_prefers_registry_over_stats() {
        // Registry and stats disagree; the registry must win.
        let mut r = row("m88k", "all", 1, 2.0);
        r.stats.retired = 1000;
        r.stats.retired_moves = 999;
        r.metrics.add("retire.total", 1000);
        r.metrics.add("retire.moves", 120);
        let t2 = table2_table(&[r]);
        assert!(t2.contains("12.0"), "{t2}");
        assert!(!t2.contains("99.9"), "{t2}");
    }

    #[test]
    fn table2_falls_back_to_stats_for_legacy_rows() {
        let mut r = row("m88k", "all", 1, 2.0);
        r.stats.retired = 1000;
        r.stats.retired_moves = 130;
        let t2 = table2_table(&[r]);
        assert!(t2.contains("13.0"), "{t2}");
    }
}
