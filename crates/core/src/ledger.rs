//! Segment lifetime ledger: per-segment, per-pass ROI attribution.
//!
//! The fill unit invests work in every segment it builds — pass
//! latency, verification, cache storage — and the aggregate counters of
//! the metrics registry cannot say *which* segments repaid it. The
//! ledger is a deterministic journal keyed by
//! [`Provenance::seg_id`](crate::segment::Provenance::seg_id), the
//! identity the trace cache stores each line under, that
//! follows each segment from fill-unit construction (build cycle, pass
//! attribution) through cache residency (hits, eviction cause and age)
//! to the fetch/retire path (uops fetched, retired, and squashed while
//! speculative), and folds the journal into a per-pass ROI report.
//!
//! Collection is event-driven and purely observational: the simulator's
//! observation stream calls [`Ledger::on_insert`] / [`Ledger::on_fetch`] /
//! [`Ledger::on_retire`] / [`Ledger::on_squash`] /
//! [`Ledger::on_invalidate`] only when the ledger is enabled, and none of
//! those calls feed back into timing — a ledger-on run retires the same
//! instructions in the same cycles as a ledger-off run.
//!
//! # Storage
//!
//! The fill unit hands out dense, increasing seg ids, and every fetch,
//! retire and squash looks one up, so the records live in a `Vec`
//! indexed by seg id: each event is one bounds check and one index.
//! Holes (ids of segments the fill unit dropped, or not yet inserted
//! because a stalled line comes out of the fill pipe late) are empty
//! slots, and id 0 is slot 0. An id more than [`Ledger::MAX_GAP`] past
//! the end of the `Vec` goes to an ordered side map instead, so a
//! far-away id costs one map entry, not memory in proportion to its
//! value; the side map's records move into the `Vec` once it grows over
//! them. Records, reports and exports come out in seg-id order either
//! way.
//!
//! # The ROI proxy
//!
//! The per-pass "estimated cycles saved" is a deterministic first-order
//! proxy, not a measured counterfactual: each instruction a pass
//! transformed is counted as one issue-slot/dependence-height unit saved
//! *per cache hit* that re-delivered the optimized line (reuse is what
//! amortizes fill-unit work — see the reuse-attribution argument in
//! "Decanting the Contribution of Instruction Types and Loop Structures
//! in the Reuse of Traces"). So a segment with 3 marked moves and 40
//! hits credits the moves pass with 120 units. Placement counts one unit
//! per hit for a permuted segment.

use crate::opt::OptCounts;
use crate::segment::Segment;
use crate::tcache::{Displaced, InsertOutcome};
use std::collections::BTreeMap;
use tracefill_util::{Histogram, Json, Registry};

/// Why a cached line's residency ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictCause {
    /// Displaced by a different line from a full set.
    Conflict,
    /// Replaced in place by a rebuilt same-address, same-path segment.
    Refresh,
    /// Invalidated by the self-repair path after a divergence implicated
    /// the line.
    Repair,
}

impl EvictCause {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EvictCause::Conflict => "conflict",
            EvictCause::Refresh => "refresh",
            EvictCause::Repair => "repair",
        }
    }
}

/// One segment's lifetime record, from cache insertion to eviction (or
/// to end-of-run, for lines still resident).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegRecord {
    /// The fill unit's monotonic segment id.
    pub seg_id: u64,
    /// Fetch address the segment answers to.
    pub start_pc: u32,
    /// Segment length in slots.
    pub len: u8,
    /// Why the fill unit ended the segment (stable name).
    pub end: &'static str,
    /// Per-pass transformation counts from the fill unit.
    pub opt_counts: OptCounts,
    /// The segment ends in a backward (loop) branch.
    pub loop_seg: bool,
    /// At least one slot was rewritten by an optimization pass.
    pub transformed: bool,
    /// Cycle the fill unit finalized the segment.
    pub build_cycle: u64,
    /// Cycle the segment entered the trace cache.
    pub insert_cycle: u64,
    /// Trace-cache lookup hits served by this line.
    pub hits: u64,
    /// Uops delivered to the pipeline from this line's hits.
    pub uops_fetched: u64,
    /// Uops from this line that retired.
    pub uops_retired: u64,
    /// Uops from this line squashed by mispredict recovery.
    pub uops_squashed: u64,
    /// `(cycle, cause)` when the line left the cache; `None` while it is
    /// still resident.
    pub evicted: Option<(u64, EvictCause)>,
}

impl SegRecord {
    /// Cycles the line spent (or has spent) in the cache; still-resident
    /// lines are measured up to `now`.
    pub fn residency(&self, now: u64) -> u64 {
        let end = self.evicted.map_or(now, |(c, _)| c);
        end.saturating_sub(self.insert_cycle)
    }

    /// Dead on arrival: built, cached, and displaced without serving a
    /// single hit.
    pub fn is_doa(&self) -> bool {
        self.evicted.is_some() && self.hits == 0
    }

    /// The ROI proxy for one pass: transformed instructions × hits (see
    /// the module docs for the model).
    fn saved(count: u64, hits: u64) -> u64 {
        count * hits
    }

    /// Estimated cycle units saved by all passes over this segment's
    /// lifetime (the ROI proxy summed across passes).
    pub fn est_cycles_saved(&self) -> u64 {
        Self::saved(self.opt_counts.transformed_instrs(), self.hits)
            + Self::saved(self.opt_counts.placed_segments, self.hits)
    }
}

/// One segment's life rendered as a span, for the Chrome-trace exporter:
/// the span runs from cache insertion to eviction (or to end-of-run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegSpan {
    /// The fill unit's segment id.
    pub seg_id: u64,
    /// Fetch address.
    pub start_pc: u32,
    /// Span start (cache insert cycle).
    pub insert_cycle: u64,
    /// Span end (eviction cycle, or `now` for resident lines).
    pub end_cycle: u64,
    /// Hits served during the span.
    pub hits: u64,
    /// Uops retired from the line.
    pub uops_retired: u64,
    /// Names of the passes that transformed the segment.
    pub passes: Vec<&'static str>,
    /// Eviction cause name, or `"resident"`.
    pub fate: &'static str,
}

/// Bucket bounds for the reuse (hits per segment) distribution.
pub const REUSE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384];
/// Bucket bounds for the residency-lifetime (cycles) distribution.
pub const RESIDENCY_BOUNDS: &[u64] = &[64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304];
/// Bucket bounds for the per-segment estimated-cycles-saved distribution.
pub const SAVED_BOUNDS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
];

/// The pass names the ROI report attributes, in report order.
pub const LEDGER_PASSES: [&str; 5] = ["moves", "cse", "reassoc", "scadd", "placement"];

fn pass_count(c: &OptCounts, pass: &str) -> u64 {
    match pass {
        "moves" => c.moves,
        "cse" => c.cse,
        "reassoc" => c.reassoc,
        "scadd" => c.scadd,
        "placement" => c.placed_segments,
        _ => 0,
    }
}

/// The segment lifetime ledger.
///
/// Construct with [`Ledger::new`]; a disabled ledger ignores every event
/// and reports nothing.
#[derive(Debug)]
pub struct Ledger {
    enabled: bool,
    /// `dense[id]` is seg id `id`'s slot, for every id below
    /// `dense.len()`; a hole is an id never inserted.
    dense: Vec<Option<SegRecord>>,
    /// Records of ids at or past `dense.len()` that lay more than
    /// [`Ledger::MAX_GAP`] past its end when inserted, in id order.
    far: BTreeMap<u64, SegRecord>,
    /// Number of records in both parts.
    len: usize,
}

impl Ledger {
    /// How far past the end of the dense part an inserted id may lie and
    /// still grow it; a farther id goes to the ordered side map, so no
    /// id costs memory in proportion to its value. The fill unit hands
    /// out ids in increasing order, leaving short runs of holes for
    /// segments it dropped and inserting stall-released lines a little
    /// late, so its ids all land in the dense part.
    pub const MAX_GAP: usize = 64;

    /// Creates a ledger; `enabled = false` makes every event a no-op.
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            enabled,
            dense: Vec::new(),
            far: BTreeMap::new(),
            len: 0,
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of ledgered segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record for `seg_id`, if ledgered.
    pub fn get(&self, seg_id: u64) -> Option<&SegRecord> {
        match usize::try_from(seg_id) {
            Ok(i) if i < self.dense.len() => self.dense[i].as_ref(),
            _ => self.far.get(&seg_id),
        }
    }

    fn get_mut(&mut self, seg_id: u64) -> Option<&mut SegRecord> {
        match usize::try_from(seg_id) {
            Ok(i) if i < self.dense.len() => self.dense[i].as_mut(),
            _ => self.far.get_mut(&seg_id),
        }
    }

    /// All records in seg-id order.
    pub fn records(&self) -> impl Iterator<Item = &SegRecord> + Clone {
        self.dense.iter().flatten().chain(self.far.values())
    }

    /// Stores `rec` under its seg id, replacing any record there.
    fn put(&mut self, rec: SegRecord) {
        let end = self.dense.len();
        let slot = match usize::try_from(rec.seg_id) {
            Ok(i) if i < end => &mut self.dense[i],
            Ok(i) if i - end <= Self::MAX_GAP => {
                self.dense.resize_with(i + 1, || None);
                self.adopt_far();
                &mut self.dense[i]
            }
            _ => {
                self.len += self.far.insert(rec.seg_id, rec).is_none() as usize;
                return;
            }
        };
        self.len += slot.is_none() as usize;
        *slot = Some(rec);
    }

    /// Moves the side map's records that the grown dense part now
    /// covers into it.
    fn adopt_far(&mut self) {
        let end = self.dense.len() as u64;
        if self.far.first_key_value().is_none_or(|(&id, _)| id >= end) {
            return;
        }
        let beyond = self.far.split_off(&end);
        for (id, rec) in std::mem::replace(&mut self.far, beyond) {
            self.dense[id as usize] = Some(rec);
        }
    }

    /// Segment `seg` entered the trace cache at cycle `now`; `outcome`
    /// names the identity it was stored under, whose record this opens,
    /// and the line it displaced, whose record this closes.
    pub fn on_insert(&mut self, seg: &Segment, outcome: &InsertOutcome, now: u64) {
        if !self.enabled {
            return;
        }
        let cause = match &outcome.displaced {
            Displaced::Nothing => None,
            Displaced::Refreshed(prev) => Some((prev, EvictCause::Refresh)),
            Displaced::Evicted(prev) => Some((prev, EvictCause::Conflict)),
        };
        if let Some((prev, cause)) = cause {
            if let Some(rec) = self.get_mut(prev.provenance.seg_id) {
                rec.evicted = Some((now, cause));
            }
        }
        let p = outcome.provenance;
        self.put(SegRecord {
            seg_id: p.seg_id,
            start_pc: seg.start_pc,
            len: seg.slots.len() as u8,
            end: seg.end.name(),
            opt_counts: seg.opt_counts,
            loop_seg: seg.end == crate::segment::SegEnd::Loop,
            transformed: seg.slots.iter().any(|s| s.is_transformed()),
            build_cycle: p.build_cycle,
            insert_cycle: now,
            hits: 0,
            uops_fetched: 0,
            uops_retired: 0,
            uops_squashed: 0,
            evicted: None,
        });
    }

    /// A trace-cache hit delivered `uops` slots from segment `seg_id`.
    pub fn on_fetch(&mut self, seg_id: u64, uops: u64) {
        if !self.enabled {
            return;
        }
        if let Some(rec) = self.get_mut(seg_id) {
            rec.hits += 1;
            rec.uops_fetched += uops;
        }
    }

    /// One uop fetched from segment `seg_id` retired.
    pub fn on_retire(&mut self, seg_id: u64) {
        if !self.enabled {
            return;
        }
        if let Some(rec) = self.get_mut(seg_id) {
            rec.uops_retired += 1;
        }
    }

    /// Segment `seg_id` was invalidated out of the cache at cycle `now`
    /// by the self-repair path; closes its record with
    /// [`EvictCause::Repair`].
    pub fn on_invalidate(&mut self, seg_id: u64, now: u64) {
        if !self.enabled {
            return;
        }
        if let Some(rec) = self.get_mut(seg_id) {
            if rec.evicted.is_none() {
                rec.evicted = Some((now, EvictCause::Repair));
            }
        }
    }

    /// One uop fetched from segment `seg_id` was squashed by recovery.
    pub fn on_squash(&mut self, seg_id: u64) {
        if !self.enabled {
            return;
        }
        if let Some(rec) = self.get_mut(seg_id) {
            rec.uops_squashed += 1;
        }
    }

    /// Total retired uops attributed to ledgered segments (the
    /// conservation numerator against the machine's `retired_from_tc`).
    pub fn attributed_retired(&self) -> u64 {
        self.records().map(|r| r.uops_retired).sum()
    }

    /// Segment life spans for the Chrome-trace exporter, in seg-id
    /// order; still-resident lines are closed at `now`.
    pub fn spans(&self, now: u64) -> Vec<SegSpan> {
        self.records()
            .map(|r| SegSpan {
                seg_id: r.seg_id,
                start_pc: r.start_pc,
                insert_cycle: r.insert_cycle,
                end_cycle: r.evicted.map_or(now, |(c, _)| c),
                hits: r.hits,
                uops_retired: r.uops_retired,
                passes: r.opt_counts_passes(),
                fate: r.evicted.map_or("resident", |(_, c)| c.name()),
            })
            .collect()
    }

    /// Folds the journal into the per-pass ROI report at cycle `now`.
    ///
    /// Member order and formatting are fixed, so the same journal always
    /// dumps to identical bytes. `top` caps the most-reused-segments
    /// table (hits descending, then seg-id ascending).
    pub fn report(&self, now: u64, top: usize) -> Json {
        report(self.records(), now, top)
    }

    /// Exports the ledger summary into a metrics registry under
    /// `ledger.*` keys, so harness run records carry it without a schema
    /// change.
    pub fn export_metrics(&self, reg: &mut Registry, now: u64) {
        export_metrics(self.records(), reg, now);
    }
}

/// [`Ledger::report`] over `records`, given in seg-id order.
fn report<'a>(records: impl Iterator<Item = &'a SegRecord> + Clone, now: u64, top: usize) -> Json {
    let mut reuse = Histogram::new(REUSE_BOUNDS);
    let mut residency = Histogram::new(RESIDENCY_BOUNDS);
    let mut saved_per_seg = Histogram::new(SAVED_BOUNDS);
    let mut doa = 0u64;
    let mut resident = 0u64;
    let mut conflict = 0u64;
    let mut refresh = 0u64;
    let mut repair = 0u64;
    let (mut hits, mut fetched, mut retired, mut squashed) = (0u64, 0u64, 0u64, 0u64);
    for r in records.clone() {
        reuse.observe(r.hits);
        residency.observe(r.residency(now));
        saved_per_seg.observe(r.est_cycles_saved());
        doa += r.is_doa() as u64;
        match r.evicted {
            None => resident += 1,
            Some((_, EvictCause::Conflict)) => conflict += 1,
            Some((_, EvictCause::Refresh)) => refresh += 1,
            Some((_, EvictCause::Repair)) => repair += 1,
        }
        hits += r.hits;
        fetched += r.uops_fetched;
        retired += r.uops_retired;
        squashed += r.uops_squashed;
    }
    let mut per_pass = Json::object();
    for pass in LEDGER_PASSES {
        let mut segments = 0u64;
        let mut transforms = 0u64;
        let mut saved = 0u64;
        let mut saved_hist = Histogram::new(SAVED_BOUNDS);
        for r in records.clone() {
            let n = pass_count(&r.opt_counts, pass);
            if n == 0 {
                continue;
            }
            segments += 1;
            transforms += n;
            let s = n * r.hits;
            saved += s;
            saved_hist.observe(s);
        }
        per_pass = per_pass.with(
            pass,
            Json::object()
                .with("segments", segments)
                .with("transforms", transforms)
                .with("est_cycles_saved", saved)
                .with("saved_per_segment", saved_hist.to_json()),
        );
    }
    let mut by_reuse: Vec<&SegRecord> = records.collect();
    by_reuse.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.seg_id.cmp(&b.seg_id)));
    let top_rows: Vec<Json> = by_reuse
        .iter()
        .take(top)
        .map(|r| {
            Json::object()
                .with("seg_id", r.seg_id)
                .with("start_pc", u64::from(r.start_pc))
                .with("len", u64::from(r.len))
                .with("end", r.end)
                .with("hits", r.hits)
                .with("uops_retired", r.uops_retired)
                .with("residency", r.residency(now))
                .with(
                    "passes",
                    Json::Arr(r.opt_counts_passes().into_iter().map(Json::from).collect()),
                )
                .with("est_cycles_saved", r.est_cycles_saved())
        })
        .collect();
    Json::object()
        .with("segments", by_reuse.len())
        .with("resident", resident)
        .with(
            "evicted",
            Json::object()
                .with("conflict", conflict)
                .with("refresh", refresh)
                .with("repair", repair),
        )
        .with("doa", doa)
        .with("hits", hits)
        .with("uops_fetched", fetched)
        .with("uops_retired", retired)
        .with("uops_squashed", squashed)
        .with("reuse", reuse.to_json())
        .with("residency", residency.to_json())
        .with("saved_per_segment", saved_per_seg.to_json())
        .with("per_pass", per_pass)
        .with("top", Json::Arr(top_rows))
}

/// [`Ledger::export_metrics`] over `records`, given in seg-id order.
fn export_metrics<'a>(
    records: impl Iterator<Item = &'a SegRecord> + Clone,
    reg: &mut Registry,
    now: u64,
) {
    reg.add("ledger.segments", records.clone().count() as u64);
    for r in records {
        reg.observe("ledger.reuse", REUSE_BOUNDS, r.hits);
        reg.observe("ledger.residency", RESIDENCY_BOUNDS, r.residency(now));
        reg.observe("ledger.saved_per_seg", SAVED_BOUNDS, r.est_cycles_saved());
        if r.is_doa() {
            reg.inc("ledger.doa");
        }
        match r.evicted {
            None => reg.inc("ledger.resident"),
            Some((_, c)) => reg.inc(&format!("ledger.evict.{}", c.name())),
        }
        reg.add("ledger.hits", r.hits);
        reg.add("ledger.uops_fetched", r.uops_fetched);
        reg.add("ledger.uops_retired", r.uops_retired);
        reg.add("ledger.uops_squashed", r.uops_squashed);
        for pass in LEDGER_PASSES {
            let n = pass_count(&r.opt_counts, pass);
            if n > 0 {
                reg.add(&format!("ledger.saved.{pass}"), n * r.hits);
            }
        }
    }
}

impl SegRecord {
    /// Names of the passes that transformed this segment (report order).
    fn opt_counts_passes(&self) -> Vec<&'static str> {
        LEDGER_PASSES
            .into_iter()
            .filter(|p| pass_count(&self.opt_counts, p) > 0)
            .collect()
    }
}

/// Renders a [`Ledger::report`] as the human-readable block `tracefill
/// ledger` prints for benchmark `name`. It reads only the deterministic
/// report, so the text is as reproducible as the JSON.
pub fn render_report(name: &str, rep: &Json) -> String {
    use std::fmt::Write;
    let n = |v: &Json, path: &[&str]| {
        let member = path.iter().try_fold(v, |v, k| v.get(k));
        member.and_then(Json::as_u64).unwrap_or(0)
    };
    let q = |key: &str, p: f64| {
        let hist = rep.get(key).and_then(|j| Histogram::from_json(j).ok());
        hist.map_or(0.0, |h| h.quantile(p))
    };
    let get = |key| n(rep, &[key]);
    let (segs, resident, doa, hits) = (get("segments"), get("resident"), get("doa"), get("hits"));
    let (conflict, refresh) = (
        n(rep, &["evicted", "conflict"]),
        n(rep, &["evicted", "refresh"]),
    );
    let (fetched, retired) = (get("uops_fetched"), get("uops_retired"));
    let squashed = get("uops_squashed");
    let (reuse50, reuse90, resid50) = (q("reuse", 0.5), q("reuse", 0.9), q("residency", 0.5));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\n{name}: {segs} segments ({resident} resident, {conflict} conflict-evicted, {refresh} refresh-displaced, {doa} dead-on-arrival)"
    );
    let _ = writeln!(
        s,
        "  hits {hits}  uops fetched/retired/squashed {fetched}/{retired}/{squashed}  reuse p50/p90 {reuse50:.1}/{reuse90:.1}  residency p50 {resid50:.0} cycles"
    );
    let _ = write!(s, "  est cycles saved:");
    for pass in ["moves", "cse", "reassoc", "scadd", "placement"] {
        let saved = n(rep, &["per_pass", pass, "est_cycles_saved"]);
        let _ = write!(s, " {pass}={saved}");
    }
    s.push('\n');
    let top = rep.get("top").and_then(Json::as_arr).unwrap_or(&[]);
    if !top.is_empty() {
        let _ = writeln!(
            s,
            "  {:>6} {:>10} {:>4} {:<13} {:>6} {:>9} {:>6}  passes",
            "seg", "pc", "len", "end", "hits", "uops_ret", "saved"
        );
    }
    for row in top {
        let [seg, pc, len, hits, uops, saved] = [
            "seg_id",
            "start_pc",
            "len",
            "hits",
            "uops_retired",
            "est_cycles_saved",
        ]
        .map(|key| n(row, &[key]));
        let end = row.get("end").and_then(Json::as_str).unwrap_or("?");
        let passes = row.get("passes").and_then(Json::as_arr).unwrap_or(&[]);
        let passes: Vec<&str> = passes.iter().filter_map(Json::as_str).collect();
        let passes = if passes.is_empty() {
            "-".to_string()
        } else {
            passes.join("+")
        };
        let _ = writeln!(
            s,
            "  {seg:>6} {pc:#010x} {len:>4} {end:<13} {hits:>6} {uops:>9} {saved:>6}  {passes}"
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_segments, FillInput};
    use crate::config::{FillConfig, TraceCacheConfig};
    use crate::segment::{Line, Provenance};
    use crate::tcache::TraceCache;
    use std::sync::Arc;
    use tracefill_isa::{ArchReg, Instr, Op};
    use tracefill_util::prop::{check, coin, range};
    use tracefill_util::SplitMix64;

    /// A line of a one-branch segment at `pc` with a synthetic seg id.
    fn seg(pc: u32, seg_id: u64, taken: bool) -> Line {
        let inputs = vec![
            FillInput {
                pc,
                instr: Instr::branch(Op::Beq, ArchReg::gpr(8), ArchReg::ZERO, 4),
                taken: Some(taken),
                promoted: None,
                fetch_miss_head: false,
            },
            FillInput {
                pc: if taken { pc + 20 } else { pc + 4 },
                instr: Instr {
                    op: Op::Syscall,
                    rd: ArchReg::ZERO,
                    rs: ArchReg::ZERO,
                    rt: ArchReg::ZERO,
                    imm: 0,
                },
                taken: None,
                promoted: None,
                fetch_miss_head: false,
            },
        ];
        let s = build_segments(&inputs, &FillConfig::default())
            .pop()
            .unwrap();
        Line {
            seg: Arc::new(s),
            provenance: Provenance {
                seg_id,
                build_cycle: seg_id * 10,
            },
        }
    }

    fn tc() -> TraceCache {
        TraceCache::new(TraceCacheConfig {
            entries: 8,
            ways: 2,
            ..TraceCacheConfig::default()
        })
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut led = Ledger::new(false);
        let mut cache = tc();
        let s = seg(0x1000, 1, true);
        let out = cache.insert(s.clone());
        led.on_insert(&s, &out, 5);
        led.on_fetch(1, 2);
        led.on_retire(1);
        assert!(!led.enabled());
        assert!(led.is_empty());
        assert_eq!(led.attributed_retired(), 0);
    }

    #[test]
    fn lifetime_events_fold_into_one_record() {
        let mut led = Ledger::new(true);
        let mut cache = tc();
        let s = seg(0x1000, 7, true);
        let out = cache.insert(s.clone());
        led.on_insert(&s, &out, 100);
        led.on_fetch(7, 2);
        led.on_fetch(7, 2);
        led.on_retire(7);
        led.on_retire(7);
        led.on_retire(7);
        led.on_squash(7);
        let r = led.get(7).unwrap();
        assert_eq!(r.build_cycle, 70);
        assert_eq!(r.insert_cycle, 100);
        assert_eq!(r.hits, 2);
        assert_eq!(r.uops_fetched, 4);
        assert_eq!(r.uops_retired, 3);
        assert_eq!(r.uops_squashed, 1);
        assert_eq!(r.residency(250), 150);
        assert!(!r.is_doa());
        assert_eq!(led.attributed_retired(), 3);
    }

    #[test]
    fn displacement_closes_the_victim_record() {
        let mut led = Ledger::new(true);
        let mut cache = tc();
        // Three same-set lines in a 2-way cache: the third insert evicts
        // the first.
        for (i, pc) in [0x1000u32, 0x1010, 0x1020].into_iter().enumerate() {
            let s = seg(pc, i as u64 + 1, true);
            let out = cache.insert(s.clone());
            led.on_insert(&s, &out, 10 * (i as u64 + 1));
        }
        let victim = led.get(1).unwrap();
        assert_eq!(victim.evicted, Some((30, EvictCause::Conflict)));
        assert_eq!(victim.residency(1000), 20);
        assert!(victim.is_doa(), "evicted with zero hits");
        // A refresh closes with the refresh cause.
        let s = seg(0x1010, 4, true);
        let out = cache.insert(s.clone());
        led.on_insert(&s, &out, 40);
        assert_eq!(led.get(2).unwrap().evicted, Some((40, EvictCause::Refresh)));
        assert!(led.get(3).unwrap().evicted.is_none(), "still resident");
    }

    #[test]
    fn roi_report_attributes_passes_and_is_deterministic() {
        let mut led = Ledger::new(true);
        let mut cache = tc();
        let mut s = seg(0x1000, 1, true);
        {
            let m = Arc::get_mut(&mut s.seg).unwrap();
            m.opt_counts.moves = 2;
            m.opt_counts.scadd = 1;
        }
        let out = cache.insert(s.clone());
        led.on_insert(&s, &out, 5);
        for _ in 0..10 {
            led.on_fetch(1, 2);
        }
        let rep = led.report(1000, 5);
        let per_pass = rep.get("per_pass").unwrap();
        let moves = per_pass.get("moves").unwrap();
        assert_eq!(moves.get("segments").and_then(Json::as_u64), Some(1));
        assert_eq!(
            moves.get("est_cycles_saved").and_then(Json::as_u64),
            Some(20),
            "2 moves x 10 hits"
        );
        let scadd = per_pass.get("scadd").unwrap();
        assert_eq!(
            scadd.get("est_cycles_saved").and_then(Json::as_u64),
            Some(10)
        );
        assert_eq!(
            per_pass
                .get("cse")
                .and_then(|p| p.get("segments"))
                .and_then(Json::as_u64),
            Some(0)
        );
        let top = rep.get("top").and_then(Json::as_arr).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].get("hits").and_then(Json::as_u64), Some(10));
        // Same journal, same bytes.
        assert_eq!(rep.dump(), led.report(1000, 5).dump());
    }

    #[test]
    fn top_table_orders_by_hits_then_seg_id() {
        let mut led = Ledger::new(true);
        let mut cache = tc();
        for (id, pc) in [(1u64, 0x1000u32), (2, 0x2004), (3, 0x3008)] {
            let s = seg(pc, id, true);
            let out = cache.insert(s.clone());
            led.on_insert(&s, &out, id);
        }
        led.on_fetch(2, 2);
        led.on_fetch(2, 2);
        led.on_fetch(3, 2);
        led.on_fetch(1, 2);
        let rep = led.report(100, 2);
        let top = rep.get("top").and_then(Json::as_arr).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].get("seg_id").and_then(Json::as_u64), Some(2));
        assert_eq!(
            top[1].get("seg_id").and_then(Json::as_u64),
            Some(1),
            "tie on hits breaks toward the lower seg id"
        );
    }

    #[test]
    fn export_metrics_matches_report_totals() {
        let mut led = Ledger::new(true);
        let mut cache = tc();
        for (i, pc) in [0x1000u32, 0x1010, 0x1020].into_iter().enumerate() {
            let mut s = seg(pc, i as u64 + 1, true);
            Arc::get_mut(&mut s.seg).unwrap().opt_counts.moves = 1;
            let out = cache.insert(s.clone());
            led.on_insert(&s, &out, 10 * (i as u64 + 1));
        }
        led.on_fetch(2, 2);
        led.on_retire(2);
        let mut reg = Registry::new();
        led.export_metrics(&mut reg, 100);
        assert_eq!(reg.counter("ledger.segments"), 3);
        assert_eq!(reg.counter("ledger.doa"), 1);
        assert_eq!(reg.counter("ledger.hits"), 1);
        assert_eq!(reg.counter("ledger.uops_retired"), 1);
        assert_eq!(reg.counter("ledger.evict.conflict"), 1);
        assert_eq!(reg.counter("ledger.resident"), 2);
        assert_eq!(reg.counter("ledger.saved.moves"), 1);
        assert_eq!(
            reg.histogram("ledger.reuse").unwrap().count(),
            3,
            "one reuse sample per segment"
        );
    }

    /// The record [`Ledger::on_insert`] opens for `line` at cycle `now`,
    /// built field by field for the model.
    fn opened(line: &Line, now: u64) -> SegRecord {
        SegRecord {
            seg_id: line.provenance.seg_id,
            start_pc: line.start_pc,
            len: line.slots.len() as u8,
            end: line.end.name(),
            opt_counts: line.opt_counts,
            loop_seg: line.end == crate::segment::SegEnd::Loop,
            transformed: line.slots.iter().any(|s| s.is_transformed()),
            build_cycle: line.provenance.build_cycle,
            insert_cycle: now,
            hits: 0,
            uops_fetched: 0,
            uops_retired: 0,
            uops_squashed: 0,
            evicted: None,
        }
    }

    /// A seg id for the next event: mostly the next fresh id (sometimes
    /// after a hole), else one a little behind it (a stall-released line,
    /// or an id already in the ledger), id 0, or an id far past the rest.
    fn pick_id(rng: &mut SplitMix64, next: &mut u64) -> u64 {
        match range(rng, 0, 16) {
            0..=8 => {
                *next += range(rng, 0, 3) as u64;
                *next += 1;
                *next - 1
            }
            9..=12 => next.saturating_sub(range(rng, 1, 12) as u64),
            13 => 0,
            14 => *next + Ledger::MAX_GAP as u64 + range(rng, 1, 200) as u64,
            _ => (1 << 40) + range(rng, 0, 4) as u64,
        }
    }

    /// The dense ledger against a `BTreeMap` journal driven by the same
    /// events: inserts that open records (over holes, out of order, over
    /// an id already there, at id 0 and far past the rest) while
    /// refreshing or evicting a line, hits, retirements, squashes and
    /// invalidations, of ids present and absent. After every event `len`,
    /// `get` and `records()` agree, and at the end so do `report` and
    /// `export_metrics`.
    #[test]
    fn dense_ledger_matches_a_btreemap_model() {
        let segs: Vec<Arc<Segment>> = [(0x1000, true), (0x2040, false), (0x3000, true)]
            .map(|(pc, taken)| seg(pc, 0, taken).seg)
            .into();
        check("dense_ledger_matches_a_btreemap_model", 128, |rng| {
            let mut led = Ledger::new(true);
            let mut model: BTreeMap<u64, SegRecord> = BTreeMap::new();
            let mut next = range(rng, 0, 3) as u64;
            for now in 0..200u64 {
                let id = pick_id(rng, &mut next);
                match range(rng, 0, 10) {
                    0..=3 => {
                        let line = Line {
                            seg: Arc::clone(&segs[range(rng, 0, 3) as usize]),
                            provenance: Provenance {
                                seg_id: id,
                                build_cycle: now.saturating_sub(3),
                            },
                        };
                        let prev = pick_id(rng, &mut next.clone());
                        let prev_line = || {
                            Arc::new(Line {
                                seg: Arc::clone(&segs[0]),
                                provenance: Provenance {
                                    seg_id: prev,
                                    build_cycle: 0,
                                },
                            })
                        };
                        let (displaced, cause) = match range(rng, 0, 3) {
                            0 => (Displaced::Nothing, None),
                            1 => (Displaced::Refreshed(prev_line()), Some(EvictCause::Refresh)),
                            _ => (Displaced::Evicted(prev_line()), Some(EvictCause::Conflict)),
                        };
                        let outcome = InsertOutcome {
                            provenance: line.provenance,
                            displaced,
                        };
                        led.on_insert(&line, &outcome, now);
                        if let Some(cause) = cause {
                            if let Some(r) = model.get_mut(&prev) {
                                r.evicted = Some((now, cause));
                            }
                        }
                        model.insert(id, opened(&line, now));
                    }
                    4..=5 => {
                        let uops = range(rng, 1, 17) as u64;
                        led.on_fetch(id, uops);
                        if let Some(r) = model.get_mut(&id) {
                            r.hits += 1;
                            r.uops_fetched += uops;
                        }
                    }
                    6..=7 => {
                        led.on_retire(id);
                        if let Some(r) = model.get_mut(&id) {
                            r.uops_retired += 1;
                        }
                    }
                    8 => {
                        led.on_squash(id);
                        if let Some(r) = model.get_mut(&id) {
                            r.uops_squashed += 1;
                        }
                    }
                    _ => {
                        led.on_invalidate(id, now);
                        if let Some(r) = model.get_mut(&id) {
                            if r.evicted.is_none() {
                                r.evicted = Some((now, EvictCause::Repair));
                            }
                        }
                    }
                }
                assert_eq!(led.len(), model.len());
                assert_eq!(led.is_empty(), model.is_empty());
                assert_eq!(led.get(id), model.get(&id), "seg id {id}");
                if coin(rng) {
                    assert!(led.records().eq(model.values()));
                }
            }
            assert!(led.records().eq(model.values()));
            for probe in (0..next + 4).chain([1 << 40, u64::MAX]) {
                assert_eq!(led.get(probe), model.get(&probe), "seg id {probe}");
            }
            let now = 250;
            let top = range(rng, 0, 12) as usize;
            assert_eq!(
                led.report(now, top).dump(),
                report(model.values(), now, top).dump()
            );
            let (mut got, mut want) = (Registry::new(), Registry::new());
            led.export_metrics(&mut got, now);
            export_metrics(model.values(), &mut want, now);
            assert_eq!(got, want);
        });
    }

    /// A far-away seg id costs one side-map entry: the dense part does not
    /// grow toward it, and grows over it only once nearer ids reach it.
    #[test]
    fn a_far_away_seg_id_allocates_nothing_in_proportion_to_it() {
        let mut led = Ledger::new(true);
        let mut cache = tc();
        let mut insert = |led: &mut Ledger, id: u64| {
            let mut s = seg(0x1000 + 0x40 * (id as u32 % 64), 0, true);
            s.provenance.seg_id = id;
            let out = cache.insert(s.clone());
            led.on_insert(&s, &out, id);
        };
        insert(&mut led, 0);
        insert(&mut led, 1 << 40);
        insert(&mut led, u64::MAX);
        assert_eq!(led.dense.len(), 1, "only id 0 is dense");
        assert!(led.dense.capacity() < 1 << 10);
        assert_eq!(led.far.len(), 2);
        led.on_fetch(1 << 40, 3);
        assert_eq!(led.get(1 << 40).map(|r| r.hits), Some(1));
        let ids: Vec<u64> = led.records().map(|r| r.seg_id).collect();
        assert_eq!(ids, [0, 1 << 40, u64::MAX]);

        // Id 100 is past the gap from the dense end at 1, so it waits in
        // the side map; the dense part adopts it once ids 1..=40 arrive.
        insert(&mut led, 100);
        assert_eq!(led.far.len(), 3);
        for id in 1..=40 {
            insert(&mut led, id);
        }
        assert_eq!(led.dense.len(), 41);
        insert(&mut led, 101);
        assert_eq!(led.dense.len(), 102);
        assert_eq!(led.far.len(), 2, "id 100 moved into the dense part");
        assert_eq!(led.len(), 45);
        let ids: Vec<u64> = led.records().map(|r| r.seg_id).collect();
        assert_eq!(ids.len(), 45);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "seg-id order");
    }
}
