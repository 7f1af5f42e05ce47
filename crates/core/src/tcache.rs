//! The trace cache: path-associative storage of trace segments.
//!
//! The paper's trace cache holds 2048 lines, 4-way set associative —
//! ≈156 KB of storage (128 KB of instruction bits plus 28 KB of 7-bit
//! pre-decode per instruction; the optimizations of §4 add 7 more bits per
//! instruction). Lines are indexed by the segment start address; several
//! segments with the same start address but different embedded branch
//! paths may coexist in the ways of one set. A lookup supplies the current
//! multiple-branch predictions and selects the way whose embedded path
//! matches the longest prediction prefix (with inactive issue, a partial
//! match still issues the whole line).
//!
//! A way holds a [`Line`]: the segment, which every build of the same
//! content shares, next to the [`Provenance`] of the build that filled
//! the way.

use crate::config::TraceCacheConfig;
use crate::segment::{Line, Provenance, SegEnd, Segment};
use std::sync::Arc;
pub use tracefill_policy::PolicyCounters;
use tracefill_policy::{LineAttrs, ReplacePolicy};

/// Hit/miss statistics of the trace cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups that found at least one line with the right start address.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Hits whose selected way fully matched the predicted path.
    pub full_path_hits: u64,
    /// Segments written.
    pub fills: u64,
    /// Fills that replaced a same-address, same-path line.
    pub refreshes: u64,
    /// Fills that displaced a different line from a full set.
    pub evictions: u64,
}

impl TraceCacheStats {
    /// Fraction of lookups that hit.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            1.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Way {
    tag: u32,
    line: Arc<Line>,
}

/// How well a fetched line's embedded path matches the predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathMatch {
    /// Number of leading conditional branches whose embedded direction
    /// agrees with the prediction stream (promoted branches always agree).
    pub matching_branches: u8,
    /// Whether every branch agreed.
    pub full: bool,
}

/// A trace cache lookup result.
#[derive(Debug, Clone)]
pub struct TcHit {
    /// The stored line.
    pub seg: Arc<Line>,
    /// How far the predictions follow the embedded path.
    pub path: PathMatch,
}

/// What an [`insert`](TraceCache::insert) did to the cache, reported so
/// the segment ledger can open the new line's lifetime record and close
/// the displaced line's.
#[derive(Debug, Clone)]
pub struct InsertOutcome {
    /// The identity the new line was stored under.
    pub provenance: Provenance,
    /// The line it displaced, if any.
    pub displaced: Displaced,
}

/// The line an insert displaced.
#[derive(Debug, Clone)]
pub enum Displaced {
    /// The line landed in an empty way; nothing was displaced.
    Nothing,
    /// The line replaced a same-address, same-path line (counted in
    /// [`TraceCacheStats::refreshes`]), returned here.
    Refreshed(Arc<Line>),
    /// The line displaced a different line from a full set (counted in
    /// [`TraceCacheStats::evictions`]), returned here.
    Evicted(Arc<Line>),
}

/// The trace cache.
#[derive(Debug)]
pub struct TraceCache {
    sets: Vec<Vec<Way>>,
    ways: usize,
    set_mask: u32,
    clock: u64,
    stats: TraceCacheStats,
    /// Replacement state, dispatched through `tracefill-policy`. The
    /// cache reports hits/inserts with its lookup clock as the tick, so
    /// the default LRU policy reproduces the historical in-struct LRU
    /// stamps bit-for-bit.
    policy: Box<dyn ReplacePolicy>,
}

/// The replacement-relevant facts about a segment.
fn attrs_of(seg: &Segment) -> LineAttrs {
    LineAttrs {
        loop_seg: seg.end == SegEnd::Loop,
        transformed: seg.slots.iter().any(|s| s.is_transformed()),
        len: seg.slots.len() as u8,
    }
}

/// Computes how many leading branches of `seg` the prediction stream
/// follows. Unpromoted branches consume predictions in order; promoted
/// branches assert their embedded direction.
pub fn match_predictions(seg: &Segment, preds: &[bool]) -> PathMatch {
    let mut matching = 0u8;
    let mut pred_idx = 0usize;
    for b in &seg.branches {
        let agreed = if b.promoted {
            true
        } else {
            let p = preds.get(pred_idx).copied().unwrap_or(false);
            pred_idx += 1;
            p == b.taken
        };
        if agreed {
            matching += 1;
        } else {
            return PathMatch {
                matching_branches: matching,
                full: false,
            };
        }
    }
    PathMatch {
        matching_branches: matching,
        full: true,
    }
}

impl TraceCache {
    /// Creates an empty trace cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`TraceCacheConfig::sets`]).
    pub fn new(config: TraceCacheConfig) -> TraceCache {
        let sets = config.sets();
        TraceCache {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            ways: config.ways as usize,
            set_mask: sets - 1,
            clock: 0,
            stats: TraceCacheStats::default(),
            policy: config.policy.build(sets as usize, config.ways as usize),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> TraceCacheStats {
        self.stats
    }

    /// The replacement policy's canonical name (`lru`, `srrip`, `trrip`).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    fn set_of(&self, pc: u32) -> usize {
        ((pc >> 2) & self.set_mask) as usize
    }

    /// Looks up the segment for fetch address `pc` under the given
    /// multiple-branch predictions, preferring the way with the longest
    /// matching path prefix. Updates LRU and statistics.
    pub fn lookup(&mut self, pc: u32, preds: &[bool]) -> Option<TcHit> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(pc);
        let mut best: Option<(usize, PathMatch, usize)> = None; // (way idx, match, len)
        for (w, way) in self.sets[set].iter().enumerate() {
            if way.tag != pc {
                continue;
            }
            let m = match_predictions(&way.line, preds);
            let better = match &best {
                None => true,
                Some((_, bm, blen)) => {
                    (m.matching_branches, way.line.slots.len()) > (bm.matching_branches, *blen)
                }
            };
            if better {
                best = Some((w, m, way.line.slots.len()));
            }
        }
        match best {
            Some((w, m, _)) => {
                self.policy.on_hit(set, w, clock);
                self.stats.hits += 1;
                if m.full {
                    self.stats.full_path_hits += 1;
                }
                Some(TcHit {
                    seg: Arc::clone(&self.sets[set][w].line),
                    path: m,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Writes a line produced by the fill unit (or a bare segment, as a
    /// line with seg id and build cycle 0), reporting which line (if any)
    /// it displaced.
    pub fn insert(&mut self, line: impl Into<Line>) -> InsertOutcome {
        let line = Arc::new(line.into());
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line.start_pc);
        let ways = self.ways;
        let sig = line.path_sig();
        let attrs = attrs_of(&line);
        let provenance = line.provenance;
        let set_ways = &mut self.sets[set];
        self.stats.fills += 1;

        // Same start address and same path: refresh in place.
        let tag = line.start_pc;
        let displaced = if let Some(w) = set_ways
            .iter()
            .position(|w| w.tag == tag && w.line.path_sig() == sig)
        {
            let prev = std::mem::replace(&mut set_ways[w].line, line);
            self.policy.on_insert(set, w, clock, &attrs);
            self.stats.refreshes += 1;
            Displaced::Refreshed(prev)
        } else if set_ways.len() < ways {
            let w = set_ways.len();
            set_ways.push(Way { tag, line });
            self.policy.on_insert(set, w, clock, &attrs);
            Displaced::Nothing
        } else {
            // Full set: the replacement policy picks the way to displace.
            let victim = self.policy.victim(set, set_ways.len(), clock);
            set_ways[victim].tag = tag;
            let prev = std::mem::replace(&mut set_ways[victim].line, line);
            self.policy.on_insert(set, victim, clock, &attrs);
            self.stats.evictions += 1;
            Displaced::Evicted(prev)
        };
        InsertOutcome {
            provenance,
            displaced,
        }
    }

    /// Removes the line holding segment `seg_id` at fetch address
    /// `start_pc`, returning it if it was cached. Used by the self-repair
    /// path to surgically drop a segment implicated in a divergence.
    ///
    /// The set is compacted by sliding its last way into the vacated slot
    /// (the policy carries the moved line's state via
    /// [`ReplacePolicy::on_move`]), preserving the left-to-right occupancy
    /// invariant the policies rely on.
    pub fn invalidate(&mut self, start_pc: u32, seg_id: u64) -> Option<Arc<Line>> {
        let set = self.set_of(start_pc);
        let set_ways = &mut self.sets[set];
        let pos = set_ways
            .iter()
            .position(|w| w.tag == start_pc && w.line.provenance.seg_id == seg_id)?;
        let last = set_ways.len() - 1;
        let removed = set_ways.swap_remove(pos);
        if pos != last {
            self.policy.on_move(set, last, pos);
        }
        Some(removed.line)
    }

    /// Hit / eviction / eviction-age totals from the replacement policy's
    /// own bookkeeping. Cross-checkable against [`stats`](Self::stats):
    /// `counters.hits == stats.hits` and
    /// `counters.evictions == stats.evictions` always hold, because the
    /// cache reports every hit and requests every victim through the
    /// policy exactly once.
    pub fn policy_counters(&self) -> PolicyCounters {
        self.policy.counters()
    }

    /// Total storage currently occupied, in bits (for the paper's ≈156 KB
    /// + 7-bit-per-instruction accounting).
    pub fn storage_bits(&self) -> u64 {
        self.sets
            .iter()
            .flatten()
            .map(|w| w.line.storage_bits() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{simple_inputs, simple_segment};
    use crate::builder::{build_segments, FillInput};
    use crate::config::FillConfig;
    use tracefill_isa::{ArchReg, Instr, Op};

    fn small_tc() -> TraceCache {
        TraceCache::new(TraceCacheConfig {
            entries: 8,
            ways: 2,
            ..TraceCacheConfig::default()
        })
    }

    /// A one-branch segment at `pc` whose branch goes `taken`.
    fn seg_with_path(pc: u32, taken: bool) -> Arc<Segment> {
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
        Arc::new(
            build_segments(&inputs, &FillConfig::default())
                .pop()
                .unwrap(),
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut tc = small_tc();
        let seg = Arc::new(simple_segment());
        let pc = seg.start_pc;
        assert!(tc.lookup(pc, &[false, false, false]).is_none());
        tc.insert(seg);
        let hit = tc.lookup(pc, &[false, false, false]).unwrap();
        assert!(hit.path.full);
        assert_eq!(tc.stats().hits, 1);
        assert_eq!(tc.stats().misses, 1);
    }

    #[test]
    fn path_selection_prefers_matching_way() {
        let mut tc = small_tc();
        let pc = 0x40_0000;
        tc.insert(seg_with_path(pc, true));
        tc.insert(seg_with_path(pc, false));
        let hit = tc.lookup(pc, &[true]).unwrap();
        assert!(hit.seg.branches[0].taken);
        assert!(hit.path.full);
        let hit = tc.lookup(pc, &[false]).unwrap();
        assert!(!hit.seg.branches[0].taken);
    }

    #[test]
    fn partial_match_reports_divergence() {
        let mut tc = small_tc();
        let pc = 0x40_0000;
        tc.insert(seg_with_path(pc, true));
        let hit = tc.lookup(pc, &[false]).unwrap();
        assert!(!hit.path.full);
        assert_eq!(hit.path.matching_branches, 0);
    }

    #[test]
    fn refresh_replaces_same_path_line() {
        let mut tc = small_tc();
        let pc = 0x40_0000;
        tc.insert(seg_with_path(pc, true));
        tc.insert(seg_with_path(pc, true));
        assert_eq!(tc.stats().refreshes, 1);
        // Different path is a separate way, not a refresh.
        tc.insert(seg_with_path(pc, false));
        assert_eq!(tc.stats().refreshes, 1);
    }

    #[test]
    fn invalidate_removes_the_named_line_and_compacts_the_set() {
        let mut tc = small_tc();
        let pc = 0x40_0000;
        let with_id = |taken: bool, seg_id: u64| Line {
            seg: seg_with_path(pc, taken),
            provenance: Provenance {
                seg_id,
                build_cycle: 0,
            },
        };
        let a = with_id(true, 7);
        let b = with_id(false, 8);
        let (a_id, b_id) = (a.provenance.seg_id, b.provenance.seg_id);
        tc.insert(a.clone());
        tc.insert(b);
        // Wrong pc or wrong seg id: no line is touched.
        assert!(tc.invalidate(pc + 4, a_id).is_none());
        assert!(tc.invalidate(pc, a_id.wrapping_add(1000)).is_none());
        // Invalidate way 0: way 1 compacts into its slot and both the
        // survivor and future inserts keep working.
        let removed = tc.invalidate(pc, a_id).expect("line was cached");
        assert_eq!(*removed, a);
        let hit = tc.lookup(pc, &[false]).unwrap();
        assert_eq!(hit.seg.provenance.seg_id, b_id);
        // The invalidated path is gone (the survivor partially matches).
        assert!(!tc.lookup(pc, &[true]).unwrap().path.full);
        // Re-inserting fills the vacated way rather than evicting.
        let evictions = tc.stats().evictions;
        tc.insert(seg_with_path(pc, true));
        assert_eq!(tc.stats().evictions, evictions);
        assert!(tc.lookup(pc, &[true]).unwrap().path.full);
    }

    #[test]
    fn insert_outcome_reports_displaced_lines() {
        let mut tc = small_tc();
        let pc = 0x40_0000;
        let first = seg_with_path(pc, true);
        assert!(matches!(
            tc.insert(Arc::clone(&first)).displaced,
            Displaced::Nothing
        ));
        // Same start address, same path: the refresh hands back the line
        // it replaced.
        match tc.insert(seg_with_path(pc, true)).displaced {
            Displaced::Refreshed(prev) => assert!(Arc::ptr_eq(&prev.seg, &first)),
            o => panic!("expected refresh, got {o:?}"),
        }
        // Different path lands in the second way without displacement.
        assert!(matches!(
            tc.insert(seg_with_path(pc, false)).displaced,
            Displaced::Nothing
        ));
    }

    #[test]
    fn insert_outcome_and_policy_counters_cross_check() {
        // Three pcs in the same set of a 2-way cache (set index is
        // (pc>>2) & 3 here, so a 16-byte stride keeps the set).
        let mut tc = small_tc();
        let pcs = [0x1000u32, 0x1010, 0x1020];
        assert!(matches!(
            tc.insert(seg_with_path(pcs[0], true)).displaced,
            Displaced::Nothing
        ));
        assert!(matches!(
            tc.insert(seg_with_path(pcs[1], true)).displaced,
            Displaced::Nothing
        ));
        assert!(tc.lookup(pcs[1], &[true]).is_some());
        match tc.insert(seg_with_path(pcs[2], true)).displaced {
            Displaced::Evicted(prev) => assert_eq!(prev.start_pc, pcs[0]),
            o => panic!("expected eviction, got {o:?}"),
        }
        let c = tc.policy_counters();
        assert_eq!(c.hits, tc.stats().hits);
        assert_eq!(c.evictions, tc.stats().evictions);
        // The victim entered at clock 1 and was displaced at clock 4
        // (two inserts + one lookup before the displacing insert).
        assert_eq!(c.evict_age_ticks, 3);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut tc = small_tc(); // 4 sets, 2 ways; stride 16 bytes maps... sets indexed by (pc>>2)&3
        let stride = 4 * 4; // distinct pcs in the same set: (pc>>2) multiples of 4
        let pcs: Vec<u32> = (0..3).map(|i| 0x1000 + i * stride).collect();
        for &pc in &pcs {
            let inputs = simple_inputs()
                .into_iter()
                .map(|mut f| {
                    f.pc = f.pc - 0x40_0000 + pc;
                    f
                })
                .collect::<Vec<_>>();
            tc.insert(Arc::new(
                build_segments(&inputs, &FillConfig::default())
                    .pop()
                    .unwrap(),
            ));
        }
        // First insert was evicted by the third (same set, 2 ways).
        assert!(tc.lookup(pcs[0], &[false]).is_none());
        assert!(tc.lookup(pcs[1], &[false]).is_some());
        assert!(tc.lookup(pcs[2], &[false]).is_some());
        assert_eq!(tc.stats().evictions, 1);
        assert_eq!(tc.policy_name(), "lru");
    }

    #[test]
    fn alternate_policies_still_cache_correctly() {
        use crate::config::ReplacementKind;
        for kind in [ReplacementKind::Srrip, ReplacementKind::Trrip] {
            let mut tc = TraceCache::new(TraceCacheConfig {
                entries: 8,
                ways: 2,
                policy: kind,
            });
            assert_eq!(tc.policy_name(), kind.name());
            let seg = Arc::new(simple_segment());
            let pc = seg.start_pc;
            assert!(tc.lookup(pc, &[false]).is_none());
            tc.insert(seg);
            assert!(tc.lookup(pc, &[false]).is_some(), "{:?} basic hit", kind);
            assert_eq!(tc.stats().fills, 1);
        }
    }

    #[test]
    fn promoted_branches_do_not_consume_predictions() {
        let pc = 0x40_0000;
        let inputs = vec![
            FillInput {
                pc,
                instr: Instr::branch(Op::Beq, ArchReg::gpr(8), ArchReg::ZERO, 4),
                taken: Some(true),
                promoted: Some(true),
                fetch_miss_head: false,
            },
            FillInput {
                pc: pc + 20,
                instr: Instr::branch(Op::Bne, ArchReg::gpr(9), ArchReg::ZERO, 4),
                taken: Some(false),
                promoted: None,
                fetch_miss_head: false,
            },
            FillInput {
                pc: pc + 24,
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
        let seg = build_segments(&inputs, &FillConfig::default())
            .pop()
            .unwrap();
        // Prediction stream only carries the unpromoted branch: [false].
        let m = match_predictions(&seg, &[false]);
        assert!(m.full);
        assert_eq!(m.matching_branches, 2);
        // A wrong dynamic prediction diverges at the unpromoted branch.
        let m = match_predictions(&seg, &[true]);
        assert!(!m.full);
        assert_eq!(m.matching_branches, 1);
    }
}
