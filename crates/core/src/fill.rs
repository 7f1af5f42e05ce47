//! The fill unit: segment collection, optimization and the fill pipeline.
//!
//! The fill unit sits off the critical path (figure 1 of the paper): it
//! watches the retire stream, builds trace segments, applies the enabled
//! dynamic optimizations and — after a configurable fill-pipeline latency —
//! hands finished segments to the trace cache. Because it only consumes
//! *retired* (correct-path) instructions, its view of the program is always
//! architecturally continuous, even across mispredictions.
//!
//! # The build memo
//!
//! Loops rebuild the same few segments over and over: almost every fill
//! refreshes a line the trace cache already holds. The passes and strict
//! verification are pure functions of the segment the builder closed and
//! of the effective [`OptConfig`] (the static configuration after the
//! controller's arm and the quarantine mask), so the fill unit runs them
//! once per distinct pair and replays the result afterwards:
//!
//! * **Key.** The words a closed segment is built from, read off the
//!   builder's buffers (`memo_key`): the effective configuration, the
//!   termination cause and length, each branch's promotion bit
//!   (promotion toggles between rebuilds of one path), and each slot's
//!   PC, instruction and direction. The builder derives every other
//!   field of a closed segment from these.
//! * **Hit.** The key's hash finds the entry, and the hit counts only if
//!   the entry's key words equal the closed segment's, so a hash
//!   collision costs a rebuild, never a wrong segment. Only a miss turns
//!   the builder's buffers into a [`Segment`].
//! * **Value.** The optimized segment (carrying its [`OptCounts`]) behind
//!   an `Arc`, the `fill.<pass>.*` counter deltas the passes recorded and
//!   the [`opt::strict_check`] verdict. A hit hands out the cached `Arc`
//!   in a [`Line`] with a fresh `seg_id`/`build_cycle`, and replays the
//!   counts and counters into dense per-name sums, folded into the
//!   registry by [`FillUnit::telemetry`]; a cached failure bumps
//!   `fill.verify.fail`, records a [`VerifyFailure`] and reaches the
//!   repair ladder exactly as a fresh one does. Every statistic and
//!   counter is therefore the one the unmemoized fill unit reports.
//! * **Bound.** At most [`MEMO_ENTRIES`] distinct segments; the memo is
//!   cleared when full and starts empty.
//!
//! The memo only ever sees segments as the builder closes them. Fault
//! injection corrupts segments after they leave the fill pipe, and the
//! simulator re-checks a segment carrying a fault note at the cache
//! boundary with [`opt::strict_check`] itself, so a corrupted copy of a
//! memoized segment is always verified.

use crate::builder::{Closed, FillInput, SegmentBuilder};
use crate::config::{FillConfig, OptConfig};
use crate::opt::{self, OptCounts};
use crate::quarantine::{Escalation, Quarantine, QuarantineConfig};
use crate::segment::{Line, Provenance, SegEnd, SegSource, Segment};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use tracefill_policy::{PassController, PassMask};
use tracefill_util::{Histogram, Registry};

/// Histogram bucket bounds for finalized-segment lengths (instructions).
pub const SEGMENT_LEN_BOUNDS: &[u64] = &[1, 2, 4, 6, 8, 10, 12, 16, 24, 32];

/// Most distinct segments the build memo holds before it is cleared.
pub const MEMO_ENTRIES: usize = 4096;

/// Running statistics of the fill unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillStats {
    /// Segments finalized.
    pub segments: u64,
    /// Instruction slots across all finalized segments.
    pub slots: u64,
    /// Transformations applied, by kind.
    pub opts: OptCounts,
}

impl FillStats {
    /// Mean instructions per finalized segment.
    pub fn mean_segment_len(&self) -> f64 {
        if self.segments == 0 {
            0.0
        } else {
            self.slots as f64 / self.segments as f64
        }
    }
}

/// A segment the strict verifier rejected after optimization. The segment
/// itself is dropped (never reaches the trace cache); this record carries
/// everything needed to report the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFailure {
    /// The rejected segment.
    pub seg: SegSource,
    /// What the verifier objected to.
    pub detail: String,
    /// The segment's termination cause (its quarantine provenance class).
    pub end: &'static str,
}

/// The fill unit.
///
/// # Examples
///
/// ```
/// use tracefill_core::fill::FillUnit;
/// use tracefill_core::builder::FillInput;
/// use tracefill_core::config::FillConfig;
/// use tracefill_core::Line;
/// use tracefill_isa::{Instr, Op, ArchReg};
///
/// let mut fu = FillUnit::new(FillConfig { latency: 3, ..FillConfig::default() });
/// // Retire a serializing instruction: terminates a 1-slot segment.
/// fu.retire(FillInput {
///     pc: 0x40_0000,
///     instr: Instr { op: Op::Syscall, rd: ArchReg::ZERO, rs: ArchReg::ZERO,
///                    rt: ArchReg::ZERO, imm: 0 },
///     taken: None,
///     promoted: None,
///     fetch_miss_head: false,
/// }, 100);
/// assert!(fu.drain_ready::<Line>(102).is_empty());  // still in the fill pipe
/// let lines: Vec<Line> = fu.drain_ready(103);        // latency elapsed
/// assert_eq!(lines[0].provenance.seg_id, 1);
/// ```
#[derive(Debug)]
pub struct FillUnit {
    config: FillConfig,
    builder: SegmentBuilder,
    /// Lines traversing the fill pipeline: `(ready_cycle, line)`.
    pipe: VecDeque<(u64, Line)>,
    stats: FillStats,
    /// Counters recorded by name: policy epochs and verify failures. The
    /// per-finalize counters are kept dense below and folded in by
    /// [`telemetry`](Self::telemetry).
    telemetry: Registry,
    /// `fill.segment_len`: finalized-segment lengths.
    segment_len: Histogram,
    /// `fill.seg_end.<cause>` counts, indexed by [`SegEnd`] in
    /// [`SegEnd::ALL`] order.
    seg_ends: [u64; SegEnd::ALL.len()],
    /// Next segment id (monotonic from 1; 0 means "no fill unit").
    next_seg_id: u64,
    /// First strict-verification failure, if any (see
    /// [`FillConfig::strict_verify`]).
    verify_failure: Option<VerifyFailure>,
    /// The online pass controller, when [`FillConfig::controller`] enables
    /// one. `None` reproduces the static machine exactly.
    controller: Option<PassController>,
    /// The self-repair escalation ladder, when the simulator enables it.
    /// `None` (the default) leaves the finalize path bit-identical to the
    /// machine without self-repair.
    quarantine: Option<Quarantine>,
    /// Optimized, verified builds by segment content (see the module
    /// docs), keyed by the hash of their [`memo_key`].
    memo: HashMap<u64, Box<MemoEntry>, BuildHasherDefault<Prehashed>>,
    /// The `fill.<pass>.*` counter names memo entries replay, each stored
    /// once: an entry names a counter by its index here.
    memo_names: Vec<Box<str>>,
    /// The replayed total of each counter in `memo_names`.
    memo_sums: Vec<u64>,
    /// The key words of the segment being finalized (see [`memo_key`]),
    /// kept to reuse its allocation.
    key: Vec<u64>,
    /// Finalizes that missed the memo and ran the passes and verifier.
    memo_misses: u64,
}

/// One memoized build: what the passes and the verifier made of one
/// pre-optimization segment under one effective configuration.
#[derive(Debug)]
struct MemoEntry {
    /// The [`memo_key`] words of the segment and configuration.
    key: Box<[u64]>,
    /// The segment as the passes left it, shared by every line built
    /// from this entry.
    body: Arc<Segment>,
    /// `fill.<pass>.*` counter deltas the passes recorded, as
    /// `(index into FillUnit::memo_names, delta)`.
    counters: Box<[(u16, u32)]>,
    /// [`opt::strict_check`] of `body`; `Ok` when strict verification is
    /// off.
    verdict: Result<(), String>,
}

impl MemoEntry {
    /// Runs the enabled passes under `opts` and, when `strict_verify` is
    /// set, the verifier over the segment `closed`, whose key is `key`,
    /// adding counter names `names` lacks.
    fn build(
        closed: &Closed<'_>,
        key: &[u64],
        opts: &OptConfig,
        config: &FillConfig,
        names: &mut Vec<Box<str>>,
    ) -> MemoEntry {
        let mut body = closed.to_segment();
        let mut deltas = Registry::new();
        opt::apply_all_telemetry(&mut body, opts, &config.clusters, &mut deltas);
        let verdict = if config.strict_verify {
            opt::strict_check(&body)
        } else {
            Ok(())
        };
        let counters = deltas
            .counters()
            .map(|(name, v)| {
                let i = names.iter().position(|n| **n == *name).unwrap_or_else(|| {
                    names.push(name.into());
                    names.len() - 1
                });
                (
                    i as u16,
                    u32::try_from(v).expect("per-segment counts fit u32"),
                )
            })
            .collect();
        MemoEntry {
            key: key.into(),
            body: Arc::new(body),
            counters,
            verdict,
        }
    }
}

/// Writes the memo key of segment `closed` under `opts` into `key` and
/// returns its hash. The words are the configuration with the
/// termination cause and length, the branches' promotion bits, then two
/// words per slot: its PC and immediate, and its opcode, registers and
/// direction. The builder derives every other field of a closed segment
/// (its start PC, sources, destinations, blocks, live-outs, branch list
/// and issue order) from these, so equal keys mean equal segments.
fn memo_key(closed: &Closed<'_>, opts: &OptConfig, key: &mut Vec<u64>) -> u64 {
    fn mix(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    }
    let OptConfig {
        moves,
        reassoc,
        reassoc_cross_block_only,
        scadd,
        scadd_max_shift,
        placement,
        cse,
    } = *opts;
    let flags = [
        moves,
        reassoc,
        reassoc_cross_block_only,
        scadd,
        placement,
        cse,
    ];
    let cfg = flags
        .iter()
        .enumerate()
        .fold(u64::from(scadd_max_shift) << 8, |w, (i, &on)| {
            w | u64::from(on) << i
        });
    let promoted = closed
        .branches
        .iter()
        .enumerate()
        .fold(0u64, |w, (i, b)| w | u64::from(b.promoted) << i);
    key.clear();
    key.push(cfg | (closed.end as u64) << 16 | (closed.slots.len() as u64) << 24);
    key.push(promoted);
    for s in closed.slots {
        let i = s.orig;
        let taken = s.taken.map_or(0, |t| 1 + u64::from(t));
        key.push(u64::from(s.pc) | u64::from(i.imm as u32) << 32);
        key.push(
            i.op as u64
                | (i.rd.index() as u64) << 8
                | (i.rs.index() as u64) << 16
                | (i.rt.index() as u64) << 24
                | taken << 32,
        );
    }
    let h = key.iter().fold(0, |h, &w| mix(h, w));
    // Fold the well-mixed high bits into the low bits the table indexes
    // by.
    h ^ h >> 32
}

/// A pass-through [`Hasher`] for keys that are already [`memo_key`]
/// hashes.
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("memo keys are u64 hashes")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

impl FillUnit {
    /// Creates a fill unit with an empty pipeline.
    pub fn new(config: FillConfig) -> FillUnit {
        FillUnit {
            controller: PassController::new(config.controller),
            config,
            builder: SegmentBuilder::new(),
            pipe: VecDeque::new(),
            stats: FillStats::default(),
            telemetry: Registry::new(),
            segment_len: Histogram::new(SEGMENT_LEN_BOUNDS),
            seg_ends: [0; SegEnd::ALL.len()],
            next_seg_id: 1,
            verify_failure: None,
            quarantine: None,
            memo: HashMap::default(),
            memo_names: Vec::new(),
            memo_sums: Vec::new(),
            key: Vec::new(),
            memo_misses: 0,
        }
    }

    /// Arms the self-repair escalation ladder. Segments of a quarantined
    /// `(pass, class)` pair are built without that pass from here on.
    pub fn enable_quarantine(&mut self, cfg: QuarantineConfig) {
        self.quarantine = Some(Quarantine::new(cfg));
    }

    /// The escalation ladder, if armed.
    pub fn quarantine(&self) -> Option<&Quarantine> {
        self.quarantine.as_ref()
    }

    /// Charges one repair offense to `passes` under provenance class
    /// `class` and applies any resulting ladder transitions: `Disabled`
    /// escalations are also pushed into the online pass controller (when
    /// one is running) so its arm statistics reflect the shrunken pass
    /// set. Returns the transitions for reporting. No-op (empty) when the
    /// ladder is not armed.
    pub fn record_offense(
        &mut self,
        passes: &[&'static str],
        class: &'static str,
    ) -> Vec<Escalation> {
        let Some(q) = self.quarantine.as_mut() else {
            return Vec::new();
        };
        let escalations = q.record_offense(passes, class);
        if let Some(c) = self.controller.as_mut() {
            for esc in &escalations {
                if let Escalation::Disabled { pass } = esc {
                    c.block_passes(PassMask::from_token(pass));
                }
            }
        }
        escalations
    }

    /// Discards the builder's partial (not yet finalized) segment, leaving
    /// in-flight pipeline segments untouched. Used by self-repair: the
    /// partial segment straddles the divergence point and must not be
    /// cached.
    pub fn flush_partial(&mut self) {
        self.builder.clear();
    }

    /// The active configuration.
    pub fn config(&self) -> &FillConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> FillStats {
        self.stats
    }

    /// Optimization accept/reject counters and segment-shape distributions
    /// accumulated so far (`fill.<pass>.accept`,
    /// `fill.<pass>.reject.<reason>`, `fill.segment_len`,
    /// `fill.seg_end.<cause>`), plus the controller's `policy.*` counters
    /// and `fill.verify.fail`. A key exists once its counter was first
    /// recorded, even at zero.
    pub fn telemetry(&self) -> Registry {
        let mut reg = self.telemetry.clone();
        for (name, &n) in self.memo_names.iter().zip(&self.memo_sums) {
            reg.add(name, n);
        }
        if self.segment_len.count() > 0 {
            reg.merge_histogram("fill.segment_len", &self.segment_len);
        }
        for (end, &n) in SegEnd::ALL.iter().zip(&self.seg_ends) {
            if n > 0 {
                reg.add(&format!("fill.seg_end.{}", end.name()), n);
            }
        }
        reg
    }

    /// Finalizes that missed the build memo and ran the optimization
    /// passes (and, with strict verification, the verifier); every other
    /// finalize replayed a memoized build.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Offers one retired instruction at cycle `now`, finalizing each
    /// segment it closes as [`SegmentBuilder::offer`] would hand them out.
    pub fn retire(&mut self, input: FillInput, now: u64) {
        if let Some(c) = self.controller.as_mut() {
            c.on_retire(now);
        }
        if let Some(end) = self.builder.end_before(&input, &self.config) {
            self.finalize(end, now);
        }
        self.builder.push(input);
        if let Some(end) = self.builder.end_after(&input, &self.config) {
            self.finalize(end, now);
        }
    }

    /// Closes the builder's segment as `end`, then stamps, optimizes,
    /// counts and verifies it, and sends it down the fill pipeline. The
    /// optimized segment, its counts and its verdict come from the build
    /// memo (see the module docs).
    fn finalize(&mut self, end: SegEnd, now: u64) {
        let Some(closed) = self.builder.seal(end) else {
            return;
        };
        // The controller's current arm gates which passes run this epoch;
        // pass parameters always come from the static configuration.
        let mut opts = match &self.controller {
            Some(c) => self.config.opts.with_mask(c.current()),
            None => self.config.opts,
        };
        // The repair ladder then subtracts quarantined/disabled passes for
        // this segment's provenance class. An unarmed or empty ladder
        // leaves `opts` untouched, preserving bit-identity with the
        // machine without self-repair.
        if let Some(q) = &self.quarantine {
            if q.any_blocked() {
                let blocked = q.blocked_for(end.name());
                if !blocked.is_empty() {
                    opts = opts.with_mask(opts.to_mask().minus(blocked));
                }
            }
        }
        let hash = memo_key(&closed, &opts, &mut self.key);
        if self.memo.get(&hash).is_none_or(|e| *e.key != *self.key) {
            if self.memo.len() >= MEMO_ENTRIES {
                self.memo.clear();
            }
            self.memo_misses += 1;
            let entry = MemoEntry::build(
                &closed,
                &self.key,
                &opts,
                &self.config,
                &mut self.memo_names,
            );
            self.memo_sums.resize(self.memo_names.len(), 0);
            self.memo.insert(hash, Box::new(entry));
        }
        self.builder.clear();
        let entry = &self.memo[&hash];
        let line = Line {
            seg: Arc::clone(&entry.body),
            provenance: Provenance {
                seg_id: self.next_seg_id,
                build_cycle: now,
            },
        };
        self.next_seg_id += 1;
        for &(name, n) in entry.counters.iter() {
            self.memo_sums[usize::from(name)] += u64::from(n);
        }
        self.stats.segments += 1;
        self.stats.slots += line.slots.len() as u64;
        self.stats.opts.add(line.opt_counts);
        self.segment_len.observe(line.slots.len() as u64);
        self.seg_ends[end as usize] += 1;
        if let Some(c) = self.controller.as_mut() {
            if let Some(ep) = c.on_fill(now) {
                self.telemetry.inc("policy.epochs");
                self.telemetry
                    .inc(&format!("policy.arm.{}", ep.arm.label()));
                self.telemetry
                    .add("policy.reward_milli", (ep.reward * 1000.0) as u64);
            }
        }
        // Always-on verification (oracle runs): a segment the passes broke
        // is dropped on the floor rather than cached, and the first failure
        // is retained for the simulator to surface as a divergence.
        if let Err(detail) = &entry.verdict {
            self.telemetry.inc("fill.verify.fail");
            if self.verify_failure.is_none() {
                self.verify_failure = Some(VerifyFailure {
                    seg: SegSource::of(&line),
                    detail: detail.clone(),
                    end: end.name(),
                });
            }
            return;
        }
        self.pipe
            .push_back((now + self.config.latency as u64, line));
    }

    /// Removes and returns every line whose fill latency has elapsed by
    /// cycle `now`, in completion order, as lines or (`T = Arc<Segment>`)
    /// as their segments alone.
    pub fn drain_ready<T: From<Line>>(&mut self, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        while let Some((ready, _)) = self.pipe.front() {
            if *ready <= now {
                out.push(self.pipe.pop_front().unwrap().1.into());
            } else {
                break;
            }
        }
        out
    }

    /// Number of segments currently traversing the fill pipeline.
    pub fn in_flight(&self) -> usize {
        self.pipe.len()
    }

    /// Takes the first strict-verification failure, if one occurred (see
    /// [`FillConfig::strict_verify`]).
    pub fn take_verify_failure(&mut self) -> Option<VerifyFailure> {
        self.verify_failure.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;
    use tracefill_isa::{ArchReg, Instr, Op};

    fn r(n: u8) -> ArchReg {
        ArchReg::gpr(n)
    }

    fn addi(d: u8, s: u8, imm: i32) -> Instr {
        Instr::alu_imm(Op::Addi, r(d), r(s), imm)
    }

    fn feed(fu: &mut FillUnit, pc: u32, instr: Instr, now: u64) {
        fu.retire(
            FillInput {
                pc,
                instr,
                taken: instr.op.is_cond_branch().then_some(false),
                promoted: None,
                fetch_miss_head: false,
            },
            now,
        );
    }

    #[test]
    fn latency_orders_delivery() {
        let mut fu = FillUnit::new(FillConfig {
            latency: 10,
            ..FillConfig::default()
        });
        // 32 adds -> two full 16-slot segments, finalized at the cycle of
        // their 16th retire.
        for i in 0..32u32 {
            feed(&mut fu, 0x1000 + 4 * i, addi(8, 8, 1), i as u64);
        }
        assert_eq!(fu.in_flight(), 2);
        assert!(fu.drain_ready::<Line>(24).is_empty());
        assert_eq!(fu.drain_ready::<Line>(25).len(), 1); // finalized at 15, ready at 25
        assert_eq!(fu.drain_ready::<Line>(41).len(), 1); // finalized at 31, ready at 41
    }

    #[test]
    fn stats_count_transformations() {
        let mut fu = FillUnit::new(FillConfig {
            opts: OptConfig::all(),
            latency: 0,
            ..FillConfig::default()
        });
        // A move plus a dependent instruction, then a serializer.
        feed(&mut fu, 0x1000, addi(8, 9, 0), 0); // move idiom
        feed(&mut fu, 0x1004, addi(10, 8, 4), 1);
        feed(
            &mut fu,
            0x1008,
            Instr {
                op: Op::Syscall,
                rd: r(0),
                rs: r(0),
                rt: r(0),
                imm: 0,
            },
            2,
        );
        let st = fu.stats();
        assert_eq!(st.segments, 1);
        assert_eq!(st.slots, 3);
        assert_eq!(st.opts.moves, 1);
        assert!((st.mean_segment_len() - 3.0).abs() < 1e-12);
        let segs = fu.drain_ready::<Line>(2);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].slots[0].is_move);
    }

    #[test]
    fn controller_arm_gates_passes() {
        use crate::config::{ControllerConfig, ControllerMode, PassMask};
        // Static-NONE arm: even with every pass configured on, nothing runs.
        let mut fu = FillUnit::new(FillConfig {
            opts: OptConfig::all(),
            latency: 0,
            controller: ControllerConfig {
                mode: ControllerMode::Static(PassMask::NONE),
                epoch_fills: 2,
                seed: 0,
            },
            ..FillConfig::default()
        });
        let syscall = Instr {
            op: Op::Syscall,
            rd: r(0),
            rs: r(0),
            rt: r(0),
            imm: 0,
        };
        for i in 0..4u64 {
            let base = 0x1000 + (i as u32) * 0x100;
            feed(&mut fu, base, addi(8, 9, 0), i * 10); // move idiom
            feed(&mut fu, base + 4, addi(10, 8, 4), i * 10 + 1);
            feed(&mut fu, base + 8, syscall, i * 10 + 2);
        }
        assert_eq!(fu.stats().opts.moves, 0, "NONE arm disables the pass");
        // 4 fills at epoch_fills=2 => 2 closed epochs in telemetry.
        assert_eq!(fu.telemetry().counter("policy.epochs"), 2);
        assert_eq!(fu.telemetry().counter("policy.arm.none"), 2);
    }

    #[test]
    fn quarantine_gates_passes_by_provenance_class() {
        let syscall = Instr {
            op: Op::Syscall,
            rd: r(0),
            rs: r(0),
            rt: r(0),
            imm: 0,
        };
        let mut fu = FillUnit::new(FillConfig {
            opts: OptConfig::all(),
            latency: 0,
            ..FillConfig::default()
        });
        fu.enable_quarantine(QuarantineConfig {
            quarantine_after: 1,
            disable_after: 100,
        });
        // Quarantine `moves` for serialize-terminated segments only.
        let esc = fu.record_offense(&["moves"], "serialize");
        assert_eq!(esc.len(), 1);
        // A serialize-terminated segment with a move idiom: pass gated off.
        feed(&mut fu, 0x1000, addi(8, 9, 0), 0);
        feed(&mut fu, 0x1004, addi(10, 8, 4), 1);
        feed(&mut fu, 0x1008, syscall, 2);
        assert_eq!(fu.stats().opts.moves, 0, "quarantined for this class");
        // A full (16-slot) segment with the same idiom: pass still runs.
        feed(&mut fu, 0x2000, addi(8, 9, 0), 10);
        feed(&mut fu, 0x2004, addi(10, 8, 4), 11);
        for i in 2..16u32 {
            feed(&mut fu, 0x2000 + 4 * i, addi(11, 11, 1), 10 + u64::from(i));
        }
        assert_eq!(fu.stats().opts.moves, 1, "other classes unaffected");
    }

    #[test]
    fn memo_replays_cached_verify_failures() {
        let syscall = Instr {
            op: Op::Syscall,
            rd: r(0),
            rs: r(0),
            rt: r(0),
            imm: 0,
        };
        let mut fu = FillUnit::new(FillConfig {
            opts: OptConfig::all(),
            strict_verify: true,
            latency: 0,
            ..FillConfig::default()
        });
        let build = |fu: &mut FillUnit, now: u64| {
            feed(fu, 0x1000, addi(8, 9, 0), now);
            feed(fu, 0x1004, addi(10, 8, 4), now + 1);
            feed(fu, 0x1008, syscall, now + 2);
        };
        build(&mut fu, 0);
        assert_eq!(fu.drain_ready::<Line>(2).len(), 1);
        // Poison the memoized verdict: rebuilds of the same segment must
        // fail exactly as a fresh verification failure would.
        for entry in fu.memo.values_mut() {
            entry.verdict = Err("poisoned".to_string());
        }
        build(&mut fu, 10);
        build(&mut fu, 20);
        assert!(
            fu.drain_ready::<Line>(100).is_empty(),
            "failed segments are dropped"
        );
        assert_eq!(fu.memo_misses(), 1);
        assert_eq!(fu.stats().segments, 3);
        assert_eq!(fu.stats().opts.moves, 3);
        assert_eq!(fu.telemetry().counter("fill.verify.fail"), 2);
        assert_eq!(fu.telemetry().counter("fill.moves.accept"), 3);
        let vf = fu.take_verify_failure().expect("first failure retained");
        assert_eq!(vf.seg.seg_id, 2);
        assert_eq!(vf.seg.passes, vec!["moves", "placement"]);
        assert_eq!(vf.detail, "poisoned");
        assert_eq!(vf.end, "serialize");
    }

    /// Builds of the same content share one segment, yet each keeps its
    /// own identity in the trace cache and the ledger, and the cache
    /// invalidates a line by that identity.
    #[test]
    fn memo_hits_share_the_segment_and_keep_their_identity() {
        use crate::config::TraceCacheConfig;
        use crate::ledger::{EvictCause, Ledger};
        use crate::tcache::TraceCache;
        let syscall = Instr {
            op: Op::Syscall,
            rd: r(0),
            rs: r(0),
            rt: r(0),
            imm: 0,
        };
        let mut fu = FillUnit::new(FillConfig {
            opts: OptConfig::all(),
            latency: 0,
            ..FillConfig::default()
        });
        for now in [0, 10, 40] {
            feed(&mut fu, 0x1000, addi(8, 9, 0), now);
            feed(&mut fu, 0x1004, addi(10, 8, 4), now + 1);
            feed(&mut fu, 0x1008, syscall, now + 2);
        }
        let mut lines: Vec<Line> = fu.drain_ready(100);
        assert_eq!(fu.memo_misses(), 1);
        assert!(lines.iter().all(|l| Arc::ptr_eq(&l.seg, &lines[0].seg)));
        let ids: Vec<_> = lines.iter().map(|l| l.provenance).collect();
        let want = [(1, 2), (2, 12), (3, 42)].map(|(seg_id, build_cycle)| Provenance {
            seg_id,
            build_cycle,
        });
        assert_eq!(ids, want);
        lines.truncate(2);

        // The second line refreshes the first: same content, new identity.
        let mut tc = TraceCache::new(TraceCacheConfig::default());
        let mut ledger = Ledger::new(true);
        for (now, line) in [20, 30].into_iter().zip(&lines) {
            let out = tc.insert(line.clone());
            assert_eq!(out.provenance, line.provenance);
            ledger.on_insert(line, &out, now);
        }
        let hit = tc.lookup(0x1000, &[]).expect("line cached");
        assert!(Arc::ptr_eq(&hit.seg.seg, &lines[0].seg));
        assert_eq!(hit.seg.provenance, want[1]);
        let (first, second) = (ledger.get(1).unwrap(), ledger.get(2).unwrap());
        assert_eq!((first.build_cycle, first.insert_cycle), (2, 20));
        assert_eq!(first.evicted, Some((30, EvictCause::Refresh)));
        assert_eq!((second.build_cycle, second.insert_cycle), (12, 30));
        assert_eq!(second.evicted, None);

        // Only the resident build's id names the line.
        assert!(tc.invalidate(0x1000, 1).is_none());
        let removed = tc.invalidate(0x1000, 2).expect("resident line");
        assert_eq!(removed.provenance, want[1]);
        assert!(tc.lookup(0x1000, &[]).is_none());
    }

    #[test]
    fn flush_partial_discards_without_caching() {
        let mut fu = FillUnit::new(FillConfig {
            latency: 0,
            ..FillConfig::default()
        });
        feed(&mut fu, 0x1000, addi(8, 8, 1), 0);
        fu.flush_partial();
        assert_eq!(fu.in_flight(), 0);
        assert_eq!(fu.stats().segments, 0);
        assert!(fu.drain_ready::<Line>(1000).is_empty());
    }

    #[test]
    fn partial_segments_stay_pending() {
        let mut fu = FillUnit::new(FillConfig::default());
        feed(&mut fu, 0x1000, addi(8, 8, 1), 0);
        assert_eq!(fu.in_flight(), 0);
        assert!(fu.drain_ready::<Line>(1000).is_empty());
    }
}
