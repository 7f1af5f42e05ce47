//! Property tests for the trace cache and fill unit.

mod common;

use common::stream;
use std::collections::HashMap;
use std::sync::Arc;
use tracefill_core::builder::{build_segments, FillInput};
use tracefill_core::config::{FillConfig, OptConfig, TraceCacheConfig};
use tracefill_core::segment::{Line, Segment};
use tracefill_core::tcache::{match_predictions, TraceCache};
use tracefill_isa::{ArchReg, Instr, Op};
use tracefill_util::prop::{check, coin, range};
use tracefill_util::SplitMix64;

const CASES: u64 = 256;

/// A random but well-formed retire stream of fewer than `len`
/// instructions (sequential PCs, branches with recorded directions).
fn arb_stream(rng: &mut SplitMix64, len: usize) -> Vec<FillInput> {
    stream(rng, len, |rng| {
        let reg = |rng: &mut SplitMix64| ArchReg::gpr(rng.range_u32(0, 16) as u8);
        match rng.range_u32(0, 3) {
            0 => Instr::alu_imm(Op::Addi, reg(rng), reg(rng), 1),
            1 => Instr::branch(Op::Beq, reg(rng), reg(rng), 2),
            _ => Instr::load(Op::Lw, reg(rng), reg(rng), 0),
        }
    })
}

/// The prediction stream that exactly follows a segment's embedded path.
fn matching_preds(seg: &Segment) -> Vec<bool> {
    seg.branches
        .iter()
        .filter(|b| !b.promoted)
        .map(|b| b.taken)
        .collect()
}

/// Any segment just inserted is found by a lookup at its start address
/// with its own path predictions, and the match is full.
#[test]
fn inserted_segments_are_found() {
    check("inserted_found", CASES, |rng| {
        let mut tc = TraceCache::new(TraceCacheConfig::default());
        for seg in build_segments(&arb_stream(rng, 128), &FillConfig::default()) {
            let pc = seg.start_pc;
            let preds = matching_preds(&seg);
            tc.insert(Arc::new(seg));
            let hit = tc.lookup(pc, &preds).expect("lost a just-inserted segment");
            assert!(hit.path.full);
        }
    });
}

/// `match_predictions` agrees with a straightforward reference
/// implementation.
#[test]
fn path_matching_reference() {
    check("path_matching", CASES, |rng| {
        let stream = arb_stream(rng, 64);
        let preds: Vec<bool> = (0..3).map(|_| coin(rng)).collect();
        for seg in build_segments(&stream, &FillConfig::default()) {
            let m = match_predictions(&seg, &preds);
            // Reference: walk branches, consuming predictions for
            // unpromoted ones, until a mismatch.
            let mut pi = 0;
            let mut matching = 0;
            let mut full = true;
            for b in &seg.branches {
                let agreed = if b.promoted {
                    true
                } else {
                    let p = preds.get(pi).copied().unwrap_or(false);
                    pi += 1;
                    p == b.taken
                };
                if agreed {
                    matching += 1;
                } else {
                    full = false;
                    break;
                }
            }
            assert_eq!(m.matching_branches as usize, matching);
            assert_eq!(m.full, full);
        }
    });
}

/// Total stored instructions never exceed the configured capacity in
/// line-entries terms.
#[test]
fn capacity_is_bounded() {
    check("capacity_bounded", CASES, |rng| {
        let cfg = TraceCacheConfig {
            entries: 32,
            ways: 4,
            ..TraceCacheConfig::default()
        };
        let mut tc = TraceCache::new(cfg);
        let mut lines = 0u64;
        for n in 0..rng.range_u32(1, 6) {
            // Shift each stream to different addresses.
            let mut stream = arb_stream(rng, 96);
            for f in &mut stream {
                f.pc += n * 0x1_0000;
            }
            for seg in build_segments(&stream, &FillConfig::default()) {
                tc.insert(Arc::new(seg));
                lines += 1;
            }
        }
        // storage_bits counts live lines only; each line is at most 16
        // slots of 46 bits.
        assert!(tc.storage_bits() <= (cfg.entries as u64) * 16 * 46);
        assert_eq!(tc.stats().fills, lines);
    });
}

/// Fill-unit and offline builder produce identical segments for the
/// same stream (same config, no optimization); the fill unit numbers its
/// lines from 1.
#[test]
fn fill_unit_matches_offline_builder() {
    use tracefill_core::fill::FillUnit;
    check("fill_unit_offline", CASES, |rng| {
        let stream = arb_stream(rng, 96);
        let cfg = FillConfig::default();
        let offline = build_segments(&stream, &cfg);
        let mut fu = FillUnit::new(cfg);
        for (i, input) in stream.iter().enumerate() {
            fu.retire(*input, i as u64);
        }
        let online: Vec<Line> = fu.drain_ready(u64::MAX - 1);
        // The fill unit keeps its trailing partial segment pending; the
        // offline builder flushes it. Everything before that must agree.
        assert!(online.len() == offline.len() || online.len() + 1 == offline.len());
        for (i, (a, b)) in online.iter().zip(&offline).enumerate() {
            assert_eq!(a.provenance.seg_id, i as u64 + 1);
            assert_eq!(&**a, b);
        }
    });
}

/// A loop body of 3 to 14 instructions whose last slot is the back-edge
/// branch. The mix feeds every pass: move idioms, immediate chains,
/// short shifts with dependent adds, memory operations and inner
/// branches.
fn arb_loop_body(rng: &mut SplitMix64) -> Vec<Instr> {
    let reg = |rng: &mut SplitMix64| ArchReg::gpr(rng.range_u32(8, 14) as u8);
    let len = rng.range_u32(3, 15);
    let mut body: Vec<Instr> = (1..len)
        .map(|_| match rng.range_u32(0, 7) {
            0 => Instr::alu_imm(Op::Addi, reg(rng), reg(rng), 0),
            1 => Instr::alu_imm(Op::Addi, reg(rng), reg(rng), range(rng, -8, 8)),
            2 => Instr::alu_imm(Op::Sll, reg(rng), reg(rng), range(rng, 1, 4)),
            3 => Instr::alu(Op::Add, reg(rng), reg(rng), reg(rng)),
            4 => Instr::load(Op::Lw, reg(rng), reg(rng), 4 * range(rng, 0, 4)),
            5 => Instr::store(Op::Sw, reg(rng), reg(rng), 0),
            _ => Instr::branch(Op::Beq, reg(rng), reg(rng), 2),
        })
        .collect();
    body.push(Instr::branch(
        Op::Bne,
        reg(rng),
        ArchReg::ZERO,
        1 - len as i32,
    ));
    body
}

/// A retire stream of at least `len` instructions that runs a few loop
/// bodies for random trip counts, so most segments repeat. Inner branch
/// directions and promotion bits flip now and then, as a bias table's
/// would.
fn loop_stream(rng: &mut SplitMix64, len: usize) -> Vec<FillInput> {
    let bodies: Vec<(u32, Vec<Instr>)> = (0..rng.range_u32(1, 4))
        .map(|k| (0x40_0000 + 0x1000 * k, arb_loop_body(rng)))
        .collect();
    let mut direction = HashMap::new();
    let mut promotion = HashMap::new();
    let mut out = Vec::new();
    while out.len() < len {
        let (base, body) = &bodies[rng.range_u64(0, bodies.len() as u64) as usize];
        let trips = rng.range_u32(1, 40);
        for trip in 0..trips {
            for (i, &instr) in body.iter().enumerate() {
                let pc = base + 4 * i as u32;
                let taken = if !instr.op.is_cond_branch() {
                    None
                } else if i + 1 == body.len() {
                    Some(trip + 1 < trips)
                } else {
                    let d = direction.entry(pc).or_insert_with(|| coin(rng));
                    if rng.range_u32(0, 64) == 0 {
                        *d = !*d;
                    }
                    Some(*d)
                };
                let promoted = taken.and_then(|t| {
                    let p = promotion.entry(pc).or_insert(false);
                    if rng.range_u32(0, 64) == 0 {
                        *p = !*p;
                    }
                    p.then_some(t)
                });
                out.push(FillInput {
                    pc,
                    instr,
                    taken,
                    promoted,
                    fetch_miss_head: i == 0 && trip == 0 && coin(rng),
                });
            }
        }
    }
    out
}

/// Runs `stream` through a fill unit with every pass and strict
/// verification on, charging one quarantine offense against `moves` and
/// `scadd` for segments of class `class` before input `at` when `offense`
/// is `Some((at, class))`. Every drained segment (but for its id and
/// build cycle), the statistics and the `fill.*` telemetry must equal
/// what the offline builder and the passes give, so the build memo is
/// invisible. Returns the fill unit's memo misses.
fn assert_memo_invisible(stream: &[FillInput], offense: Option<(usize, &'static str)>) -> u64 {
    use tracefill_core::fill::{FillStats, FillUnit, SEGMENT_LEN_BOUNDS};
    use tracefill_core::opt;
    use tracefill_core::QuarantineConfig;
    use tracefill_util::Registry;

    let cfg = FillConfig {
        opts: OptConfig::all(),
        strict_verify: true,
        latency: 0,
        ..FillConfig::default()
    };
    let mut fu = FillUnit::new(cfg);
    fu.enable_quarantine(QuarantineConfig {
        quarantine_after: 1,
        disable_after: 100,
    });
    let mut before_offense = usize::MAX;
    for (i, input) in stream.iter().enumerate() {
        if let Some((_, class)) = offense.filter(|&(at, _)| at == i) {
            before_offense = fu.stats().segments as usize;
            assert_eq!(fu.record_offense(&["moves", "scadd"], class).len(), 2);
        }
        fu.retire(*input, i as u64);
    }
    assert!(fu.take_verify_failure().is_none());
    let online: Vec<Arc<Segment>> = fu.drain_ready(u64::MAX - 1);

    let offline = build_segments(stream, &cfg);
    assert!(online.len() == offline.len() || online.len() + 1 == offline.len());
    let q = fu.quarantine().expect("armed");
    let mut telemetry = Registry::new();
    let mut stats = FillStats::default();
    for (i, (a, mut b)) in online.iter().zip(offline).enumerate() {
        let opts = if i >= before_offense {
            cfg.opts
                .with_mask(cfg.opts.to_mask().minus(q.blocked_for(b.end.name())))
        } else {
            cfg.opts
        };
        let counts = opt::apply_all_telemetry(&mut b, &opts, &cfg.clusters, &mut telemetry);
        telemetry.observe("fill.segment_len", SEGMENT_LEN_BOUNDS, b.slots.len() as u64);
        telemetry.inc(&format!("fill.seg_end.{}", b.end.name()));
        stats.segments += 1;
        stats.slots += b.slots.len() as u64;
        stats.opts.add(counts);
        assert_eq!(**a, b, "segment {i}");
    }
    assert_eq!(fu.stats(), stats);
    // Without a controller the fill unit records `fill.*` metrics only.
    assert!(fu
        .telemetry()
        .counters()
        .all(|(n, _)| n.starts_with("fill.")));
    assert_eq!(fu.telemetry().to_json().dump(), telemetry.to_json().dump());
    fu.memo_misses()
}

/// The build memo changes no segment, statistic or counter when most
/// fills rebuild a segment it already holds, promotion bits flip between
/// rebuilds, and a quarantine offense changes the effective pass set
/// mid-stream.
#[test]
fn fill_memo_is_invisible() {
    check("fill_memo_invisible", 64, |rng| {
        let stream = loop_stream(rng, 3000);
        let offense_at = rng.range_u64(0, stream.len() as u64) as usize;
        let class = ["loop", "full", "branch_limit"][rng.range_u32(0, 3) as usize];
        let misses = assert_memo_invisible(&stream, Some((offense_at, class)));
        let segments = build_segments(&stream, &FillConfig::default()).len() as u64;
        assert!(misses * 2 < segments, "{misses} misses of {segments}");
    });
}

/// The same with more distinct segments than the memo holds. The stream
/// runs every segment once, then the last 50 again (still held after the
/// memo was cleared when full), then the first 50 again (cleared away),
/// so exactly the first 50 rebuild.
#[test]
fn fill_memo_is_invisible_past_its_bound() {
    use tracefill_core::fill::MEMO_ENTRIES;
    let mut rng = SplitMix64::new(0xb0_0d);
    let distinct = MEMO_ENTRIES + 100;
    let reg = |rng: &mut SplitMix64| ArchReg::gpr(rng.range_u32(8, 14) as u8);
    let once: Vec<FillInput> = (0..distinct as u32 * 16)
        .map(|i| FillInput {
            pc: 0x40_0000 + 4 * i,
            instr: match rng.range_u32(0, 4) {
                0 => Instr::alu_imm(Op::Addi, reg(&mut rng), reg(&mut rng), 0),
                1 => Instr::alu_imm(Op::Sll, reg(&mut rng), reg(&mut rng), 2),
                2 => Instr::alu(Op::Add, reg(&mut rng), reg(&mut rng), reg(&mut rng)),
                _ => Instr::load(Op::Lw, reg(&mut rng), reg(&mut rng), 8),
            },
            taken: None,
            promoted: None,
            fetch_miss_head: false,
        })
        .collect();
    let stream: Vec<FillInput> = once
        .iter()
        .chain(&once[(distinct - 50) * 16..])
        .chain(&once[..50 * 16])
        .copied()
        .collect();
    assert_eq!(assert_memo_invisible(&stream, None), distinct as u64 + 50);
}
