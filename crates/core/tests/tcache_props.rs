//! Property tests for the trace cache and fill unit.

mod common;

use common::stream;
use std::sync::Arc;
use tracefill_core::builder::{build_segments, FillInput};
use tracefill_core::config::{FillConfig, TraceCacheConfig};
use tracefill_core::segment::Segment;
use tracefill_core::tcache::{match_predictions, TraceCache};
use tracefill_isa::{ArchReg, Instr, Op};
use tracefill_util::prop::{check, coin};
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
/// same stream (same config, no optimization), up to the provenance only
/// the fill unit stamps (segment id, build cycle).
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
        let online = fu.drain_ready(u64::MAX - 1);
        // The fill unit keeps its trailing partial segment pending; the
        // offline builder flushes it. Everything before that must agree.
        assert!(online.len() == offline.len() || online.len() + 1 == offline.len());
        for (a, b) in online.iter().zip(&offline) {
            let mut a = Segment::clone(a);
            a.provenance.seg_id = b.provenance.seg_id;
            a.provenance.build_cycle = b.provenance.build_cycle;
            assert_eq!(&a, b);
        }
    });
}
