//! Deterministic fault injection for the trace-cache pipeline.
//!
//! A [`FaultPlan`] is a seeded, fully explicit list of faults to inject
//! into a run: bit flips in trace-cache lines at fill or at lookup,
//! dropped or truncated fill-unit segments, fill-pipe stalls, and
//! corrupted post-optimization immediates. Plans are either written by
//! hand or generated from a seed with [`FaultPlan::generate`]
//! (SplitMix64), so the same seed always produces the same plan — and,
//! because the simulator is deterministic, the same run.
//!
//! The [`FaultInjector`] sits on the two boundaries where a real particle
//! strike or fill-unit bug would land: between the fill pipe and the
//! trace-cache write ([`FaultInjector::on_fill`]) and between the
//! trace-cache read and the fetch bundle
//! ([`FaultInjector::on_lookup`]). Corrupted segments keep their `orig`
//! instructions intact and carry an injected-fault note in their
//! [`Provenance`](tracefill_core::segment::Provenance), so the lockstep
//! oracle and the strict per-segment verifier can *detect* the corruption
//! and attribute it — which is exactly what a fault-injection campaign
//! measures: injected vs. detected vs. masked vs. silent.

use std::sync::Arc;
use tracefill_core::segment::{Line, SegEnd, Segment};
use tracefill_core::tcache::TcHit;
use tracefill_util::{Json, Registry, SplitMix64};

/// The kinds of fault the injector can introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of a stored immediate as the segment is written to
    /// the trace cache (a fill-path strike).
    BitFlipFill,
    /// Flip one bit of an immediate in the fetched copy of a line at
    /// lookup (a read-path strike; the cached line itself stays intact).
    BitFlipLookup,
    /// Drop a finalized segment on the floor (lost fill).
    DropSegment,
    /// Truncate a finalized segment to a prefix (partial fill).
    TruncateSegment,
    /// Hold a finalized segment in the fill pipe for extra cycles
    /// (fill-pipe stall).
    StallFill,
    /// Corrupt a post-optimization immediate, preferring a slot an
    /// optimization pass rewrote (targets the rewritten state the
    /// verifier must defend).
    CorruptImm,
}

impl FaultKind {
    /// Every kind, in a stable order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::BitFlipFill,
        FaultKind::BitFlipLookup,
        FaultKind::DropSegment,
        FaultKind::TruncateSegment,
        FaultKind::StallFill,
        FaultKind::CorruptImm,
    ];

    /// Stable name (metrics suffix / CLI token).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitFlipFill => "bitflip_fill",
            FaultKind::BitFlipLookup => "bitflip_lookup",
            FaultKind::DropSegment => "drop_segment",
            FaultKind::TruncateSegment => "truncate_segment",
            FaultKind::StallFill => "stall_fill",
            FaultKind::CorruptImm => "corrupt_imm",
        }
    }

    /// Parses a CLI token.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the fault fires on the fill side (vs. at lookup).
    pub fn is_fill_side(self) -> bool {
        !matches!(self, FaultKind::BitFlipLookup)
    }
}

/// One planned fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Which event of the kind's stream triggers it: the 0-based index of
    /// the fill event (segment leaving the fill pipe) for fill-side
    /// faults, or of the trace-cache hit for lookup faults.
    pub at_event: u64,
    /// Kind-specific payload: selects the slot/bit for flips, the cut
    /// point for truncation, the stall length for fill stalls.
    pub payload: u64,
}

/// A deterministic, explicit fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The faults, in no particular order (each names its own trigger).
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Generates `n` faults of the given `kinds` with trigger events drawn
    /// uniformly from `0..horizon`, deterministically from `seed`.
    ///
    /// Degenerate requests — `n == 0`, an empty `horizon`, or no `kinds`
    /// to draw from — yield an empty, well-formed plan (a clean run)
    /// rather than panicking.
    pub fn generate(seed: u64, n: usize, horizon: u64, kinds: &[FaultKind]) -> FaultPlan {
        if n == 0 || horizon == 0 || kinds.is_empty() {
            return FaultPlan {
                seed,
                faults: Vec::new(),
            };
        }
        let mut rng = SplitMix64::new(seed);
        let faults = (0..n)
            .map(|_| FaultSpec {
                kind: kinds[rng.range_u64(0, kinds.len() as u64) as usize],
                at_event: rng.range_u64(0, horizon),
                payload: rng.next_u64(),
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Serializes the plan (for reports and determinism checks).
    pub fn to_json(&self) -> Json {
        Json::object().with("seed", self.seed).with(
            "faults",
            Json::Arr(
                self.faults
                    .iter()
                    .map(|f| {
                        Json::object()
                            .with("kind", f.kind.name())
                            .with("at_event", f.at_event)
                            .with("payload", f.payload)
                    })
                    .collect(),
            ),
        )
    }
}

/// Runtime state of the injector for one simulation.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Fill events observed so far (segments leaving the fill pipe).
    fill_events: u64,
    /// Trace-cache hits observed so far.
    lookup_events: u64,
    /// Segments held back by a `StallFill` fault: `(release_cycle, seg)`.
    stalled: Vec<(u64, Line)>,
    /// Faults that actually fired.
    fired: u64,
    metrics: Registry,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            fill_events: 0,
            lookup_events: 0,
            stalled: Vec::new(),
            fired: 0,
            metrics: Registry::new(),
        }
    }

    /// Number of faults that actually fired (a plan whose trigger events
    /// lie past the end of the run fires nothing).
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Injection counters (`fault.injected`, `fault.injected.<kind>`).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn record(&mut self, kind: FaultKind) {
        self.fired += 1;
        self.metrics.inc("fault.injected");
        self.metrics.inc(&format!("fault.injected.{}", kind.name()));
    }

    /// Offers a line leaving the fill pipe at cycle `now`. Returns the
    /// line (its segment possibly corrupted) to insert into the trace
    /// cache, or `None` when the fault consumed it (drop) or delayed it
    /// (stall — poll [`release_stalled`](Self::release_stalled)).
    pub fn on_fill(&mut self, line: Line, now: u64) -> Option<Line> {
        let event = self.fill_events;
        self.fill_events += 1;
        let mut line = line;
        // Several faults may name the same event; apply them in plan order.
        for i in 0..self.plan.faults.len() {
            let f = self.plan.faults[i];
            if !f.kind.is_fill_side() || f.at_event != event {
                continue;
            }
            match f.kind {
                FaultKind::DropSegment => {
                    self.record(f.kind);
                    return None;
                }
                FaultKind::StallFill => {
                    self.record(f.kind);
                    let delay = 1 + f.payload % 256;
                    self.stalled.push((now + delay, line));
                    return None;
                }
                FaultKind::TruncateSegment => {
                    if line.slots.len() > 1 {
                        self.record(f.kind);
                        line.seg = Arc::new(truncate(&line, f.payload));
                    }
                }
                FaultKind::BitFlipFill => {
                    self.record(f.kind);
                    line.seg = Arc::new(flip_imm_bit(&line, f.payload, "bitflip_fill"));
                }
                FaultKind::CorruptImm => {
                    self.record(f.kind);
                    line.seg = Arc::new(corrupt_imm(&line, f.payload));
                }
                FaultKind::BitFlipLookup => unreachable!("lookup-side"),
            }
        }
        Some(line)
    }

    /// Returns every stalled line whose release cycle has arrived.
    pub fn release_stalled(&mut self, now: u64) -> Vec<Line> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.stalled.len() {
            if self.stalled[i].0 <= now {
                out.push(self.stalled.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        out
    }

    /// Observes a trace-cache hit; a `BitFlipLookup` fault scheduled for
    /// this hit corrupts the *fetched copy* of the line (the cached line
    /// is untouched, as a read-path strike would behave).
    pub fn on_lookup(&mut self, hit: TcHit, _now: u64) -> TcHit {
        let event = self.lookup_events;
        self.lookup_events += 1;
        let mut hit = hit;
        for i in 0..self.plan.faults.len() {
            let f = self.plan.faults[i];
            if f.kind != FaultKind::BitFlipLookup || f.at_event != event {
                continue;
            }
            self.record(f.kind);
            let seg = Arc::new(flip_imm_bit(&hit.seg, f.payload, "bitflip_lookup"));
            hit.seg = Arc::new(Line {
                seg,
                provenance: hit.seg.provenance,
            });
        }
        hit
    }
}

/// Flips one bit of one slot's *executed* immediate. `orig` stays intact,
/// so the oracle (and the strict verifier) can tell truth from corruption.
fn flip_imm_bit(seg: &Segment, payload: u64, label: &str) -> Segment {
    let mut seg = seg.clone();
    let slot = (payload as usize) % seg.slots.len();
    let bit = ((payload >> 8) % 16) as i32; // low half: keeps targets plausible
    seg.slots[slot].imm ^= 1 << bit;
    seg.fault = Some(format!("{label} slot={slot} bit={bit}"));
    seg
}

/// Corrupts a post-optimization immediate, preferring a slot a pass
/// rewrote (reassociated or scaled-add) so the fault lands on optimizer
/// output rather than raw decode state.
fn corrupt_imm(seg: &Segment, payload: u64) -> Segment {
    let mut seg = seg.clone();
    let transformed: Vec<usize> = seg
        .slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.reassociated || s.scadd.is_some())
        .map(|(i, _)| i)
        .collect();
    let slot = if transformed.is_empty() {
        (payload as usize) % seg.slots.len()
    } else {
        transformed[(payload as usize) % transformed.len()]
    };
    let delta = 4 + (payload >> 8) % 60; // always nonzero
    seg.slots[slot].imm = seg.slots[slot].imm.wrapping_add(delta as i32);
    seg.fault = Some(format!("corrupt_imm slot={slot} delta={delta}"));
    seg
}

/// Truncates a segment to a nonempty proper prefix, repairing the
/// invariants truncation disturbs (branch list, issue order, live-out
/// marking). A prefix of a real path is itself a real path, so this fault
/// is often *masked* — which is precisely what the SDC table reports.
fn truncate(seg: &Segment, payload: u64) -> Segment {
    let mut seg = seg.clone();
    let k = 1 + (payload as usize) % (seg.slots.len() - 1);
    seg.slots.truncate(k);
    seg.branches.retain(|b| (b.slot as usize) < k);
    seg.issue_pos = (0..k as u8).collect();
    seg.end = SegEnd::Flushed;
    // Recompute live-out marking for the shorter slot list.
    let mut seen = std::collections::HashSet::new();
    for slot in seg.slots.iter_mut().rev() {
        if let Some(d) = slot.dest {
            slot.live_out = seen.insert(d);
        }
    }
    seg.fault = Some(format!("truncate_segment keep={k}"));
    seg
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefill_core::builder::{build_segments, FillInput};
    use tracefill_core::config::FillConfig;
    use tracefill_core::segment::Provenance;
    use tracefill_core::tcache::PathMatch;
    use tracefill_isa::{ArchReg, Instr, Op};

    fn seg() -> Line {
        let r = ArchReg::gpr;
        let inputs: Vec<FillInput> = [
            Instr::alu_imm(Op::Addi, r(8), r(9), 4),
            Instr::branch(Op::Bne, r(8), r(0), 5),
            Instr::alu_imm(Op::Addi, r(10), r(8), 8),
            Instr::store(Op::Sw, r(10), r(29), -4),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, instr)| FillInput {
            pc: 0x40_0000 + 4 * i as u32,
            instr,
            taken: instr.op.is_cond_branch().then_some(false),
            promoted: None,
            fetch_miss_head: false,
        })
        .collect();
        Line {
            seg: Arc::new(
                build_segments(&inputs, &FillConfig::default())
                    .pop()
                    .unwrap(),
            ),
            provenance: Provenance {
                seg_id: 9,
                build_cycle: 4,
            },
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(42, 8, 1000, &FaultKind::ALL);
        let b = FaultPlan::generate(42, 8, 1000, &FaultKind::ALL);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 8);
        let c = FaultPlan::generate(43, 8, 1000, &FaultKind::ALL);
        assert_ne!(a, c);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
    }

    #[test]
    fn bitflip_marks_provenance_and_changes_only_executed_imm() {
        let s = seg();
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![FaultSpec {
                kind: FaultKind::BitFlipFill,
                at_event: 0,
                payload: 0x0102,
            }],
        });
        let out = inj.on_fill(s.clone(), 10).unwrap();
        assert_eq!(inj.fired(), 1);
        assert_eq!(out.provenance, s.provenance);
        assert!(out.fault.as_deref().unwrap().starts_with("bitflip_fill"));
        // Exactly one executed imm differs; every orig is untouched.
        let diffs = out
            .slots
            .iter()
            .zip(&s.slots)
            .filter(|(a, b)| a.imm != b.imm)
            .count();
        assert_eq!(diffs, 1);
        assert!(out
            .slots
            .iter()
            .zip(&s.slots)
            .all(|(a, b)| a.orig == b.orig));
        assert_eq!(inj.metrics().counter("fault.injected.bitflip_fill"), 1);
    }

    #[test]
    fn drop_and_stall_behave() {
        let s = seg();
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![
                FaultSpec {
                    kind: FaultKind::DropSegment,
                    at_event: 0,
                    payload: 0,
                },
                FaultSpec {
                    kind: FaultKind::StallFill,
                    at_event: 1,
                    payload: 9, // delay 10
                },
            ],
        });
        assert!(inj.on_fill(s.clone(), 100).is_none()); // dropped
        assert!(inj.on_fill(s.clone(), 100).is_none()); // stalled
        assert!(inj.release_stalled(105).is_empty());
        let released = inj.release_stalled(110);
        assert_eq!(released.len(), 1);
        assert!(released[0].fault.is_none(), "stall does not corrupt");
        assert!(inj.on_fill(s, 100).is_some()); // event 2: untouched
    }

    #[test]
    fn degenerate_plans_are_empty_and_well_formed() {
        for plan in [
            FaultPlan::generate(7, 0, 100, &[FaultKind::BitFlipFill]),
            FaultPlan::generate(7, 4, 0, &[FaultKind::BitFlipFill]),
            FaultPlan::generate(7, 4, 100, &[]),
        ] {
            assert_eq!(plan.seed, 7);
            assert!(plan.faults.is_empty());
            // Well-formed: serializes, and an injector built from it is a
            // clean no-op run.
            assert!(plan.to_json().dump().contains("\"faults\":[]"));
            let mut inj = FaultInjector::new(plan);
            assert!(inj.on_fill(seg(), 10).is_some());
            assert_eq!(inj.fired(), 0);
        }
    }

    #[test]
    fn truncation_preserves_invariants() {
        let s = seg();
        for payload in 0..8u64 {
            let t = truncate(&s, payload);
            assert!(t.slots.len() < s.slots.len());
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn lookup_flip_corrupts_the_copy_not_the_line() {
        let s = seg();
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![FaultSpec {
                kind: FaultKind::BitFlipLookup,
                at_event: 0,
                payload: 3,
            }],
        });
        let hit = TcHit {
            seg: Arc::new(s.clone()),
            path: PathMatch {
                matching_branches: 1,
                full: true,
            },
        };
        let out = inj.on_lookup(hit, 5);
        assert!(out.seg.fault.is_some());
        assert_eq!(out.seg.provenance, s.provenance);
        assert!(s.fault.is_none(), "cached line untouched");
    }
}
