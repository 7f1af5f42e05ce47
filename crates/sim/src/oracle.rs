//! Structured divergence reports: the one shape every checker's finding
//! takes.
//!
//! Two checkers guard architectural equality. The lockstep oracle steps
//! the functional interpreter ([`tracefill_isa::interp::Interp`]) at
//! retirement and compares every retired instruction's PC, destination
//! write, memory effect and control flow with it; strict verification
//! rejects a segment the optimization passes broke before it reaches the
//! trace cache (kind `segment-verify`). Either way the finding is one
//! [`DivergenceReport`]: the site (cycle, retire sequence, PC, kind,
//! expected and observed effects), a ring of the last 16 retirements
//! ([`RetireEcho`]) and, when a trace segment is to blame, its provenance
//! ([`SegSource`]): fill-unit id, the passes that rewrote it and any
//! injected-fault note. The retire stage hands every report to one
//! decision point: without self-repair it becomes the fatal
//! [`SimError::Divergence`](crate::SimError::Divergence); with it, the
//! machine contains the divergence and keeps the report in a
//! [`RepairEvent`](crate::repair::RepairEvent).

use std::fmt;
pub use tracefill_core::segment::SegSource;
use tracefill_isa::Instr;
use tracefill_util::Json;

/// Depth of the recent-retirement ring a divergence report carries.
pub(crate) const RING_DEPTH: usize = 16;

/// One retired instruction echoed into the divergence ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetireEcho {
    /// Cycle of retirement.
    pub cycle: u64,
    /// Retire sequence number (0-based).
    pub seq: u64,
    /// PC.
    pub pc: u32,
    /// The architectural instruction.
    pub instr: Instr,
    /// Whether it was fetched from the trace cache.
    pub from_tc: bool,
    /// Fill-unit id of the originating segment, if fetched from the TC.
    pub seg_id: Option<u64>,
}

impl fmt::Display for RetireEcho {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>8} seq {:>8} {:#010x} `{}`",
            self.cycle, self.seq, self.pc, self.instr
        )?;
        match self.seg_id {
            Some(id) => write!(f, "  [tc seg#{id}]"),
            None if self.from_tc => write!(f, "  [tc]"),
            None => write!(f, "  [ic]"),
        }
    }
}

/// A structured lockstep-divergence report: everything needed to attribute
/// a wrong retirement to its cause without rerunning the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Cycle of the divergence.
    pub cycle: u64,
    /// Retire sequence number of the diverging instruction.
    pub seq: u64,
    /// PC at the divergence site.
    pub pc: u32,
    /// What diverged: `stream`, `register-effect`, `store-effect`,
    /// `branch-direction`, `indirect-target`, `syscall` or
    /// `segment-verify`.
    pub kind: &'static str,
    /// The oracle's expectation.
    pub expected: String,
    /// What the pipeline produced.
    pub actual: String,
    /// The last N retirements, oldest first (the diverging instruction is
    /// last when it got far enough to be echoed).
    pub recent: Vec<RetireEcho>,
    /// Provenance of the originating trace segment, when the diverging
    /// instruction was supplied by the trace cache.
    pub provenance: Option<SegSource>,
}

impl DivergenceReport {
    /// The site fields as JSON (every field but `recent`): the shared
    /// prefix of this report's and a repair event's serialization.
    pub(crate) fn site_json(&self) -> Json {
        let v = Json::object()
            .with("cycle", self.cycle)
            .with("seq", self.seq)
            .with("pc", u64::from(self.pc))
            .with("kind", self.kind)
            .with("expected", self.expected.as_str())
            .with("actual", self.actual.as_str());
        match &self.provenance {
            Some(p) => v.with("segment", p.to_json()),
            None => v,
        }
    }

    /// Serializes the report for machine consumption.
    pub fn to_json(&self) -> Json {
        self.site_json().with(
            "recent",
            Json::Arr(
                self.recent
                    .iter()
                    .map(|e| {
                        Json::object()
                            .with("cycle", e.cycle)
                            .with("seq", e.seq)
                            .with("pc", u64::from(e.pc))
                            .with("instr", e.instr.to_string())
                            .with("from_tc", e.from_tc)
                            .with("seg_id", e.seg_id.map(Json::from).unwrap_or(Json::Null))
                    })
                    .collect(),
            ),
        )
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lockstep divergence ({}) at cycle {}, seq {}, pc {:#010x}",
            self.kind, self.cycle, self.seq, self.pc
        )?;
        writeln!(f, "  expected: {}", self.expected)?;
        writeln!(f, "  actual:   {}", self.actual)?;
        match &self.provenance {
            Some(p) => writeln!(f, "  segment:  {p}")?,
            None => writeln!(f, "  segment:  (not a trace-cache fetch)")?,
        }
        if !self.recent.is_empty() {
            writeln!(f, "  last {} retirements:", self.recent.len())?;
            for e in &self.recent {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefill_isa::instr::NOP;

    fn sample() -> DivergenceReport {
        DivergenceReport {
            cycle: 123,
            seq: 45,
            pc: 0x40_0010,
            kind: "register-effect",
            expected: "$t0 = 0x5".to_string(),
            actual: "$t0 = 0x6".to_string(),
            recent: vec![RetireEcho {
                cycle: 122,
                seq: 44,
                pc: 0x40_000c,
                instr: NOP,
                from_tc: true,
                seg_id: Some(7),
            }],
            provenance: Some(SegSource {
                seg_id: 7,
                start_pc: 0x40_0000,
                len: 5,
                passes: vec!["moves", "reassoc"],
                fault: Some("corrupt-imm slot=2".to_string()),
            }),
        }
    }

    #[test]
    fn display_names_segment_and_fault() {
        let text = sample().to_string();
        assert!(text.contains("register-effect"), "{text}");
        assert!(text.contains("seg#7"), "{text}");
        assert!(text.contains("passes=[moves,reassoc]"), "{text}");
        assert!(text.contains("corrupt-imm"), "{text}");
        assert!(text.contains("last 1 retirements"), "{text}");
    }

    #[test]
    fn json_round_shape() {
        let v = sample().to_json();
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some("register-effect")
        );
        let seg = v.get("segment").expect("segment present");
        assert_eq!(seg.get("seg_id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            seg.get("passes").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            v.get("recent").and_then(Json::as_arr).map(|a| a.len()),
            Some(1)
        );
    }
}
