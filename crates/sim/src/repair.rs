//! Self-repair reporting: what the machine recovered from, and how.
//!
//! When [`SimConfig::self_repair`](crate::SimConfig) is enabled, the retire
//! stage's one decision point contains every divergence instead of
//! aborting. A lockstep divergence is contained by squashing the machine,
//! restoring architectural state from the interpreter-verified retirement
//! point, invalidating the offending trace-cache segment and resuming
//! through the conventional fetch path; a segment strict verification
//! rejected never reached the cache, so charging the ladder is its whole
//! repair. Every containment is recorded as a [`RepairEvent`] holding the
//! [`DivergenceReport`] it contained, plus the repair actions taken; the
//! run's [`RepairReport`] adds the escalation ladder's final state.

use crate::oracle::DivergenceReport;
use std::fmt;
use tracefill_core::quarantine::Escalation;
use tracefill_util::Json;

/// One contained failure: the divergence and the repair actions taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairEvent {
    /// The divergence that was contained.
    pub site: DivergenceReport,
    /// Whether the offending segment was found (and removed) in the trace
    /// cache. False when it had already been evicted, when it never
    /// reached the cache, or when the divergence had no trace-cache
    /// provenance.
    pub invalidated: bool,
    /// Ladder transitions this offense triggered, in pass order.
    pub escalations: Vec<Escalation>,
}

impl RepairEvent {
    /// Serializes the event (deterministic field order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.site
            .site_json()
            .with("invalidated", self.invalidated)
            .with(
                "escalations",
                Json::Arr(self.escalations.iter().map(Escalation::to_json).collect()),
            )
    }
}

impl fmt::Display for RepairEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let site = &self.site;
        write!(
            f,
            "repaired {} at cycle {}, seq {}, pc {:#010x}",
            site.kind, site.cycle, site.seq, site.pc
        )?;
        if let Some(p) = &site.provenance {
            write!(f, " [{p}]")?;
        }
        for e in &self.escalations {
            match e {
                Escalation::Quarantined { pass, class } => {
                    write!(f, " quarantine({pass}/{class})")?;
                }
                Escalation::Disabled { pass } => write!(f, " disable({pass})")?,
            }
        }
        Ok(())
    }
}

/// The run's full self-repair record: every contained failure plus the
/// escalation ladder's final state.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Contained failures, in occurrence order.
    pub events: Vec<RepairEvent>,
    /// The ladder's final state (see
    /// [`Quarantine::to_json`](tracefill_core::Quarantine::to_json));
    /// `Json::Null` when self-repair was never armed.
    pub ladder: Json,
}

impl RepairReport {
    /// Total contained failures.
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.events.len() as u64
    }

    /// Serializes the report. Byte-deterministic for a fixed seed and
    /// fault plan: every field is derived from deterministic machine
    /// state, and map-backed sections iterate in key order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("repairs", self.repairs())
            .with(
                "events",
                Json::Arr(self.events.iter().map(RepairEvent::to_json).collect()),
            )
            .with("ladder", self.ladder.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SegSource;

    fn sample() -> RepairEvent {
        RepairEvent {
            site: DivergenceReport {
                cycle: 321,
                seq: 54,
                pc: 0x40_0020,
                kind: "register-effect",
                expected: "$t0 = 0x5".to_string(),
                actual: "$t0 = 0x6".to_string(),
                recent: Vec::new(),
                provenance: Some(SegSource {
                    seg_id: 9,
                    start_pc: 0x40_0000,
                    len: 4,
                    passes: vec!["scadd"],
                    fault: None,
                }),
            },
            invalidated: true,
            escalations: vec![Escalation::Quarantined {
                pass: "scadd",
                class: "loop",
            }],
        }
    }

    #[test]
    fn event_json_names_actions() {
        let text = sample().to_json().dump();
        assert!(text.contains("\"invalidated\":true"), "{text}");
        assert!(text.contains("\"action\":\"quarantine\""), "{text}");
        assert!(text.contains("\"seg_id\":9"), "{text}");
    }

    #[test]
    fn report_json_is_deterministic() {
        let r = RepairReport {
            events: vec![sample()],
            ladder: Json::Null,
        };
        assert_eq!(r.to_json().dump(), r.to_json().dump());
        assert!(r.to_json().dump().contains("\"repairs\":1"));
    }

    #[test]
    fn display_reads_like_a_log_line() {
        let text = sample().to_string();
        assert!(text.contains("repaired register-effect"), "{text}");
        assert!(text.contains("quarantine(scadd/loop)"), "{text}");
    }
}
