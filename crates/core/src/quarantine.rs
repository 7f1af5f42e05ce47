//! Pass quarantine: the self-repair escalation ladder's memory.
//!
//! When the machine repairs a divergence (or a strict-verify failure at
//! the fill boundary), the offense is charged to every optimization pass
//! that touched the offending segment, keyed by the segment's
//! **provenance class** — the fill unit's termination reason
//! (`SegEnd::name()`): loop bodies, branch-limited traces, fetch-aligned
//! segments and so on behave differently under each pass, so repair is
//! surgical rather than machine-wide.
//!
//! The ladder has three rungs:
//!
//! 1. **first offense** — the caller invalidates the offending segment
//!    (nothing recorded here beyond the count);
//! 2. **`quarantine_after` offenses** of one `(pass, class)` pair — the
//!    pass is quarantined *for that class*: future segments of the class
//!    are built without it;
//! 3. **`disable_after` total offenses** of one pass across all classes —
//!    the pass is disabled machine-wide for the rest of the run (graceful
//!    degradation toward the unoptimized baseline, never a crash).
//!
//! All state lives in `BTreeMap`s keyed by `'static` pass/class names, so
//! iteration order — and therefore every report built from it — is
//! deterministic.

use std::collections::{BTreeMap, BTreeSet};
use tracefill_policy::PassMask;
use tracefill_util::Json;

/// Escalation thresholds of the repair ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Offenses of one `(pass, provenance class)` pair before the pass is
    /// quarantined for that class (the ladder's `K`). Clamped to ≥ 1.
    pub quarantine_after: u64,
    /// Total offenses of one pass, across all classes, before it is
    /// disabled machine-wide (the ladder's `M`). Clamped to ≥ 1.
    pub disable_after: u64,
}

impl Default for QuarantineConfig {
    fn default() -> QuarantineConfig {
        QuarantineConfig {
            quarantine_after: 2,
            disable_after: 4,
        }
    }
}

/// One ladder transition, emitted by [`Quarantine::record_offense`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// A pass crossed `quarantine_after` offenses for one class.
    Quarantined {
        /// The pass name (a `PassMask` token).
        pass: &'static str,
        /// The provenance class (a `SegEnd::name()`).
        class: &'static str,
    },
    /// A pass crossed `disable_after` total offenses.
    Disabled {
        /// The pass name (a `PassMask` token).
        pass: &'static str,
    },
}

impl Escalation {
    /// Deterministic JSON for repair reports.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Escalation::Quarantined { pass, class } => Json::object()
                .with("action", "quarantine")
                .with("pass", *pass)
                .with("class", *class),
            Escalation::Disabled { pass } => {
                Json::object().with("action", "disable").with("pass", *pass)
            }
        }
    }
}

/// Deterministic per-(pass, provenance-class) offender counters with the
/// escalation ladder described in the module docs.
#[derive(Debug, Clone)]
pub struct Quarantine {
    cfg: QuarantineConfig,
    /// Offenses per `(pass, class)`.
    counts: BTreeMap<(&'static str, &'static str), u64>,
    /// Offenses per pass, across classes.
    totals: BTreeMap<&'static str, u64>,
    /// `(pass, class)` pairs on rung 2.
    quarantined: BTreeSet<(&'static str, &'static str)>,
    /// Passes on rung 3.
    disabled: PassMask,
}

impl Quarantine {
    /// An empty ladder.
    #[must_use]
    pub fn new(cfg: QuarantineConfig) -> Quarantine {
        Quarantine {
            cfg: QuarantineConfig {
                quarantine_after: cfg.quarantine_after.max(1),
                disable_after: cfg.disable_after.max(1),
            },
            counts: BTreeMap::new(),
            totals: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            disabled: PassMask::NONE,
        }
    }

    /// Charges one offense to every pass in `passes` (the offending
    /// segment's applied passes) under provenance class `class`, and
    /// returns the ladder transitions this offense triggered, in
    /// pass order.
    pub fn record_offense(
        &mut self,
        passes: &[&'static str],
        class: &'static str,
    ) -> Vec<Escalation> {
        let mut out = Vec::new();
        for &pass in passes {
            let count = self.counts.entry((pass, class)).or_insert(0);
            *count += 1;
            if *count >= self.cfg.quarantine_after && self.quarantined.insert((pass, class)) {
                out.push(Escalation::Quarantined { pass, class });
            }
            let total = self.totals.entry(pass).or_insert(0);
            *total += 1;
            let bit = PassMask::from_token(pass);
            if *total >= self.cfg.disable_after && !self.disabled.contains(bit) && !bit.is_empty() {
                self.disabled = self.disabled.union(bit);
                out.push(Escalation::Disabled { pass });
            }
        }
        out
    }

    /// The passes a segment of provenance class `class` must be built
    /// without: the machine-wide disabled set plus every pass quarantined
    /// for this class.
    #[must_use]
    pub fn blocked_for(&self, class: &str) -> PassMask {
        let mut m = self.disabled;
        for &(pass, c) in &self.quarantined {
            if c == class {
                m = m.union(PassMask::from_token(pass));
            }
        }
        m
    }

    /// The machine-wide disabled set (rung 3).
    #[must_use]
    pub fn disabled(&self) -> PassMask {
        self.disabled
    }

    /// Total offenses recorded (over all passes and classes).
    #[must_use]
    pub fn offenses(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Whether any rung of the ladder is active (anything blocked
    /// anywhere). When false, [`blocked_for`](Self::blocked_for) is empty
    /// for every class and callers can skip gating entirely.
    #[must_use]
    pub fn any_blocked(&self) -> bool {
        !self.quarantined.is_empty() || !self.disabled.is_empty()
    }

    /// The ladder state as deterministic JSON: per-(pass, class) offense
    /// counts, the quarantined pairs, and the disabled set.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut offenses = Json::object();
        for (&(pass, class), &n) in &self.counts {
            offenses = offenses.with(&format!("{pass}/{class}"), n);
        }
        let quarantined: Vec<Json> = self
            .quarantined
            .iter()
            .map(|&(pass, class)| Json::object().with("pass", pass).with("class", class))
            .collect();
        Json::object()
            .with("offenses", offenses)
            .with("quarantined", Json::Arr(quarantined))
            .with("disabled", self.disabled.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(k: u64, m: u64) -> Quarantine {
        Quarantine::new(QuarantineConfig {
            quarantine_after: k,
            disable_after: m,
        })
    }

    #[test]
    fn first_offense_triggers_no_escalation() {
        let mut q = q(2, 4);
        assert!(q.record_offense(&["moves"], "loop").is_empty());
        assert_eq!(q.offenses(), 1);
        assert!(!q.any_blocked());
        assert!(q.blocked_for("loop").is_empty());
    }

    #[test]
    fn k_offenses_quarantine_the_pass_for_the_class_only() {
        let mut q = q(2, 10);
        assert!(q.record_offense(&["scadd"], "loop").is_empty());
        let esc = q.record_offense(&["scadd"], "loop");
        assert_eq!(
            esc,
            vec![Escalation::Quarantined {
                pass: "scadd",
                class: "loop"
            }]
        );
        assert!(q.blocked_for("loop").contains(PassMask::SCADD));
        assert!(q.blocked_for("full").is_empty(), "other classes unaffected");
        assert!(q.disabled().is_empty());
        // Repeat offenses do not re-announce the same rung.
        assert!(q.record_offense(&["scadd"], "loop").is_empty());
    }

    #[test]
    fn m_total_offenses_disable_machine_wide() {
        let mut q = q(100, 3);
        q.record_offense(&["reassoc"], "loop");
        q.record_offense(&["reassoc"], "full");
        let esc = q.record_offense(&["reassoc"], "branch_limit");
        assert_eq!(esc, vec![Escalation::Disabled { pass: "reassoc" }]);
        assert!(q.disabled().contains(PassMask::REASSOC));
        // Machine-wide: blocked for every class, seen or not.
        assert!(q.blocked_for("indirect").contains(PassMask::REASSOC));
    }

    #[test]
    fn multi_pass_segments_charge_every_pass() {
        let mut q = q(1, 2);
        let esc = q.record_offense(&["moves", "scadd"], "full");
        assert_eq!(esc.len(), 2, "K=1 quarantines both on first offense");
        let esc = q.record_offense(&["moves"], "loop");
        assert!(
            esc.contains(&Escalation::Disabled { pass: "moves" }),
            "{esc:?}"
        );
        assert_eq!(q.blocked_for("loop"), PassMask::MOVES);
        assert!(q.blocked_for("full").contains(PassMask::SCADD));
    }

    #[test]
    fn json_is_deterministic_and_shaped() {
        let mut a = q(2, 4);
        let mut b = q(2, 4);
        for q in [&mut a, &mut b] {
            q.record_offense(&["scadd", "moves"], "loop");
            q.record_offense(&["scadd"], "loop");
        }
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        let text = a.to_json().dump();
        assert!(text.contains("\"scadd/loop\":2"), "{text}");
        assert!(text.contains("\"quarantined\""), "{text}");
        assert!(text.contains("\"disabled\":\"none\""), "{text}");
    }

    #[test]
    fn unknown_pass_tokens_never_poison_the_mask() {
        let mut q = q(1, 1);
        let esc = q.record_offense(&["nonesuch"], "loop");
        // Quarantine rung still fires (it is name-keyed)…
        assert_eq!(esc.len(), 1);
        // …but the mask stays empty: an unknown token cannot disable
        // real passes.
        assert!(q.blocked_for("loop").is_empty());
        assert!(q.disabled().is_empty());
    }
}
