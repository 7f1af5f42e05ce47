//! The fill unit's dynamic trace optimizations (paper §4).
//!
//! Each pass rewrites a finalized [`Segment`] in
//! place and reports how many instructions it transformed. Passes run in a
//! fixed order — moves, reassociation, scaled adds, placement — so the
//! later passes see through the earlier rewrites (e.g. scaled-add creation
//! sees the dependency graph after move bypassing).
//!
//! Every pass preserves *dataflow equivalence*: the optimized segment
//! computes exactly the same architectural values, branch outcomes and
//! memory effects as the original instruction sequence. [`verify`] checks
//! this property by concrete evaluation and is used heavily in tests.

pub mod cse;
pub mod moves;
pub mod placement;
pub mod reassoc;
pub mod scadd;
pub mod verify;

use crate::config::{ClusterConfig, OptConfig};
use crate::segment::Segment;
use tracefill_util::Registry;

/// How many instructions each pass transformed in one segment (or, summed,
/// over a whole run — this is the numerator of Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptCounts {
    /// Register moves marked (§4.2).
    pub moves: u64,
    /// Immediates combined (§4.3).
    pub reassoc: u64,
    /// Scaled adds created (§4.4).
    pub scadd: u64,
    /// Segments whose issue order was permuted (§4.5).
    pub placed_segments: u64,
    /// Duplicate computations eliminated (extension; paper §5).
    pub cse: u64,
}

impl OptCounts {
    /// Element-wise accumulation.
    pub fn add(&mut self, other: OptCounts) {
        self.moves += other.moves;
        self.reassoc += other.reassoc;
        self.scadd += other.scadd;
        self.placed_segments += other.placed_segments;
        self.cse += other.cse;
    }

    /// Total transformed instructions (placement is not an instruction
    /// rewrite and is excluded, matching Table 2).
    pub fn transformed_instrs(&self) -> u64 {
        self.moves + self.reassoc + self.scadd + self.cse
    }
}

/// Runs the enabled passes over a segment.
pub fn apply_all(seg: &mut Segment, opts: &OptConfig, clusters: &ClusterConfig) -> OptCounts {
    apply_all_telemetry(seg, opts, clusters, &mut Registry::new())
}

/// [`apply_all`] with per-pass accept/reject-reason telemetry accumulated
/// into `telemetry` (counter names `fill.<pass>.accept` and
/// `fill.<pass>.reject.<reason>`; see each pass's `apply_counted`).
pub fn apply_all_telemetry(
    seg: &mut Segment,
    opts: &OptConfig,
    clusters: &ClusterConfig,
    telemetry: &mut Registry,
) -> OptCounts {
    let mut counts = OptCounts::default();
    if opts.moves {
        counts.moves = moves::apply_counted(seg, telemetry);
    }
    if opts.cse {
        counts.cse = cse::apply_counted(seg, telemetry);
    }
    if opts.reassoc {
        counts.reassoc = reassoc::apply_counted(seg, opts.reassoc_cross_block_only, telemetry);
    }
    if opts.scadd {
        counts.scadd = scadd::apply_counted(seg, opts.scadd_max_shift, telemetry);
    }
    if opts.placement {
        placement::apply_counted(seg, clusters, telemetry);
        counts.placed_segments = 1;
    }
    seg.opt_counts = counts;
    debug_assert_eq!(seg.check_invariants(), Ok(()));
    debug_assert_eq!(verify::equivalent(seg, 0xfeed_f00d), Ok(()));
    counts
}

/// Always-on (release-mode) per-segment verification: structural
/// invariants plus dataflow equivalence by concrete evaluation. This is
/// the `debug_assert` pair above promoted to a callable check, used when
/// [`FillConfig::strict_verify`](crate::config::FillConfig::strict_verify)
/// is set (the default in oracle runs).
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn strict_check(seg: &Segment) -> Result<(), String> {
    seg.check_invariants()
        .map_err(|e| format!("invariant violation: {e}"))?;
    verify::equivalent(seg, 0xfeed_f00d).map_err(|e| format!("equivalence violation: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::simple_segment;

    #[test]
    fn all_passes_keep_equivalence_on_sample() {
        let mut seg = simple_segment();
        let counts = apply_all(&mut seg, &OptConfig::all(), &ClusterConfig::default());
        // The sample stream contains a reassociable pair (slots 0 and 5,
        // different blocks) and a scaled-add pair (slots 1 and 2).
        assert_eq!(counts.reassoc, 1);
        assert_eq!(counts.scadd, 1);
        verify::equivalent(&seg, 42).unwrap();
        seg.check_invariants().unwrap();
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let mut seg = simple_segment();
        let orig = seg.clone();
        let counts = apply_all(&mut seg, &OptConfig::none(), &ClusterConfig::default());
        assert_eq!(counts, OptCounts::default());
        assert_eq!(seg, orig);
    }
}
