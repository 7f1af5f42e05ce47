//! The observation stream: one typed [`Event`] per observable occurrence,
//! emitted once at the site where it happens, and the observers that
//! subscribe to it.
//!
//! | observer | consumes | cost when off | cost per event when on |
//! |---|---|---|---|
//! | [`TraceLog`] | every [`Event::Pipeline`] | one branch (`trace_depth` 0) | one ring-buffer push |
//! | [`Ledger`] | segment ids on fetch and retire, insert, squash, invalidate | one branch (`ledger` false) | one `Vec` index by seg id (an ordered-map lookup for an id far past the rest) |
//! | `sim.window_occupancy` | [`Event::Cycle`] | always on | one bucket scan |
//! | `sim.fetch_bundle` | fetch | always on | one bucket scan |
//! | `fault.detected.fill_verify` | [`Event::FaultDetected`] | always on | one add |
//!
//! Observers only record: nothing here feeds back into the machine, so
//! a run retires the same instructions in the same cycles whichever
//! observers are on. The metrics registry is not an observer; the report
//! builds it by folding in each observer's [`export`](Observers::export).

use crate::tracelog::{Event as Pipe, TraceLog};
use crate::SimConfig;
use tracefill_core::ledger::Ledger;
use tracefill_core::segment::Segment;
use tracefill_core::tcache::InsertOutcome;
use tracefill_util::{Histogram, Registry};

/// Bucket bounds for the per-cycle window-occupancy histogram.
const WINDOW_OCC_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Bucket bounds for the fetch-bundle-size histogram (instructions per
/// delivered bundle, up to the 16-wide fetch path).
const FETCH_BUNDLE_BOUNDS: &[u64] = &[1, 2, 4, 6, 8, 10, 12, 14, 16];

/// One observable occurrence.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<'a> {
    /// A pipeline transition (fetch, issue, execute, complete, retire,
    /// recover, activate, repair).
    Pipeline(Pipe),
    /// A cycle ended with `window` uops in the instruction window.
    Cycle { window: usize },
    /// A segment entered the trace cache, displacing what `outcome` names.
    Insert {
        seg: &'a Segment,
        outcome: &'a InsertOutcome,
    },
    /// A uop was squashed; `seg` is its trace-cache segment, if any.
    Squash { seg: Option<u64> },
    /// Self-repair invalidated segment `seg` out of the trace cache.
    Invalidate { seg: u64 },
    /// Strict verification at the cache boundary caught a segment that
    /// carried an injected fault; it never became cache state.
    FaultDetected,
}

/// Every observer of one simulator.
#[derive(Debug)]
pub(crate) struct Observers {
    pub(crate) trace: TraceLog,
    pub(crate) ledger: Ledger,
    window_occupancy: Histogram,
    fetch_bundle: Histogram,
    fill_verify_detected: u64,
}

impl Observers {
    /// The observers `cfg` switches on (trace log and ledger; the
    /// distributions are always on).
    pub(crate) fn new(cfg: &SimConfig) -> Observers {
        Observers {
            trace: TraceLog::new(cfg.trace_depth),
            ledger: Ledger::new(cfg.ledger),
            window_occupancy: Histogram::new(WINDOW_OCC_BOUNDS),
            fetch_bundle: Histogram::new(FETCH_BUNDLE_BOUNDS),
            fill_verify_detected: 0,
        }
    }

    /// Hands `event`, which happened at `cycle`, to every observer that
    /// consumes it.
    #[inline]
    pub(crate) fn emit(&mut self, cycle: u64, event: Event<'_>) {
        match event {
            Event::Pipeline(e) => {
                if let Pipe::Fetch { count, .. } = e {
                    self.fetch_bundle.observe(count.into());
                }
                self.trace.push(cycle, e);
            }
            Event::Cycle { window } => self.window_occupancy.observe(window as u64),
            Event::FaultDetected => self.fill_verify_detected += 1,
            _ => {}
        }
        if self.ledger.enabled() {
            let ledger = &mut self.ledger;
            match event {
                Event::Pipeline(Pipe::Fetch {
                    count,
                    seg: Some(seg),
                    ..
                }) => ledger.on_fetch(seg, count.into()),
                Event::Pipeline(Pipe::Retire { seg: Some(seg), .. }) => ledger.on_retire(seg),
                Event::Insert { seg, outcome } => ledger.on_insert(seg, outcome, cycle),
                Event::Squash { seg: Some(seg) } => ledger.on_squash(seg),
                Event::Invalidate { seg } => ledger.on_invalidate(seg, cycle),
                _ => {}
            }
        }
    }

    /// Folds every observer's metrics into `reg` (ledger summaries closed
    /// at cycle `now`). A distribution or counter that saw nothing, and a
    /// ledger that is off, add no key.
    pub(crate) fn export(&self, reg: &mut Registry, now: u64) {
        for (name, h) in [
            ("sim.window_occupancy", &self.window_occupancy),
            ("sim.fetch_bundle", &self.fetch_bundle),
        ] {
            if h.count() > 0 {
                reg.merge_histogram(name, h);
            }
        }
        if self.fill_verify_detected > 0 {
            reg.add("fault.detected.fill_verify", self.fill_verify_detected);
        }
        if self.ledger.enabled() {
            self.ledger.export_metrics(reg, now);
        }
    }
}
