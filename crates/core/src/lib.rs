//! # tracefill-core
//!
//! The primary contribution of *"Putting the Fill Unit to Work: Dynamic
//! Optimizations for Trace Cache Microprocessors"* (Friendly, Patel &
//! Patt, MICRO-31, 1998), implemented as a library:
//!
//! * [`segment`] — trace segments with **explicit dependency marking**
//!   (live-in vs. internal sources, block numbering, live-out flags);
//! * [`builder`] — segment construction from the retire stream, with the
//!   paper's termination rules and trace packing;
//! * [`opt`] — the four dynamic trace optimizations:
//!   [`opt::moves`] (§4.2), [`opt::reassoc`] (§4.3), [`opt::scadd`] (§4.4)
//!   and [`opt::placement`] (§4.5), plus [`opt::verify`], a concrete
//!   dataflow-equivalence checker every rewrite must pass;
//! * [`fill`] — the fill unit proper, with its configurable-latency fill
//!   pipeline;
//! * [`tcache`] — the 2K-entry, 4-way, path-associative trace cache;
//! * [`config`] — all knobs, with the paper's parameters as defaults.
//!
//! The `tracefill-sim` crate wires these into a cycle-level out-of-order
//! pipeline; this crate is independently usable (and tested) at the
//! segment level.
//!
//! # Examples
//!
//! Build a segment from a retire stream and optimize it:
//!
//! ```
//! use tracefill_core::builder::{build_segments, FillInput};
//! use tracefill_core::config::{ClusterConfig, FillConfig, OptConfig};
//! use tracefill_core::opt;
//! use tracefill_isa::{ArchReg, Instr, Op};
//!
//! let t = |n| ArchReg::gpr(n);
//! let stream: Vec<FillInput> = [
//!     Instr::alu_imm(Op::Sll, t(8), t(9), 2),   // index << 2
//!     Instr::alu(Op::Add, t(10), t(8), t(11)),  // base + scaled index
//!     Instr::load(Op::Lw, t(12), t(10), 0),
//! ]
//! .into_iter()
//! .enumerate()
//! .map(|(i, instr)| FillInput { pc: 0x40_0000 + 4 * i as u32, instr, taken: None, promoted: None, fetch_miss_head: false })
//! .collect();
//!
//! let mut seg = build_segments(&stream, &FillConfig::default()).pop().unwrap();
//! let counts = opt::apply_all(
//!     &mut seg,
//!     &OptConfig::all(),
//!     &ClusterConfig::default(),
//! );
//! assert_eq!(counts.scadd, 1); // the add became a scaled add
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod config;
pub mod fill;
pub mod ledger;
pub mod opt;
pub mod quarantine;
pub mod segment;
pub mod tcache;

pub use config::{FillConfig, OptConfig, TraceCacheConfig};
pub use fill::{FillUnit, VerifyFailure};
pub use ledger::{EvictCause, Ledger, SegRecord, SegSpan};
pub use quarantine::{Escalation, Quarantine, QuarantineConfig};
pub use segment::{Line, Provenance, SegSlot, SegSource, Segment, SrcRef};
pub use tcache::{InsertOutcome, TraceCache};
