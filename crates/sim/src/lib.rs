//! # tracefill-sim
//!
//! Cycle-level simulator of the trace-cache microprocessor evaluated in
//! *"Putting the Fill Unit to Work"* (MICRO-31, 1998):
//!
//! * 16-wide fetch from a 2K-entry, 4-way trace cache with a supporting
//!   4 KB instruction cache, 64 KB data cache and 1 MB unified L2;
//! * three-table multiple-branch predictor with branch promotion;
//! * **inactive issue**: every block of a fetched trace line issues; blocks
//!   past the predicted divergence issue inactively and are *activated* if
//!   the line's embedded path turns out correct;
//! * rename with **checkpoint repair** (up to 3 checkpoints/cycle) and
//!   **move elimination** for fill-unit-marked register moves;
//! * a clustered backend — 4 clusters × 4 universal FUs, 32-entry
//!   reservation stations, +1 cycle cross-cluster bypass;
//! * a conservative memory scheduler (no memory op bypasses a store with
//!   an unknown address) with store-to-load forwarding;
//! * full wrong-path execution with exact squash/recovery;
//! * **oracle lockstep**: every retirement is checked against the
//!   functional interpreter, so any timing-model bug that corrupts
//!   architectural state aborts the run loudly.
//!
//! The fill unit and trace cache come from [`tracefill_core`]; the four
//! dynamic optimizations are switched through
//! [`SimConfig::with_opts`].
//!
//! # Examples
//!
//! Measure the IPC gain of the full optimization set on a small kernel:
//!
//! ```
//! use tracefill_core::config::OptConfig;
//! use tracefill_isa::asm::assemble;
//! use tracefill_sim::{SimConfig, Simulator};
//!
//! let prog = assemble(r#"
//!         .text
//! main:   li   $t3, 2000
//!         la   $s0, arr
//! loop:   andi $t0, $t3, 63
//!         sll  $t1, $t0, 2         # scaled-add fodder
//!         add  $t2, $s0, $t1
//!         lw   $a0, 0($t2)
//!         addi $a0, $a0, 1
//!         sw   $a0, 0($t2)
//!         addi $t3, $t3, -1
//!         bgtz $t3, loop
//!         li   $v0, 10
//!         syscall
//!         .data
//! arr:    .space 256
//! "#)?;
//!
//! let mut base = Simulator::new(&prog, SimConfig::default());
//! base.run(1_000_000)?;
//! let mut opt = Simulator::new(&prog, SimConfig::with_opts(OptConfig::all()));
//! opt.run(1_000_000)?;
//! assert!(opt.stats().ipc() >= base.stats().ipc());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod cpi;
mod exec;
mod frontend;
pub mod inject;
mod issue;
pub mod machine;
mod observe;
pub mod oracle;
pub mod physreg;
mod recover;
pub mod repair;
mod retire;
mod sched;
pub mod stats;
pub mod tracelog;
pub mod uop;

pub use config::{RepairConfig, SimConfig};
pub use cpi::CpiStack;
pub use inject::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
pub use machine::{RunExit, SimError, Simulator};
pub use oracle::{DivergenceReport, RetireEcho, SegSource};
pub use repair::{RepairEvent, RepairReport};
pub use stats::{Report, Stats};
