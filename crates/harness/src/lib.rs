//! # tracefill-harness
//!
//! The experiment-campaign engine. Every result in the paper is a *grid* —
//! {optimization set} × {fill latency} × {15 benchmarks} × {seeds} — and
//! this crate turns such grids into parallel, resumable, reproducible
//! sweeps:
//!
//! * [`grid`] — a campaign spec that expands into deterministic
//!   [`RunDescriptor`]s, each with a stable content-hash run id;
//! * [`runner`] — the one run path (warmup + measured window) under a
//!   cycle watchdog and a wall-clock watchdog, so one pathological
//!   configuration cannot hang a sweep;
//! * [`pool`] — a sharded worker pool (`--jobs N`) for campaigns and an
//!   order-preserving map for other sweeps, both isolating run panics;
//! * [`store`] — an append-only JSONL result store; each completed run is
//!   written atomically (one `write` per line) and restarting a campaign
//!   skips ids already on disk;
//! * [`report`] — arithmetic/geometric-mean IPC deltas, min/max, and
//!   the paper's Figures 3–8 and Table 2, reproduced from the JSONL
//!   alone;
//! * [`progress`] — a live `completed/total, runs/sec, ETA` line;
//! * [`adapt`] — static-vs-adaptive comparisons for the online pass
//!   controller (`tracefill adapt`), emitting a deterministic JSON report;
//! * [`faults`] — seeded fault sweeps (`tracefill inject`/`heal`) and the
//!   one [`Outcome`] taxonomy that sweeps and reports classify runs by.
//!
//! The engine is `std`-only: JSON and hashing come from
//! [`tracefill_util`], threading from the standard library.
//!
//! ```no_run
//! use tracefill_harness::{grid::CampaignSpec, pool, report, store::ResultStore};
//!
//! let spec = CampaignSpec::fig8();
//! let mut store = ResultStore::open("fig8.jsonl").unwrap();
//! pool::run_campaign(&spec, &mut store, 4, true).unwrap();
//! let records = store.load().unwrap();
//! println!("{}", report::fig8_table(&records));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapt;
pub mod faults;
pub mod grid;
pub mod pool;
pub mod progress;
pub mod report;
pub mod runner;
pub mod store;

pub use adapt::{run_adapt, AdaptSpec};
pub use faults::{FaultSweep, Outcome, Tally};
pub use grid::{CampaignSpec, OptPoint, RunDescriptor, SpecError};
pub use pool::{run_campaign, run_campaign_with, CampaignOptions, CampaignSummary};
pub use runner::{RepairSummary, RunRecord, RunStatus};
pub use store::ResultStore;
