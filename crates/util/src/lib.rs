//! # tracefill-util
//!
//! Small, dependency-free support code shared across the workspace so the
//! whole repository builds and tests **offline**:
//!
//! * [`json`] — a compact JSON value type with a deterministic writer and a
//!   recursive-descent parser, replacing `serde`/`serde_json` for report
//!   dumps and the campaign result store (JSONL rows);
//! * [`rng`] — a seeded SplitMix64 generator replacing `rand` for the
//!   pattern-mix workload generator and any test that needs controlled
//!   randomness;
//! * [`hash`] — FNV-1a 64-bit hashing, used for stable content-addressed
//!   run identifiers in `tracefill-harness`;
//! * [`metrics`] — counters, gauges and fixed-bucket mergeable histograms
//!   with deterministic JSON export, the substrate for fill-unit opt
//!   telemetry and harness aggregation;
//! * [`prop`] — a seeded property runner on SplitMix64, replacing
//!   `proptest` for the workspace's property tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
pub mod json;
pub mod metrics;
pub mod prop;
pub mod rng;

pub use hash::fnv1a64;
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use rng::SplitMix64;
