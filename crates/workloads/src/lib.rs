//! # tracefill-workloads
//!
//! The paper's 15-benchmark suite (SPECint95 plus common UNIX
//! applications, Table 1) reproduced as hand-written SSA assembly kernels,
//! plus tooling:
//!
//! * [`mod@suite`] — the benchmarks, each annotated with the paper's Table 2
//!   transformation densities it targets;
//! * [`kernels`] — the kernels themselves, one module per benchmark;
//! * [`mod@characterize`] — measures *realized* transformation densities by
//!   feeding a functional run's retire stream through the real fill unit;
//! * [`gen`] — a parameterized pattern-mix generator for ablations.
//!
//! We cannot run 100M–500M-instruction SPEC binaries, so each kernel is a
//! small program presenting the same *pattern densities* that drive the
//! paper's effects: register-move idioms, cross-block immediate chains,
//! shift+add address arithmetic, and branch-bias structure. See DESIGN.md
//! at the workspace root for the substitution argument.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod characterize;
pub mod gen;
pub mod kernels;
pub mod suite;

pub use characterize::{characterize, Characteristics};
pub use suite::{by_name, names, paper_pass_gain, select, suite, Benchmark, Table2Row};
