//! Observation never perturbs simulation, suite-wide: on every suite
//! kernel, a run with every observer on matches a run with every
//! observer off. The full on/off matrix runs in `tracing.rs` (ijpeg with
//! every optimization off) and `repair.rs` (a generated program run to
//! its exit syscall); `ledger.rs` runs the ledger alone over the suite.

mod common;

use common::{ALL_OFF, ALL_ON};

#[test]
fn observation_never_perturbs_simulation() {
    let cases: Vec<_> = tracefill_workloads::names()
        .into_iter()
        .map(|b| common::suite_case(b, 4_000, vec![ALL_OFF, ALL_ON]))
        .collect();
    common::assert_observation_never_perturbs_simulation(&cases);
}
