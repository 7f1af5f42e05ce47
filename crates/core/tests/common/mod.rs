//! A seeded property runner on the in-tree SplitMix64.

// Each test target uses a subset of these helpers.
#![allow(dead_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use tracefill_core::builder::FillInput;
use tracefill_isa::Instr;
use tracefill_util::SplitMix64;

/// Runs `property` on `cases` generated cases, each drawn from its own
/// seeded generator. A failing case panics with its seed; replay it with
/// `property(&mut SplitMix64::new(seed))`.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut SplitMix64)) {
    for case in 0..cases {
        let seed = tracefill_util::fnv1a64(name.as_bytes()) ^ case;
        if catch_unwind(AssertUnwindSafe(|| property(&mut SplitMix64::new(seed)))).is_err() {
            panic!("{name}: case seed {seed:#018x} failed");
        }
    }
}

/// A uniform value in `[lo, hi)`.
pub fn range(rng: &mut SplitMix64, lo: i32, hi: i32) -> i32 {
    lo + rng.range_u32(0, (hi - lo) as u32) as i32
}

/// A fair coin.
pub fn coin(rng: &mut SplitMix64) -> bool {
    rng.next_u64() & 1 == 1
}

/// A well-formed retire stream of `1..max_len` instructions drawn by
/// `instr`: sequential PCs, each conditional branch with a random
/// recorded direction.
pub fn stream(
    rng: &mut SplitMix64,
    max_len: usize,
    instr: impl Fn(&mut SplitMix64) -> Instr,
) -> Vec<FillInput> {
    let len = rng.range_u64(1, max_len as u64);
    (0..len)
        .map(|i| {
            let instr = instr(rng);
            FillInput {
                pc: 0x40_0000 + 4 * i as u32,
                instr,
                taken: instr.op.is_cond_branch().then(|| coin(rng)),
                promoted: None,
                fetch_miss_head: false,
            }
        })
        .collect()
}
