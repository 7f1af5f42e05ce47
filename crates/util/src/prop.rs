//! A seeded property runner on the in-tree [`SplitMix64`].
//!
//! Property tests across the workspace draw their cases from this runner
//! instead of an external property-testing crate: each case gets its own
//! generator, seeded from the property's name and the case number, so a
//! run is deterministic and a failure names the one seed that replays it.
//!
//! ```
//! use tracefill_util::prop::{check, range};
//!
//! check("abs_is_non_negative", 64, |rng| {
//!     let x = range(rng, -1000, 1000);
//!     assert!(x.abs() >= 0);
//! });
//! ```

use crate::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `property` on `cases` generated cases, each drawn from its own
/// seeded generator. A failing case panics with its seed; replay it with
/// `property(&mut SplitMix64::new(seed))`.
///
/// # Panics
///
/// Panics, naming the property and the case seed, when a case panics.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut SplitMix64)) {
    for case in 0..cases {
        let seed = crate::fnv1a64(name.as_bytes()) ^ case;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_name() {
        let draw = |name: &str| {
            let seen = std::cell::RefCell::new(Vec::new());
            check(name, 8, |rng| seen.borrow_mut().push(rng.next_u64()));
            seen.into_inner()
        };
        assert_eq!(draw("a"), draw("a"));
        assert_ne!(draw("a"), draw("b"));
    }

    #[test]
    fn a_failing_case_names_its_seed() {
        let err = catch_unwind(|| check("fails", 4, |rng| assert!(rng.next_u64() == 0)))
            .expect_err("the property fails");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        let seed = crate::fnv1a64(b"fails");
        assert_eq!(msg, &format!("fails: case seed {seed:#018x} failed"));
    }

    #[test]
    fn range_stays_in_bounds() {
        check("range_bounds", 64, |rng| {
            let x = range(rng, -5, 7);
            assert!((-5..7).contains(&x));
        });
    }
}
