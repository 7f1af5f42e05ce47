//! Case generators shared by core's property tests (the runner itself is
//! `tracefill_util::prop`).

use tracefill_core::builder::FillInput;
use tracefill_isa::Instr;
use tracefill_util::prop::coin;
use tracefill_util::SplitMix64;

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
