//! Workload characterization: measure how transformable a program's
//! dynamic instruction stream actually is.
//!
//! The retire stream from a functional run is fed through the real fill
//! unit (segment construction + all four optimization passes), so the
//! reported densities are exactly what the simulator's fill unit would
//! apply — the realized counterpart of the paper's Table 2.

use tracefill_isa::interp::Interp;
use tracefill_isa::Program;

/// Realized dynamic characteristics of a program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Characteristics {
    /// Dynamic instructions measured.
    pub instrs: u64,
    /// Fraction flagged as register moves by the fill unit.
    pub moves: f64,
    /// Fraction rewritten by reassociation.
    pub reassoc: f64,
    /// Fraction converted to scaled adds.
    pub scadd: f64,
    /// Fraction of conditional branches in the stream.
    pub branches: f64,
    /// Fraction of loads in the stream.
    pub loads: f64,
    /// Fraction of stores in the stream.
    pub stores: f64,
}

impl Characteristics {
    /// Total transformed fraction (Table 2's "Total" column).
    pub fn total(&self) -> f64 {
        self.moves + self.reassoc + self.scadd
    }
}

/// Runs `program` functionally for up to `max_instrs` instructions and
/// measures realized fill-unit transformation densities, skipping a
/// 4000-instruction warmup so one-time data-initialization prologues do
/// not skew the steady-state densities.
///
/// # Panics
///
/// Panics if the program faults (the kernels in this crate never do).
pub fn characterize(program: &Program, max_instrs: u64) -> Characteristics {
    characterize_after(program, 4_000, max_instrs)
}

/// [`characterize`] with an explicit warmup prefix to skip.
///
/// # Panics
///
/// Panics if the program faults.
pub fn characterize_after(program: &Program, warmup: u64, max_instrs: u64) -> Characteristics {
    use tracefill_core::builder::{FillInput, SegmentBuilder};
    use tracefill_core::config::{ClusterConfig, FillConfig, OptConfig};
    use tracefill_core::opt;
    use tracefill_core::segment::SegEnd;

    let mut interp = Interp::new(program);
    let cfg = FillConfig::default();
    let opts = OptConfig::all();
    let clusters = ClusterConfig::default();
    let mut builder = SegmentBuilder::new();

    let mut instrs = 0u64;
    let mut branches = 0u64;
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut skipped = 0u64;
    let mut counts = opt::OptCounts::default();

    while instrs < max_instrs {
        let r = interp.step().expect("characterized program must not fault");
        if r.halt.is_some() {
            break;
        }
        if skipped < warmup {
            skipped += 1;
            continue;
        }
        instrs += 1;
        branches += r.instr.op.is_cond_branch() as u64;
        loads += r.instr.op.is_load() as u64;
        stores += r.instr.op.is_store() as u64;

        let input = FillInput {
            pc: r.pc,
            instr: r.instr,
            taken: r.taken,
            promoted: None,
            fetch_miss_head: false,
        };
        builder.offer(input, &cfg, |closed| {
            counts.add(opt::apply_all(&mut closed.to_segment(), &opts, &clusters));
        });
    }
    if let Some(mut seg) = builder.finalize(SegEnd::Flushed) {
        counts.add(opt::apply_all(&mut seg, &opts, &clusters));
    }

    let n = instrs.max(1) as f64;
    Characteristics {
        instrs,
        moves: counts.moves as f64 / n,
        reassoc: counts.reassoc as f64 / n,
        scadd: counts.scadd as f64 / n,
        branches: branches as f64 / n,
        loads: loads as f64 / n,
        stores: stores as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::suite;

    #[test]
    fn kernels_have_their_signature_densities() {
        let by = |name: &str| {
            let b = crate::suite::by_name(name).unwrap();
            let prog = b.program(b.scale_for(60_000)).unwrap();
            characterize(&prog, 60_000)
        };
        // m88ksim and chess lead on reassociation (paper: 12.9% / 10.4%).
        let m88k = by("m88k");
        let ch = by("ch");
        let tex = by("tex");
        let go = by("go");
        let plot = by("plot");
        assert!(
            m88k.reassoc > 0.02,
            "m88k reassoc {:.3} too low",
            m88k.reassoc
        );
        assert!(ch.reassoc > 0.02, "chess reassoc {:.3} too low", ch.reassoc);
        // go and tex lead on scaled adds (paper: 9.6% / 5.2%).
        assert!(go.scadd > 0.03, "go scadd {:.3} too low", go.scadd);
        assert!(tex.scadd > 0.02, "tex scadd {:.3} too low", tex.scadd);
        // gnuplot leads on moves (paper: 11.3%).
        assert!(plot.moves > 0.04, "plot moves {:.3} too low", plot.moves);
        // Ordering relations the paper reports.
        assert!(m88k.reassoc > go.reassoc);
        assert!(go.scadd > m88k.scadd);
        assert!(plot.moves > tex.moves);
    }

    #[test]
    fn every_kernel_transforms_something() {
        for b in suite() {
            let prog = b.program(b.scale_for(40_000)).unwrap();
            let c = characterize(&prog, 40_000);
            assert!(c.instrs > 5_000, "{}: only {} instrs", b.name, c.instrs);
            assert!(
                c.total() > 0.01,
                "{}: total transformed {:.4} too low",
                b.name,
                c.total()
            );
            // pgp's unrolled bignum rows are nearly branch-free.
            assert!(c.branches > 0.008, "{}: too few branches", b.name);
        }
    }
}
