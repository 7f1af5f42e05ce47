//! The benchmark suite: Table 1 of the paper, as runnable programs.

use crate::kernels;
use tracefill_isa::asm::{assemble, AsmError};
use tracefill_isa::Program;

/// Table 2 of the paper: percentage of correct-path instructions each
/// transformation was applied to, per benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Register moves (%).
    pub moves: f64,
    /// Reassociation (%).
    pub reassoc: f64,
    /// Scaled adds (%).
    pub scadd: f64,
    /// Total (%).
    pub total: f64,
}

/// The paper's IPC gain (%) of the pass `pass` alone on the benchmark
/// `bench` (Figures 3–6), or `None` for another pass. The text quotes
/// only a few benchmarks per figure; every other one reads the figure's
/// mean.
#[must_use]
pub fn paper_pass_gain(pass: &str, bench: &str) -> Option<f64> {
    Some(match (pass, bench) {
        ("moves", _) => 5.0,
        ("reassoc", "m88k" | "ch") => 23.0,
        ("reassoc", "ijpeg") => 6.0,
        ("reassoc", "gs") => 8.0,
        ("reassoc", _) => 1.5,
        ("scadd", "go" | "tex") => 8.0,
        ("scadd", "li" | "vor" | "pgp" | "plot") => 1.0,
        ("scadd", _) => 3.7,
        ("placement", "ijpeg") => 11.0,
        ("placement", "tex") => 1.0,
        ("placement", _) => 5.0,
        _ => return None,
    })
}

/// One benchmark of the suite.
#[derive(Clone)]
pub struct Benchmark {
    /// Short name used in the paper's figures (e.g. `"m88k"`).
    pub name: &'static str,
    /// Full benchmark name (Table 1).
    pub full_name: &'static str,
    /// What the original program does and what the kernel mimics.
    pub description: &'static str,
    /// Input set quoted in Table 1 (documentation only).
    pub paper_input: &'static str,
    /// Instructions simulated in the paper (Table 1, documentation only).
    pub paper_icount: &'static str,
    /// The paper's Table 2 row for this benchmark.
    pub table2: Table2Row,
    /// Rough dynamic instructions per unit of `scale` (for sizing runs).
    pub instrs_per_scale: u32,
    source_fn: fn(u32) -> String,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("full_name", &self.full_name)
            .finish_non_exhaustive()
    }
}

impl Benchmark {
    /// The kernel's assembly source at the given scale (outer iterations).
    pub fn source(&self, scale: u32) -> String {
        (self.source_fn)(scale)
    }

    /// Assembles the kernel at the given scale.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors (which would be a bug in the kernel).
    pub fn program(&self, scale: u32) -> Result<Program, AsmError> {
        assemble(&self.source(scale))
    }

    /// A scale that comfortably exceeds `instrs` dynamic instructions, for
    /// harnesses that stop on an instruction budget.
    pub fn scale_for(&self, instrs: u64) -> u32 {
        let per = self.instrs_per_scale.max(1) as u64;
        (instrs / per + 2).min(u32::MAX as u64) as u32 * 2
    }
}

/// The full 15-benchmark suite, in the paper's Table 1/figure order.
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "comp",
            full_name: "compress",
            description: "LZW-style hashing over a byte stream",
            paper_input: "modified test.in (30000 elements)",
            paper_icount: "95M",
            table2: Table2Row {
                moves: 3.0,
                reassoc: 1.5,
                scadd: 3.8,
                total: 8.3,
            },
            instrs_per_scale: 16_500,
            source_fn: kernels::compress::source,
        },
        Benchmark {
            name: "gcc",
            full_name: "gcc",
            description: "symbol-table / expression-tree manipulation",
            paper_input: "jump.i",
            paper_icount: "157M",
            table2: Table2Row {
                moves: 6.4,
                reassoc: 2.2,
                scadd: 3.1,
                total: 11.7,
            },
            instrs_per_scale: 11900,
            source_fn: kernels::gcc::source,
        },
        Benchmark {
            name: "go",
            full_name: "go",
            description: "board-position evaluation on a 19x19 grid",
            paper_input: "2stone9.in",
            paper_icount: "151M",
            table2: Table2Row {
                moves: 2.5,
                reassoc: 0.7,
                scadd: 9.6,
                total: 12.8,
            },
            instrs_per_scale: 6600,
            source_fn: kernels::go::source,
        },
        Benchmark {
            name: "ijpeg",
            full_name: "ijpeg",
            description: "8x8 block transform and quantization",
            paper_input: "penguin.ppm",
            paper_icount: "500M",
            table2: Table2Row {
                moves: 4.6,
                reassoc: 2.1,
                scadd: 5.9,
                total: 12.6,
            },
            instrs_per_scale: 17100,
            source_fn: kernels::ijpeg::source,
        },
        Benchmark {
            name: "li",
            full_name: "li",
            description: "Lisp-style cons-cell list processing",
            paper_input: "train.lsp",
            paper_icount: "500M",
            table2: Table2Row {
                moves: 8.0,
                reassoc: 2.1,
                scadd: 1.3,
                total: 11.4,
            },
            instrs_per_scale: 2790,
            source_fn: kernels::li::source,
        },
        Benchmark {
            name: "m88k",
            full_name: "m88ksim",
            description: "instruction-set simulator of a toy ISA",
            paper_input: "dhry.test",
            paper_icount: "493M",
            table2: Table2Row {
                moves: 8.2,
                reassoc: 12.9,
                scadd: 1.2,
                total: 22.3,
            },
            instrs_per_scale: 1_600,
            source_fn: kernels::m88ksim::source,
        },
        Benchmark {
            name: "perl",
            full_name: "perl",
            description: "string hashing and associative-array probing",
            paper_input: "scrabbl.pl",
            paper_icount: "41M",
            table2: Table2Row {
                moves: 6.3,
                reassoc: 1.1,
                scadd: 3.3,
                total: 10.7,
            },
            instrs_per_scale: 1670,
            source_fn: kernels::perl::source,
        },
        Benchmark {
            name: "vor",
            full_name: "vortex",
            description: "object-database transaction processing",
            paper_input: "vortex.in",
            paper_icount: "214M",
            table2: Table2Row {
                moves: 9.4,
                reassoc: 3.9,
                scadd: 1.9,
                total: 15.2,
            },
            instrs_per_scale: 1_500,
            source_fn: kernels::vortex::source,
        },
        Benchmark {
            name: "ch",
            full_name: "gnuchess",
            description: "sliding-piece move generation (0x88 board)",
            paper_input: "(common UNIX application)",
            paper_icount: "119M",
            table2: Table2Row {
                moves: 3.4,
                reassoc: 10.4,
                scadd: 5.7,
                total: 19.5,
            },
            instrs_per_scale: 4_200,
            source_fn: kernels::chess::source,
        },
        Benchmark {
            name: "gs",
            full_name: "ghostscript",
            description: "fixed-point line rasterization",
            paper_input: "(common UNIX application)",
            paper_icount: "180M",
            table2: Table2Row {
                moves: 4.6,
                reassoc: 7.9,
                scadd: 1.9,
                total: 14.4,
            },
            instrs_per_scale: 10_000,
            source_fn: kernels::ghostscript::source,
        },
        Benchmark {
            name: "pgp",
            full_name: "pgp",
            description: "multi-precision (bignum) multiplication",
            paper_input: "(common UNIX application)",
            paper_icount: "322M",
            table2: Table2Row {
                moves: 7.9,
                reassoc: 4.0,
                scadd: 1.0,
                total: 12.9,
            },
            instrs_per_scale: 870,
            source_fn: kernels::pgp::source,
        },
        Benchmark {
            name: "plot",
            full_name: "gnuplot",
            description: "coordinate-transform and clipping pipeline",
            paper_input: "(common UNIX application)",
            paper_icount: "284M",
            table2: Table2Row {
                moves: 11.3,
                reassoc: 1.4,
                scadd: 2.3,
                total: 15.0,
            },
            instrs_per_scale: 2_300,
            source_fn: kernels::gnuplot::source,
        },
        Benchmark {
            name: "py",
            full_name: "python",
            description: "stack-based bytecode interpreter",
            paper_input: "(common UNIX application)",
            paper_icount: "220M",
            table2: Table2Row {
                moves: 6.3,
                reassoc: 2.8,
                scadd: 2.8,
                total: 11.9,
            },
            instrs_per_scale: 900,
            source_fn: kernels::python::source,
        },
        Benchmark {
            name: "ss",
            full_name: "sim-outorder",
            description: "event-driven simulator (queues, bit fields)",
            paper_input: "(common UNIX application)",
            paper_icount: "100M",
            table2: Table2Row {
                moves: 4.9,
                reassoc: 1.1,
                scadd: 3.1,
                total: 9.1,
            },
            instrs_per_scale: 1450,
            source_fn: kernels::simoutorder::source,
        },
        Benchmark {
            name: "tex",
            full_name: "tex",
            description: "dynamic-programming paragraph line breaking",
            paper_input: "(common UNIX application)",
            paper_icount: "164M",
            table2: Table2Row {
                moves: 3.1,
                reassoc: 0.6,
                scadd: 5.2,
                total: 8.9,
            },
            instrs_per_scale: 3260,
            source_fn: kernels::tex::source,
        },
    ]
}

/// Looks a benchmark up by its short or full name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    suite()
        .into_iter()
        .find(|b| b.name == name || b.full_name == name)
}

/// The suite's short names, in Table 1 / figure order. This is the
/// canonical enumeration campaign harnesses expand `"all"` against and the
/// order report tables sort their rows by.
#[must_use]
pub fn names() -> Vec<&'static str> {
    suite().iter().map(|b| b.name).collect()
}

/// Resolves a benchmark *selection spec* into concrete short names.
///
/// `"all"` expands to the full suite; anything else must match a short or
/// full benchmark name (full names are canonicalized to short ones).
///
/// # Errors
///
/// An explanatory message naming the offending token and listing the
/// available benchmarks.
pub fn select(specs: &[impl AsRef<str>]) -> Result<Vec<&'static str>, String> {
    let mut out = Vec::new();
    for spec in specs {
        let spec = spec.as_ref();
        if spec == "all" {
            out.extend(names());
        } else if let Some(b) = suite()
            .iter()
            .find(|b| b.name == spec || b.full_name == spec)
        {
            out.push(b.name);
        } else {
            return Err(format!(
                "unknown benchmark `{spec}` (expected `all` or one of: {})",
                names().join(", ")
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fifteen_rows_like_table_1() {
        assert_eq!(suite().len(), 15);
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for b in suite() {
            assert!(seen.insert(b.name), "duplicate {}", b.name);
        }
    }

    #[test]
    fn every_kernel_assembles() {
        for b in suite() {
            b.program(2)
                .unwrap_or_else(|e| panic!("{} fails to assemble: {e}", b.name));
        }
    }

    #[test]
    fn lookup_by_either_name() {
        assert!(by_name("m88k").is_some());
        assert!(by_name("m88ksim").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn names_match_suite_order() {
        let n = names();
        assert_eq!(n.len(), 15);
        assert_eq!(n[0], "comp");
        assert_eq!(n[14], "tex");
    }

    #[test]
    fn select_expands_all_and_canonicalizes() {
        assert_eq!(select(&["all"]).unwrap().len(), 15);
        assert_eq!(select(&["m88ksim"]).unwrap(), ["m88k"]);
        assert!(select(&["nonesuch"]).unwrap_err().contains("nonesuch"));
    }

    #[test]
    fn table2_totals_are_consistent() {
        for b in suite() {
            let t = b.table2;
            let sum = t.moves + t.reassoc + t.scadd;
            assert!(
                (sum - t.total).abs() < 0.35,
                "{}: {} + {} + {} != {}",
                b.name,
                t.moves,
                t.reassoc,
                t.scadd,
                t.total
            );
        }
    }
}
