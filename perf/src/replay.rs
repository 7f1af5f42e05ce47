//! Layer replays: after a traced window, each component layer's public
//! functions are driven again on the workload's own correct-path stream
//! (the interpreter's retire stream, the segments the fill unit builds from
//! it, and the fetch and data addresses it touches), and timed per call.
//!
//! Multiplying a layer's nanoseconds per call by the simulator's own count
//! of calls (from its [`Report`]) estimates that layer's share of the
//! window. Replays see no wrong-path work, so every share is a lower bound.

use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tracefill_core::builder::FillInput;
use tracefill_core::config::{ControllerConfig, OptConfig};
use tracefill_core::fill::FillUnit;
use tracefill_core::opt::{self, moves, placement, reassoc, scadd};
use tracefill_core::{Ledger, Segment, TraceCache};
use tracefill_isa::encode::decode;
use tracefill_isa::interp::Interp;
use tracefill_isa::semantics::effective_addr;
use tracefill_isa::{Instr, OpKind, Program};
use tracefill_sim::{Report, SimConfig};
use tracefill_uarch::hierarchy::{MemHierarchy, Side};
use tracefill_uarch::pht::MultiBranchPredictor;
use tracefill_util::Registry;

/// Bucket bounds of the simulator's per-cycle `sim.window_occupancy`
/// histogram (a crate-private constant of `tracefill-sim`, mirrored here
/// so the replayed `observe` call matches the simulator's exactly).
const WINDOW_OCC_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// `Registry::observe` calls timed per replay.
const OBSERVE_CALLS: u64 = 200_000;

/// Host time spent in `calls` calls of one function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Total nanoseconds.
    pub ns: f64,
    /// Calls timed.
    pub calls: u64,
}

impl Cost {
    /// Nanoseconds per call (0 when nothing was timed).
    pub fn per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }

    fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Times `f`, which makes `calls` calls into one layer.
fn timed(calls: u64, f: impl FnOnce()) -> Cost {
    let start = Instant::now();
    f();
    Cost {
        ns: start.elapsed().as_nanos() as f64,
        calls,
    }
}

/// Per-call costs of every replayed layer function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    /// `Interp::step`, per instruction (the lockstep oracle's work).
    pub interp: Cost,
    /// `FillUnit::retire` + `drain_ready` with every pass off, per
    /// instruction (segment building).
    pub fill: Cost,
    /// Each pass, per segment, in the fill unit's order: moves,
    /// reassociation, scaled adds, placement.
    pub passes: [Cost; 4],
    /// `opt::strict_check`, per segment.
    pub verify: Cost,
    /// `TraceCache::lookup`, per call.
    pub lookup: Cost,
    /// `TraceCache::insert`, per call.
    pub insert: Cost,
    /// `predict` + `update` + `push_history`, per conditional branch.
    pub pht: Cost,
    /// `MemHierarchy::access`, per access.
    pub hier: Cost,
    /// `Ledger` insert/fetch/retire events, per event.
    pub ledger: Cost,
    /// `Registry::observe` of the window-occupancy histogram, per call.
    pub observe: Cost,
}

impl Costs {
    /// Pools another replay's timings into this one.
    pub fn add(&mut self, o: &Costs) {
        self.interp.add(o.interp);
        self.fill.add(o.fill);
        for (a, b) in self.passes.iter_mut().zip(o.passes) {
            a.add(b);
        }
        self.verify.add(o.verify);
        self.lookup.add(o.lookup);
        self.insert.add(o.insert);
        self.pht.add(o.pht);
        self.hier.add(o.hier);
        self.ledger.add(o.ledger);
        self.observe.add(o.observe);
    }
}

/// One correct-path instruction of the replay stream.
#[derive(Debug, Clone, Copy)]
struct Rec {
    pc: u32,
    instr: Instr,
    taken: Option<bool>,
    data_addr: Option<u32>,
}

/// The interpreter's retire stream from instruction `skip` on, at most
/// `take` instructions, plus the cost of producing it.
fn stream(
    prog: &Program,
    skip: u64,
    take: u64,
    t: &mut Tracer,
) -> Result<(Vec<Rec>, Cost), String> {
    let fault = |e| format!("replay interpreter: {e}");
    let skip_to = |it: &mut Interp| -> Result<(), String> {
        for _ in 0..skip {
            if it.step().map_err(fault)?.halt.is_some() {
                return Err("program ended before the replay window".to_string());
            }
        }
        Ok(())
    };
    // Timed pass: nothing but the interpreter itself.
    let mut it = Interp::new(prog);
    skip_to(&mut it)?;
    let mut n = 0u64;
    let mut outcome = Ok(());
    let mut cost = t.span("isa.interp_step", |_| {
        timed(0, || {
            while n < take {
                match it.step() {
                    Ok(r) => {
                        n += 1;
                        if r.halt.is_some() {
                            break;
                        }
                    }
                    Err(e) => {
                        outcome = Err(fault(e));
                        break;
                    }
                }
            }
        })
    });
    outcome?;
    cost.calls = n;

    // Untimed pass: record each instruction with its data address, which
    // needs the operands as they were before the instruction ran.
    let mut it = Interp::new(prog);
    skip_to(&mut it)?;
    let mut recs = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
    for _ in 0..n {
        let pc = it.pc();
        let instr = decode(it.mem().read_u32(pc))
            .map_err(|e| format!("replay decode at {pc:#x}: {e:?}"))?;
        let data_addr = matches!(instr.op.kind(), OpKind::Load | OpKind::Store)
            .then(|| effective_addr(instr.op, it.reg(instr.rs), it.reg(instr.rt), instr.imm));
        let r = it.step().map_err(fault)?;
        recs.push(Rec {
            pc,
            instr: r.instr,
            taken: r.taken,
            data_addr,
        });
    }
    Ok((recs, cost))
}

/// Replays every layer on `prog`'s stream from retired instruction `skip`,
/// for at most `take` instructions, under the machine configuration `cfg`
/// (its replacement policy, pass parameters and cache geometry).
///
/// # Errors
///
/// Interpreter faults, or a replayed segment failing strict verification.
pub fn replay(
    prog: &Program,
    cfg: &SimConfig,
    skip: u64,
    take: u64,
    t: &mut Tracer,
) -> Result<Costs, String> {
    let (recs, interp) = stream(prog, skip, take, t)?;
    let mut c = Costs {
        interp,
        ..Costs::default()
    };

    // Segment building alone: every pass and the verifier off.
    let mut build_cfg = cfg.fill;
    build_cfg.opts = OptConfig::none();
    build_cfg.strict_verify = false;
    build_cfg.controller = ControllerConfig::default();
    let mut fu = FillUnit::new(build_cfg);
    let mut built: Vec<Arc<Segment>> = Vec::new();
    c.fill = t.span("core.fill.retire", |_| {
        timed(recs.len() as u64, || {
            for (i, r) in recs.iter().enumerate() {
                let input = FillInput {
                    pc: r.pc,
                    instr: r.instr,
                    taken: r.taken,
                    promoted: None,
                    fetch_miss_head: false,
                };
                fu.retire(input, i as u64);
                built.extend(fu.drain_ready(i as u64));
            }
        })
    });
    built.extend(fu.drain_ready(u64::MAX));
    let nseg = built.len() as u64;

    // Each pass in turn over the same segments, so later passes see the
    // earlier rewrites as they do in the fill unit.
    let all = OptConfig::all();
    let clusters = cfg.fill.clusters;
    let mut work: Vec<Segment> = built.iter().map(|s| Segment::clone(s)).collect();
    let mut telemetry = Registry::new();
    t.span("core.opt.passes", |_| {
        c.passes[0] = timed(nseg, || {
            for s in &mut work {
                black_box(moves::apply_counted(s, &mut telemetry));
            }
        });
        c.passes[1] = timed(nseg, || {
            for s in &mut work {
                black_box(reassoc::apply_counted(
                    s,
                    all.reassoc_cross_block_only,
                    &mut telemetry,
                ));
            }
        });
        c.passes[2] = timed(nseg, || {
            for s in &mut work {
                black_box(scadd::apply_counted(s, all.scadd_max_shift, &mut telemetry));
            }
        });
        c.passes[3] = timed(nseg, || {
            for s in &mut work {
                placement::apply_counted(s, &clusters, &mut telemetry);
            }
        });
    });

    // The segments as this workload's fill unit finishes them.
    let own: Vec<Arc<Segment>> = built
        .iter()
        .map(|s| {
            let mut s = Segment::clone(s);
            opt::apply_all_telemetry(&mut s, &cfg.fill.opts, &clusters, &mut telemetry);
            Arc::new(s)
        })
        .collect();
    let mut verdict = Ok(());
    c.verify = t.span("core.verify.strict_check", |_| {
        timed(nseg, || {
            for s in &own {
                if let Err(e) = opt::strict_check(s) {
                    verdict = Err(format!("replayed segment fails strict verification: {e}"));
                }
            }
        })
    });
    verdict?;

    // Trace cache under the workload's replacement policy: inserts into an
    // empty cache, then lookups against the cache the interleaved
    // lookup-then-insert stream leaves behind.
    let preds: Vec<Vec<bool>> = own
        .iter()
        .map(|s| {
            s.branches
                .iter()
                .filter(|b| !b.promoted)
                .map(|b| b.taken)
                .collect()
        })
        .collect();
    let mut tc = TraceCache::new(cfg.tcache);
    c.insert = t.span("core.tcache.insert", |_| {
        timed(nseg, || {
            for s in &own {
                black_box(tc.insert(Arc::clone(s)));
            }
        })
    });
    let mut tc = TraceCache::new(cfg.tcache);
    let mut events = Vec::with_capacity(own.len());
    for (s, p) in own.iter().zip(&preds) {
        let hit = tc
            .lookup(s.start_pc, p)
            .map(|h| (h.seg.provenance.seg_id, h.seg.slots.len() as u64));
        events.push((hit, tc.insert(Arc::clone(s))));
    }
    c.lookup = t.span("core.tcache.lookup", |_| {
        timed(nseg, || {
            for (s, p) in own.iter().zip(&preds) {
                black_box(tc.lookup(s.start_pc, p));
            }
        })
    });

    // The ledger's events for that same stream.
    let mut ledger = Ledger::new(true);
    let nevents: u64 = events
        .iter()
        .map(|(hit, _)| 1 + hit.map_or(0, |(_, len)| 1 + len))
        .sum();
    c.ledger = t.span("core.ledger.events", |_| {
        timed(nevents, || {
            for (i, (s, (hit, outcome))) in own.iter().zip(&events).enumerate() {
                if let Some((id, len)) = *hit {
                    ledger.on_fetch(id, len);
                    for _ in 0..len {
                        ledger.on_retire(id);
                    }
                }
                ledger.on_insert(s, outcome, i as u64);
            }
        })
    });

    let branches: Vec<(u32, bool)> = recs
        .iter()
        .filter_map(|r| r.taken.map(|taken| (r.pc, taken)))
        .collect();
    let mut pht = MultiBranchPredictor::new(cfg.predictor);
    c.pht = t.span("uarch.pht.predict_update", |_| {
        timed(branches.len() as u64, || {
            for &(pc, taken) in &branches {
                let p = pht.predict(pc, 0);
                pht.update(p, taken);
                pht.push_history(taken);
            }
        })
    });

    // One instruction-side access per new 64-byte fetch line, one
    // data-side access per load or store.
    let mut accesses = Vec::new();
    let mut line = None;
    for r in &recs {
        if line != Some(r.pc >> 6) {
            line = Some(r.pc >> 6);
            accesses.push((Side::Instr, r.pc));
        }
        if let Some(a) = r.data_addr {
            accesses.push((Side::Data, a));
        }
    }
    let mut hier = MemHierarchy::new(cfg.hierarchy);
    c.hier = t.span("uarch.hier.access", |_| {
        timed(accesses.len() as u64, || {
            for &(side, a) in &accesses {
                black_box(hier.access(side, a));
            }
        })
    });

    let mut reg = Registry::new();
    c.observe = t.span("util.metrics.observe", |_| {
        timed(OBSERVE_CALLS, || {
            for i in 0..OBSERVE_CALLS {
                reg.observe(
                    "sim.window_occupancy",
                    WINDOW_OCC_BOUNDS,
                    black_box(i % 513),
                );
            }
        })
    });
    Ok(c)
}

macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// The simulator's own event counts, read from its [`Report`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            /// Counts accumulated since `earlier` (a window's delta).
            pub fn since(self, earlier: Counts) -> Counts {
                Counts { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// Adds another run's counts.
            pub fn add(&mut self, o: Counts) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

counts! {
    /// Retired instructions.
    retired,
    /// Simulated cycles.
    cycles,
    /// Segments the fill unit finalized.
    segments,
    /// Trace-cache hits.
    tc_hits,
    /// Trace-cache misses.
    tc_misses,
    /// Trace-cache hits whose whole embedded path matched.
    full_path_hits,
    /// Segments written into the trace cache.
    fills,
    /// Trace-cache evictions.
    evictions,
    /// Retired conditional branches.
    branches,
    /// Mispredicted conditional branches.
    mispredicts,
    /// Squashed wrong-path uops.
    squashed,
    /// Retired instructions the trace cache supplied.
    from_tc,
    /// Retired instructions a fill-unit pass transformed.
    transformed,
    /// Instruction-cache hits.
    l1i_hits,
    /// Instruction-cache misses.
    l1i_misses,
    /// Data-cache hits.
    l1d_hits,
    /// Data-cache misses.
    l1d_misses,
    /// L2 hits.
    l2_hits,
    /// L2 misses.
    l2_misses,
    /// Sum of the per-cycle window occupancy samples.
    occ_sum,
    /// Number of window occupancy samples.
    occ_count,
    /// Segments the ledger recorded (0 with the ledger off).
    ledger_segments,
}

impl Counts {
    /// Reads the counts out of a report.
    pub fn of(r: &Report) -> Counts {
        let occ = r.metrics.histogram("sim.window_occupancy");
        let (l1i, l1d, l2) = r.caches;
        Counts {
            retired: r.stats.retired,
            cycles: r.stats.cycles,
            segments: r.fill_segments,
            tc_hits: r.tcache.hits,
            tc_misses: r.tcache.misses,
            full_path_hits: r.tcache.full_path_hits,
            fills: r.tcache.fills,
            evictions: r.tcache.evictions,
            branches: r.stats.branches,
            mispredicts: r.stats.branch_mispredicts,
            squashed: r.stats.squashed_uops,
            from_tc: r.stats.retired_from_tc,
            transformed: r.stats.retired_moves + r.stats.retired_reassoc + r.stats.retired_scadd,
            l1i_hits: l1i.hits,
            l1i_misses: l1i.misses,
            l1d_hits: l1d.hits,
            l1d_misses: l1d.misses,
            l2_hits: l2.hits,
            l2_misses: l2.misses,
            occ_sum: occ.map_or(0, |h| h.sum()),
            occ_count: occ.map_or(0, |h| h.count()),
            ledger_segments: r.metrics.counter("ledger.segments"),
        }
    }
}

/// The share metrics, in the order [`layer_ns`] returns them.
pub const SHARES: [&str; 9] = [
    "isa.interp_share",
    "core.fill.share",
    "core.opt.share",
    "core.verify.share",
    "core.tcache.share",
    "uarch.pht.share",
    "uarch.hier.share",
    "core.ledger.share",
    "util.metrics.share",
];

/// Estimated host nanoseconds each layer of [`SHARES`] spent on `n` — the
/// simulator's call counts times the replayed cost per call — under the
/// configuration `cfg` that produced `n` (a layer the configuration
/// switches off costs nothing).
pub fn layer_ns(cfg: &SimConfig, c: &Costs, n: &Counts) -> [f64; 9] {
    let per = |k: u64, cost: Cost| k as f64 * cost.per_call();
    let opts = cfg.fill.opts;
    let enabled = [opts.moves, opts.reassoc, opts.scadd, opts.placement];
    let opt_ns: f64 = enabled
        .iter()
        .zip(c.passes)
        .filter(|(on, _)| **on)
        .map(|(_, cost)| per(n.segments, cost))
        .fold(0.0, |a, b| a + b);
    [
        if cfg.oracle_check {
            per(n.retired, c.interp)
        } else {
            0.0
        },
        per(n.retired, c.fill),
        opt_ns,
        if cfg.fill.strict_verify {
            per(n.segments, c.verify)
        } else {
            0.0
        },
        per(n.tc_hits + n.tc_misses, c.lookup) + per(n.fills, c.insert),
        per(n.branches, c.pht),
        per(
            n.l1i_hits + n.l1i_misses + n.l1d_hits + n.l1d_misses,
            c.hier,
        ),
        if cfg.ledger {
            per(n.fills + n.tc_hits + n.from_tc, c.ledger)
        } else {
            0.0
        },
        per(n.cycles, c.observe),
    ]
}

/// Ratio with a zero denominator reading as 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics that follow from the replayed costs, the
/// simulator's counts over the measured window, the host nanoseconds of
/// that window, and each layer's estimated nanoseconds (summed over the
/// window's runs).
pub fn layer_metrics(
    c: &Costs,
    n: &Counts,
    window_ns: f64,
    ns: [f64; 9],
) -> Vec<(&'static str, f64)> {
    let rate = |num: u64, den: u64| ratio(num as f64, den as f64);
    let mut out: Vec<(&'static str, f64)> = vec![
        ("sim.ns_per_cycle", ratio(window_ns, n.cycles as f64)),
        ("sim.ns_per_instr", ratio(window_ns, n.retired as f64)),
        ("sim.window_occ_mean", rate(n.occ_sum, n.occ_count)),
        ("sim.squashed_per_retired", rate(n.squashed, n.retired)),
        ("isa.interp_ns_per_instr", c.interp.per_call()),
        ("core.fill.ns_per_instr", c.fill.per_call()),
        ("core.fill.segments", n.segments as f64),
        ("core.opt.moves.ns_per_seg", c.passes[0].per_call()),
        ("core.opt.reassoc.ns_per_seg", c.passes[1].per_call()),
        ("core.opt.scadd.ns_per_seg", c.passes[2].per_call()),
        ("core.opt.placement.ns_per_seg", c.passes[3].per_call()),
        ("core.opt.transformed_frac", rate(n.transformed, n.retired)),
        ("core.verify.ns_per_seg", c.verify.per_call()),
        ("core.tcache.lookup_ns", c.lookup.per_call()),
        ("core.tcache.insert_ns", c.insert.per_call()),
        (
            "core.tcache.hit_rate",
            rate(n.tc_hits, n.tc_hits + n.tc_misses),
        ),
        (
            "core.tcache.full_path_frac",
            rate(n.full_path_hits, n.tc_hits),
        ),
        ("core.tcache.evictions", n.evictions as f64),
        ("uarch.pht.ns_per_branch", c.pht.per_call()),
        ("uarch.pht.mispredict_rate", rate(n.mispredicts, n.branches)),
        ("uarch.hier.ns_per_access", c.hier.per_call()),
        (
            "uarch.icache.hit_rate",
            rate(n.l1i_hits, n.l1i_hits + n.l1i_misses),
        ),
        (
            "uarch.dcache.hit_rate",
            rate(n.l1d_hits, n.l1d_hits + n.l1d_misses),
        ),
        (
            "uarch.l2.hit_rate",
            rate(n.l2_hits, n.l2_hits + n.l2_misses),
        ),
        ("core.ledger.ns_per_event", c.ledger.per_call()),
        ("core.ledger.segments", n.ledger_segments as f64),
        ("util.metrics.observe_ns", c.observe.per_call()),
    ];
    let mut attributed = 0.0;
    for (name, layer) in SHARES.iter().zip(ns) {
        let share = ratio(layer, window_ns);
        attributed += share;
        out.push((name, share));
    }
    out.push(("sim.loop_share", 1.0 - attributed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_loop_share_sum_to_one() {
        let cost = |ns, calls| Cost { ns, calls };
        let c = Costs {
            interp: cost(60.0, 1),
            fill: cost(500.0, 1),
            passes: [cost(100.0, 1); 4],
            verify: cost(3000.0, 1),
            lookup: cost(40.0, 1),
            insert: cost(80.0, 1),
            pht: cost(10.0, 1),
            hier: cost(20.0, 1),
            ledger: cost(30.0, 1),
            observe: cost(25.0, 1),
        };
        let n = Counts {
            retired: 1000,
            cycles: 400,
            segments: 90,
            tc_hits: 80,
            tc_misses: 20,
            fills: 90,
            branches: 150,
            l1d_hits: 300,
            ..Counts::default()
        };
        let cfg = SimConfig::with_opts(OptConfig::all());
        let ns = layer_ns(&cfg, &c, &n);
        assert_eq!(
            ns[0], 60_000.0,
            "the oracle steps once per retired instruction"
        );
        assert_eq!(ns[2], 90.0 * 400.0, "four passes per segment");
        assert_eq!(ns[7], 0.0, "ledger off");
        let window_ns = 5.0e6;
        let m = layer_metrics(&c, &n, window_ns, ns);
        let sum: f64 = m
            .iter()
            .filter(|(k, _)| k.ends_with("share"))
            .map(|(_, v)| v)
            .sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        let raw = SimConfig {
            oracle_check: false,
            ..SimConfig::with_opts(OptConfig::none())
        };
        let ns = layer_ns(&raw, &c, &n);
        assert_eq!((ns[0], ns[2]), (0.0, 0.0), "bypassed layers cost nothing");
    }

    #[test]
    fn counts_window_is_a_fieldwise_delta() {
        let a = Counts {
            retired: 10,
            cycles: 4,
            ..Counts::default()
        };
        let mut b = Counts {
            retired: 25,
            cycles: 9,
            ..Counts::default()
        };
        assert_eq!(b.since(a).retired, 15);
        b.add(a);
        assert_eq!(b.cycles, 13);
    }
}
