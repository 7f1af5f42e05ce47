//! Fault sweeps and the one outcome taxonomy behind `tracefill inject`,
//! `tracefill heal` and `tracefill report --format repair`.
//!
//! A [`FaultSweep`] runs one benchmark on each configured machine for a
//! number of trials, each with its own seeded [`FaultPlan`]. The trials
//! run on the pool's [`map_isolated`](crate::pool::map_isolated), which
//! turns a panicking trial into an outcome of its own and returns results
//! in trial order, so a sweep's tallies do not depend on the core count.
//! Every run is judged with `classify` against one fault-free interpreter
//! run. Faults are not a campaign axis: the campaign
//! [`runner`](crate::runner) measures instruction windows and never
//! compares a run's output with a reference, which is what a fault trial
//! exists to do.

use crate::pool;
use crate::runner::{RunRecord, RunStatus};
use tracefill_isa::interp::{Halt, Interp};
use tracefill_isa::syscall::IoCtx;
use tracefill_isa::Program;
use tracefill_sim::{FaultKind, FaultPlan, RunExit, SimConfig, SimError, Simulator};
use tracefill_util::Registry;

/// How one run ended. Variants are declared in report order, so each
/// one's discriminant indexes [`Outcome::KEYED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Strict segment verification stopped an unarmed run.
    DetectedVerify,
    /// Fill-side verification rejected a bad segment; the run finished clean.
    DetectedFillVerify,
    /// The lockstep oracle stopped an unarmed run.
    DetectedOracle,
    /// A cycle, instruction or cancellation limit stopped the run.
    Watchdog,
    /// The run panicked, or was quarantined for panicking.
    Panic,
    /// Another simulator error (deadlock, oracle fault) stopped an unarmed run.
    SimError,
    /// The run contained at least one failure and still finished clean.
    Recovered,
    /// A run with self-repair armed died anyway.
    Fatal,
    /// Faults fired; the run finished clean with nothing detected.
    Masked,
    /// The run finished with output or halt unlike the reference.
    Silent,
    /// No fault fired and the run finished clean.
    Unfired,
}

impl Outcome {
    /// Every outcome in report order, with its `inject` table row key.
    pub const KEYED: [(Outcome, &'static str); 11] = [
        (Outcome::DetectedVerify, "detected.verify"),
        (Outcome::DetectedFillVerify, "detected.fill_verify"),
        (Outcome::DetectedOracle, "detected.oracle"),
        (Outcome::Watchdog, "detected.watchdog"),
        (Outcome::Panic, "detected.panic"),
        (Outcome::SimError, "detected.simerror"),
        (Outcome::Recovered, "recovered"),
        (Outcome::Fatal, "fatal"),
        (Outcome::Masked, "masked"),
        (Outcome::Silent, "silent"),
        (Outcome::Unfired, "unfired"),
    ];

    /// The outcome of a campaign row run with self-repair armed; `None`
    /// for plain rows. Campaign runs inject no faults and keep no
    /// reference, so a finished row is `Recovered` or `Unfired`.
    #[must_use]
    pub fn of_record(r: &RunRecord) -> Option<Outcome> {
        let repair = r.repair?;
        Some(match r.status {
            RunStatus::Ok if repair.repairs > 0 => Outcome::Recovered,
            RunStatus::Ok => Outcome::Unfired,
            RunStatus::CycleLimit | RunStatus::Timeout | RunStatus::Cancelled => Outcome::Watchdog,
            RunStatus::SimError(_) => Outcome::Fatal,
            RunStatus::Panic(_) | RunStatus::Quarantined(_) => Outcome::Panic,
        })
    }
}

/// What one fault trial observed: how the run ended (`None` if it
/// panicked), whether self-repair was armed, the program's output, and
/// the run's `fault.*` and `repair.*` counters.
#[derive(Debug, Default)]
pub(crate) struct Trial {
    pub(crate) exit: Option<Result<RunExit, SimError>>,
    pub(crate) armed: bool,
    pub(crate) output: Vec<u32>,
    pub(crate) metrics: Registry,
}

/// The fault-free interpreter run every trial is judged against.
#[derive(Debug)]
pub(crate) struct Reference {
    pub(crate) halt: Halt,
    pub(crate) output: Vec<u32>,
}

/// Judges one trial against the reference. This is the only place a
/// simulator exit is compared with the interpreter's halt.
pub(crate) fn classify(run: &Trial, reference: &Reference) -> Outcome {
    let halt = match &run.exit {
        None => return Outcome::Panic,
        Some(Err(_)) if run.armed => return Outcome::Fatal,
        Some(Err(e)) => {
            return match e.divergence() {
                Some(rep) if rep.kind == "segment-verify" => Outcome::DetectedVerify,
                Some(_) => Outcome::DetectedOracle,
                None => Outcome::SimError,
            }
        }
        Some(Ok(RunExit::Exited(code))) => Halt::Exited(*code),
        Some(Ok(RunExit::Break)) => Halt::Break,
        Some(Ok(RunExit::CycleLimit | RunExit::InstrLimit | RunExit::Cancelled)) => {
            return Outcome::Watchdog
        }
    };
    // A wrong answer outranks everything below it: a run where no fault
    // fired but the output differs is a simulator bug, not `Unfired`.
    let counter = |name| run.metrics.counter(name);
    if halt != reference.halt || run.output != reference.output {
        Outcome::Silent
    } else if counter("fault.injected") == 0 {
        Outcome::Unfired
    } else if counter("repair.total") > 0 {
        Outcome::Recovered
    } else if counter("fault.detected.fill_verify") > 0 {
        Outcome::DetectedFillVerify
    } else {
        Outcome::Masked
    }
}

/// Outcome counts and repair totals over one cell's runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    counts: [u64; Outcome::KEYED.len()],
    /// Faults that fired.
    pub injected: u64,
    /// Contained failures.
    pub repairs: u64,
    /// Pass quarantines.
    pub quarantines: u64,
    /// Machine-wide pass disables.
    pub disables: u64,
}

impl Tally {
    /// Counts one run.
    pub fn add(&mut self, outcome: Outcome) {
        self.counts[outcome as usize] += 1;
    }

    /// Runs that ended in `outcome`.
    #[must_use]
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.counts[outcome as usize]
    }

    /// Runs counted.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Runs that finished clean without containing a failure.
    #[must_use]
    pub fn clean(&self) -> u64 {
        self.count(Outcome::Masked)
            + self.count(Outcome::DetectedFillVerify)
            + self.count(Outcome::Unfired)
    }

    /// Runs that died: armed runs that failed anyway, and panics.
    #[must_use]
    pub fn fatal(&self) -> u64 {
        self.count(Outcome::Fatal) + self.count(Outcome::Panic)
    }

    /// The availability columns `heal` and `report --format repair` share,
    /// as `(name, value)`: folds of the outcome counts, then repair totals.
    #[must_use]
    pub fn columns(&self) -> [(&'static str, u64); 8] {
        [
            ("recovered", self.count(Outcome::Recovered)),
            ("clean", self.clean()),
            ("silent", self.count(Outcome::Silent)),
            ("hung", self.count(Outcome::Watchdog)),
            ("fatal", self.fatal()),
            ("repairs", self.repairs),
            ("quarantines", self.quarantines),
            ("disables", self.disables),
        ]
    }

    /// One text-table row of [`columns`](Self::columns) plus `avail%`, or
    /// the header row when `header` is set.
    #[must_use]
    pub fn table_row(&self, header: bool) -> String {
        let text = |name: &str, value: String| if header { name.to_string() } else { value };
        let cells = self.columns().map(|(name, n)| text(name, n.to_string()));
        let avail = text("avail%", format!("{:.1}", self.availability_pct()));
        let widths = [9, 6, 6, 5, 6, 8, 11, 9, 7];
        let cells = cells.into_iter().chain([avail]).zip(widths);
        cells.map(|(cell, w)| format!(" {cell:>w$}")).collect()
    }

    /// Percentage of runs that finished, clean or not.
    #[must_use]
    pub fn availability_pct(&self) -> f64 {
        let done = self.count(Outcome::Recovered) + self.clean() + self.count(Outcome::Silent);
        100.0 * done as f64 / self.runs().max(1) as f64
    }
}

/// A fault sweep: `trials` seeded fault plans on each configured machine.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Suite benchmark to run.
    pub bench: String,
    /// `(label, machine)` cells; each trial adds its plan to the machine.
    pub cells: Vec<(String, SimConfig)>,
    /// Sweep seed; every trial derives its plan from it.
    pub seed: u64,
    /// Trials per cell.
    pub trials: u64,
    /// Faults per plan.
    pub faults: usize,
    /// Cycle horizon the plan's faults fall within.
    pub horizon: u64,
    /// Fault kinds plans draw from.
    pub kinds: Vec<FaultKind>,
    /// Instructions the kernel runs before it halts.
    pub budget: u64,
}

impl FaultSweep {
    /// Runs every trial of every cell; returns one tally per cell.
    ///
    /// # Errors
    ///
    /// Unknown benchmark, kernel assembly failure, or a faulting reference
    /// run.
    pub fn run(&self) -> Result<Vec<Tally>, String> {
        let bench = tracefill_workloads::by_name(&self.bench)
            .ok_or_else(|| format!("unknown benchmark `{}`", self.bench))?;
        // A scale at which the kernel *halts* within the budget, so clean
        // runs produce a complete, comparable output stream.
        let scale = ((self.budget / u64::from(bench.instrs_per_scale.max(1))).max(1)) as u32;
        let prog = bench
            .program(scale)
            .map_err(|e| format!("{}: {e}", self.bench))?;
        let mut interp = Interp::with_io(&prog, IoCtx::default());
        let halt = interp.run(self.budget.saturating_mul(50));
        let halt = halt.map_err(|e| format!("reference interpreter faulted: {e}"))?;
        let output = interp.io().output.clone();
        let reference = Reference { halt, output };

        // Every trial of every cell on the pool; a fault-induced panic is
        // an outcome here, recorded in its own slot.
        let trials: Vec<(usize, u64)> = (0..self.cells.len())
            .flat_map(|cell| (0..self.trials).map(move |trial| (cell, trial)))
            .collect();
        let runs = pool::map_isolated(&trials, |&(cell, trial)| {
            self.trial(&prog, &self.cells[cell].1, trial)
        });
        let mut tallies = vec![Tally::default(); self.cells.len()];
        for (&(cell, _), run) in trials.iter().zip(runs) {
            let run = run.unwrap_or_default();
            let tally = &mut tallies[cell];
            tally.add(classify(&run, &reference));
            tally.injected += run.metrics.counter("fault.injected");
            tally.repairs += run.metrics.counter("repair.total");
            tally.quarantines += run.metrics.counter("repair.quarantined");
            tally.disables += run.metrics.counter("repair.disabled");
        }
        Ok(tallies)
    }

    /// Runs trial number `trial` on `cfg` under its own seeded fault plan.
    fn trial(&self, prog: &Program, cfg: &SimConfig, trial: u64) -> Trial {
        let plan_seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(trial + 1));
        let mut cfg = cfg.clone();
        let plan = FaultPlan::generate(plan_seed, self.faults, self.horizon, &self.kinds);
        cfg.fault_plan = Some(plan);
        let armed = cfg.self_repair.enabled;
        let mut sim = Simulator::new(prog, cfg);
        let exit = sim.run_budgeted(self.budget.saturating_mul(10), 50_000_000, None);
        Trial {
            exit: Some(exit),
            armed,
            output: sim.io().output.clone(),
            metrics: sim.report().metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RepairSummary;
    use tracefill_sim::DivergenceReport;

    const FIRED: (&str, u64) = ("fault.injected", 1);

    fn reference() -> Reference {
        Reference {
            halt: Halt::Exited(0),
            output: vec![7],
        }
    }

    /// A clean, unarmed run that exited like the reference, with the
    /// given `(counter, value)` metrics.
    fn finished(counters: &[(&str, u64)]) -> Trial {
        let mut metrics = Registry::new();
        for (name, n) in counters {
            metrics.add(name, *n);
        }
        Trial {
            exit: Some(Ok(RunExit::Exited(0))),
            output: vec![7],
            metrics,
            ..Trial::default()
        }
    }

    fn diverged(kind: &'static str) -> Option<Result<RunExit, SimError>> {
        Some(Err(SimError::Divergence(Box::new(DivergenceReport {
            cycle: 1,
            seq: 1,
            pc: 0,
            kind,
            expected: String::new(),
            actual: String::new(),
            recent: Vec::new(),
            provenance: None,
        }))))
    }

    #[test]
    fn outcome_order_matches_discriminants() {
        for (i, (o, _)) in Outcome::KEYED.iter().enumerate() {
            assert_eq!(*o as usize, i, "{o:?}");
        }
    }

    #[test]
    fn classify_covers_every_outcome() {
        let r = reference();
        let deadlock = || {
            Some(Err(SimError::Deadlock {
                cycle: 9,
                retired: 3,
            }))
        };
        let cases: Vec<(Trial, Outcome)> = vec![
            (
                Trial {
                    exit: diverged("segment-verify"),
                    ..finished(&[FIRED])
                },
                Outcome::DetectedVerify,
            ),
            (
                finished(&[FIRED, ("fault.detected.fill_verify", 1)]),
                Outcome::DetectedFillVerify,
            ),
            (
                Trial {
                    exit: diverged("register-effect"),
                    ..finished(&[FIRED])
                },
                Outcome::DetectedOracle,
            ),
            (
                Trial {
                    exit: Some(Ok(RunExit::CycleLimit)),
                    ..finished(&[])
                },
                Outcome::Watchdog,
            ),
            (
                Trial {
                    exit: None,
                    ..finished(&[FIRED])
                },
                Outcome::Panic,
            ),
            (
                Trial {
                    exit: deadlock(),
                    ..finished(&[FIRED])
                },
                Outcome::SimError,
            ),
            (
                Trial {
                    armed: true,
                    ..finished(&[FIRED, ("repair.total", 2)])
                },
                Outcome::Recovered,
            ),
            (
                Trial {
                    armed: true,
                    exit: diverged("register-effect"),
                    ..finished(&[FIRED])
                },
                Outcome::Fatal,
            ),
            (finished(&[("fault.injected", 3)]), Outcome::Masked),
            (
                Trial {
                    output: vec![8],
                    ..finished(&[FIRED])
                },
                Outcome::Silent,
            ),
            (
                Trial {
                    exit: Some(Ok(RunExit::Break)),
                    ..finished(&[FIRED])
                },
                Outcome::Silent,
            ),
            (finished(&[]), Outcome::Unfired),
        ];
        let mut seen = Tally::default();
        for (trial, want) in &cases {
            assert_eq!(classify(trial, &r), *want, "{trial:?}");
            seen.add(*want);
        }
        for (o, _) in Outcome::KEYED {
            assert!(seen.count(o) > 0, "no case covers {o:?}");
        }
    }

    #[test]
    fn tally_folds_match_heal_columns() {
        let mut t = Tally::default();
        for (o, _) in Outcome::KEYED {
            t.add(o);
        }
        assert_eq!(t.runs(), 11);
        assert_eq!(t.clean(), 3, "masked + fill-verify + unfired");
        assert_eq!(t.count(Outcome::Watchdog), 1);
        assert_eq!(t.fatal(), 2, "fatal + panic");
        // Recovered, the three clean outcomes and silent finished.
        assert!((t.availability_pct() - 500.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn records_classify_by_status_and_repairs() {
        let mut spec = crate::grid::CampaignSpec::fig8();
        spec.benchmarks = vec!["m88k".to_string()];
        let desc = spec.expand().remove(0);
        let mut rec = crate::runner::RunRecord::empty(&desc, "t", RunStatus::Ok);
        assert_eq!(
            Outcome::of_record(&rec),
            None,
            "plain rows carry no outcome"
        );
        rec.repair = Some(RepairSummary::default());
        let cases = [
            (RunStatus::Ok, 0, Outcome::Unfired),
            (RunStatus::Ok, 2, Outcome::Recovered),
            (RunStatus::CycleLimit, 0, Outcome::Watchdog),
            (RunStatus::Timeout, 1, Outcome::Watchdog),
            (RunStatus::Cancelled, 0, Outcome::Watchdog),
            (RunStatus::SimError("x".into()), 1, Outcome::Fatal),
            (RunStatus::Panic("x".into()), 0, Outcome::Panic),
            (RunStatus::Quarantined("x".into()), 0, Outcome::Panic),
        ];
        for (status, repairs, want) in cases {
            rec.status = status;
            rec.repair = Some(RepairSummary {
                repairs,
                ..RepairSummary::default()
            });
            assert_eq!(Outcome::of_record(&rec), Some(want), "{:?}", rec.status);
        }
    }

    #[test]
    fn sweep_is_deterministic_and_counts_every_trial() {
        let mut cfg = SimConfig::default();
        cfg.fill.strict_verify = false;
        cfg.self_repair.enabled = true;
        let sweep = FaultSweep {
            bench: "m88k".to_string(),
            cells: vec![("none".to_string(), cfg)],
            seed: 3,
            trials: 2,
            faults: 4,
            horizon: 400,
            kinds: FaultKind::ALL.to_vec(),
            budget: 3_000,
        };
        let a = sweep.run().unwrap();
        assert_eq!(a, sweep.run().unwrap());
        assert_eq!(a[0].runs(), 2);
        assert_eq!(a[0].fatal(), 0);
        let mut bad = sweep.clone();
        bad.bench = "nonesuch".to_string();
        assert!(bad.run().is_err());
    }
}
