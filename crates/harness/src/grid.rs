//! Campaign specifications and grid expansion.
//!
//! A [`CampaignSpec`] names the axes of a sweep; [`CampaignSpec::expand`]
//! takes their cross product in a fixed order and stamps every point with a
//! stable content-hash id ([`RunDescriptor::run_id`]). The id covers every
//! field that influences the simulation (benchmark, optimization set, fill
//! latency, seed, warmup/budget windows, cycle cap) and *excludes* timing
//! limits, so re-running the same scientific point — even from a differently
//! ordered or differently parallel campaign — always maps to the same id.

use tracefill_core::config::{ControllerMode, OptConfig, ReplacementKind};
use tracefill_util::{fnv1a64, Json};

/// A labelled optimization set — one value of the `{opt set}` axis.
#[derive(Debug, Clone, PartialEq)]
pub struct OptPoint {
    /// Canonical label (e.g. `"none"`, `"all"`, `"moves,scadd"`).
    pub label: String,
    /// The decoded configuration.
    pub opts: OptConfig,
}

/// One fully resolved point of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDescriptor {
    /// Stable content hash of the scientific coordinates (16 hex digits).
    pub run_id: String,
    /// Benchmark short name (from the suite) or a `gen:` pseudo-benchmark.
    pub bench: String,
    /// Canonical optimization label.
    pub opt_label: String,
    /// Decoded optimization set.
    pub opts: OptConfig,
    /// Fill-unit pipeline latency in cycles (the Figure 8 axis).
    pub fill_latency: u32,
    /// Workload seed. Kernels from the suite are deterministic, so the
    /// seed only perturbs `gen:` workloads; it is part of the id either
    /// way so replicate rows stay distinct.
    pub seed: u64,
    /// Warmup window (retired instructions) before measurement.
    pub warmup: u64,
    /// Measured window (retired instructions).
    pub budget: u64,
    /// Hard per-run cycle cap (watchdog against bistable kernels).
    pub max_cycles: u64,
    /// Hard per-run wall-clock cap in milliseconds (not part of the id).
    pub wall_limit_ms: u64,
    /// Trace-cache replacement policy.
    pub policy: ReplacementKind,
    /// Online pass controller mode ([`ControllerMode::Off`] for the static
    /// machine). The controller is seeded with [`RunDescriptor::seed`].
    pub controller: ControllerMode,
    /// Fills per controller epoch (ignored when the controller is off).
    /// Epochs much shorter than trace-cache residence misattribute reward
    /// to the wrong arm, so adaptive sweeps want this large.
    pub epoch_fills: u64,
    /// Collect the segment lifetime ledger during the run (per-cell
    /// `ledger.*` metrics in the result row). Observation-only: the
    /// simulation itself is identical either way, but the flag is part of
    /// the id so ledgered rows never shadow plain ones.
    pub ledger: bool,
    /// Run with self-repair armed: divergences are contained (squash,
    /// restore, invalidate, quarantine) instead of failing the row. Part
    /// of the id so repaired rows never shadow plain ones.
    pub self_repair: bool,
}

impl RunDescriptor {
    /// The content hash over this descriptor's scientific coordinates
    /// (everything but `run_id` and the wall-clock limit).
    fn content_id(&self) -> String {
        let mut key = format!(
            "bench={};opts={};fill_latency={};seed={};warmup={};budget={};max_cycles={}",
            self.bench,
            self.opt_label,
            self.fill_latency,
            self.seed,
            self.warmup,
            self.budget,
            self.max_cycles,
        );
        // Default policy/controller rows keep the historical key so every
        // stored campaign on disk keeps resuming; only non-default rows
        // extend it.
        if self.policy != ReplacementKind::Lru {
            key.push_str(&format!(";policy={}", self.policy.name()));
        }
        if self.controller != ControllerMode::Off {
            key.push_str(&format!(";controller={}", self.controller.label()));
            key.push_str(&format!(";epoch={}", self.epoch_fills));
        }
        if self.ledger {
            key.push_str(";ledger=on");
        }
        if self.self_repair {
            key.push_str(";repair=on");
        }
        format!("{:016x}", fnv1a64(key.as_bytes()))
    }
}

/// A declarative sweep: the cross product of its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (documentation; lands in every result row).
    pub name: String,
    /// The `{opt set}` axis.
    pub opt_sets: Vec<OptPoint>,
    /// The `{fill latency}` axis, in cycles.
    pub fill_latencies: Vec<u32>,
    /// The `{workload}` axis: suite short/full names, or `gen:<blocks>`
    /// for the pattern-mix generator (seeded per run).
    pub benchmarks: Vec<String>,
    /// The `{seed}` axis.
    pub seeds: Vec<u64>,
    /// Warmup window per run (retired instructions).
    pub warmup: u64,
    /// Measured window per run (retired instructions).
    pub budget: u64,
    /// Per-run cycle watchdog.
    pub max_cycles: u64,
    /// Per-run wall-clock watchdog (milliseconds).
    pub wall_limit_ms: u64,
    /// The `{replacement policy}` axis (canonical names: `lru`, `srrip`,
    /// `trrip`).
    pub policies: Vec<String>,
    /// Pass-controller mode applied to every run (canonical
    /// [`ControllerMode`] label; `off` for static campaigns).
    pub controller: String,
    /// Fills per controller epoch (ignored when `controller` is `off`).
    pub epoch_fills: u64,
    /// Collect the segment lifetime ledger on every run (off by default;
    /// see [`RunDescriptor::ledger`]).
    pub ledger: bool,
    /// Arm self-repair on every run (off by default; see
    /// [`RunDescriptor::self_repair`]).
    pub self_repair: bool,
}

impl CampaignSpec {
    /// The Figure 8 grid: all 15 benchmarks × {none, all} × fill latency
    /// {1, 5, 10} × one seed.
    #[must_use]
    pub fn fig8() -> CampaignSpec {
        CampaignSpec {
            name: "fig8".to_string(),
            opt_sets: vec![
                OptPoint {
                    label: "none".to_string(),
                    opts: OptConfig::none(),
                },
                OptPoint {
                    label: "all".to_string(),
                    opts: OptConfig::all(),
                },
            ],
            fill_latencies: vec![1, 5, 10],
            benchmarks: tracefill_workloads::suite()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
            seeds: vec![0],
            warmup: 150_000,
            budget: 150_000,
            max_cycles: 50_000_000,
            wall_limit_ms: 120_000,
            policies: vec!["lru".to_string()],
            controller: "off".to_string(),
            epoch_fills: 1024,
            ledger: false,
            self_repair: false,
        }
    }

    /// The Table 2 grid: all 15 benchmarks × {all} × latency 1 × one seed
    /// (transformation coverage is measured with everything enabled).
    #[must_use]
    pub fn table2() -> CampaignSpec {
        CampaignSpec {
            name: "table2".to_string(),
            opt_sets: vec![OptPoint {
                label: "all".to_string(),
                opts: OptConfig::all(),
            }],
            fill_latencies: vec![1],
            ..CampaignSpec::fig8()
        }
    }

    /// Looks up a built-in spec by name (`fig8`, `table2`).
    #[must_use]
    pub fn builtin(name: &str) -> Option<CampaignSpec> {
        match name {
            "fig8" => Some(CampaignSpec::fig8()),
            "table2" => Some(CampaignSpec::table2()),
            _ => None,
        }
    }

    /// Expands the grid in a fixed order:
    /// benchmarks → opt sets → fill latencies → seeds → policies.
    ///
    /// # Panics
    ///
    /// Panics on an unparseable `policies` entry or `controller` (specs
    /// built through [`from_json`](Self::from_json) are pre-validated).
    #[must_use]
    pub fn expand(&self) -> Vec<RunDescriptor> {
        let policies: Vec<ReplacementKind> = self
            .policies
            .iter()
            .map(|p| ReplacementKind::parse(p).expect("validated policy name"))
            .collect();
        let controller = ControllerMode::parse(&self.controller).expect("validated controller");
        let mut out = Vec::new();
        for bench in &self.benchmarks {
            for opt in &self.opt_sets {
                for &lat in &self.fill_latencies {
                    for &seed in &self.seeds {
                        for &policy in &policies {
                            let mut desc = RunDescriptor {
                                run_id: String::new(),
                                bench: bench.clone(),
                                opt_label: opt.label.clone(),
                                opts: opt.opts,
                                fill_latency: lat,
                                seed,
                                warmup: self.warmup,
                                budget: self.budget,
                                max_cycles: self.max_cycles,
                                wall_limit_ms: self.wall_limit_ms,
                                policy,
                                controller,
                                epoch_fills: self.epoch_fills,
                                ledger: self.ledger,
                                self_repair: self.self_repair,
                            };
                            desc.run_id = desc.content_id();
                            out.push(desc);
                        }
                    }
                }
            }
        }
        out
    }

    /// Serializes the spec (the on-disk campaign format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| v.iter().map(String::as_str).collect::<Json>();
        Json::object()
            .with("name", self.name.as_str())
            .with(
                "opts",
                self.opt_sets
                    .iter()
                    .map(|o| o.label.as_str())
                    .collect::<Json>(),
            )
            .with(
                "fill_latencies",
                self.fill_latencies.iter().copied().collect::<Json>(),
            )
            .with("benchmarks", strs(&self.benchmarks))
            .with("seeds", self.seeds.iter().copied().collect::<Json>())
            .with("warmup", self.warmup)
            .with("budget", self.budget)
            .with("max_cycles", self.max_cycles)
            .with("wall_limit_ms", self.wall_limit_ms)
            .with("policies", strs(&self.policies))
            .with("controller", self.controller.as_str())
            .with("epoch_fills", self.epoch_fills)
            .with("ledger", self.ledger)
            .with("self_repair", self.self_repair)
    }

    /// Parses a spec from its JSON form. Omitted fields fall back to the
    /// [`fig8`](Self::fig8) defaults; `"benchmarks": ["all"]` expands to
    /// the whole suite.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, unknown optimization tokens, unknown
    /// benchmark names, and empty axes.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let defaults = CampaignSpec::fig8();
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("campaign")
            .to_string();
        // A string-array member, if present.
        let strings = |key: &str| -> Result<Option<Vec<&str>>, String> {
            let Some(items) = v.get(key).and_then(Json::as_arr) else {
                return Ok(None);
            };
            let strs = items.iter().map(|item| {
                item.as_str()
                    .ok_or_else(|| format!("`{key}` entries must be strings, got {item:?}"))
            });
            strs.collect::<Result<_, _>>().map(Some)
        };
        let num = |key: &str, dflt: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(dflt),
                Some(j) => j.as_u64().ok_or_else(|| format!("bad `{key}`: {j:?}")),
            }
        };
        let flag = |key: &str, dflt: bool| -> Result<bool, String> {
            match v.get(key) {
                None => Ok(dflt),
                Some(j) => j.as_bool().ok_or_else(|| format!("bad `{key}`: {j:?}")),
            }
        };

        let opt_sets = match strings("opts")? {
            None => defaults.opt_sets,
            Some(labels) => labels
                .into_iter()
                .map(|l| {
                    let opts = OptConfig::from_name(l)?;
                    Ok(OptPoint {
                        label: opts.label(),
                        opts,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let fill_latencies = match v.get("fill_latencies").and_then(Json::as_arr) {
            None => defaults.fill_latencies,
            Some(items) => items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .and_then(|l| u32::try_from(l).ok())
                        .ok_or_else(|| format!("bad fill latency {i:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let benchmarks = match strings("benchmarks")? {
            None => defaults.benchmarks,
            Some(names) => {
                let mut out = Vec::new();
                for name in names {
                    if name == "all" {
                        out.extend(tracefill_workloads::names().iter().map(|n| n.to_string()));
                    } else if name.starts_with("gen:")
                        || tracefill_workloads::by_name(name).is_some()
                    {
                        out.push(name.to_string());
                    } else {
                        return Err(format!(
                            "unknown benchmark `{name}` (try one of: {})",
                            tracefill_workloads::names().join(", ")
                        ));
                    }
                }
                out
            }
        };
        let seeds = match v.get("seeds").and_then(Json::as_arr) {
            None => defaults.seeds,
            Some(items) => items
                .iter()
                .map(|i| i.as_u64().ok_or_else(|| format!("bad seed {i:?}")))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let policies = match strings("policies")? {
            None => defaults.policies,
            Some(names) => names
                .into_iter()
                .map(|n| ReplacementKind::parse(n).map(|p| p.name().to_string()))
                .collect::<Result<_, _>>()?,
        };
        let controller = match v.get("controller") {
            None => defaults.controller,
            Some(j) => {
                let s = j
                    .as_str()
                    .ok_or_else(|| format!("bad `controller`: {j:?}"))?;
                ControllerMode::parse(s)?.label()
            }
        };

        let spec = CampaignSpec {
            name,
            opt_sets,
            fill_latencies,
            benchmarks,
            seeds,
            warmup: num("warmup", defaults.warmup)?,
            budget: num("budget", defaults.budget)?,
            max_cycles: num("max_cycles", defaults.max_cycles)?,
            wall_limit_ms: num("wall_limit_ms", defaults.wall_limit_ms)?,
            policies,
            controller,
            epoch_fills: num("epoch_fills", defaults.epoch_fills)?.max(1),
            ledger: flag("ledger", defaults.ledger)?,
            self_repair: flag("self_repair", defaults.self_repair)?,
        };
        if spec.opt_sets.is_empty()
            || spec.fill_latencies.is_empty()
            || spec.benchmarks.is_empty()
            || spec.seeds.is_empty()
            || spec.policies.is_empty()
        {
            return Err("campaign has an empty axis".to_string());
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_grid_is_15x2x3() {
        let runs = CampaignSpec::fig8().expand();
        assert_eq!(runs.len(), 15 * 2 * 3);
        let ids: std::collections::HashSet<_> = runs.iter().map(|r| r.run_id.clone()).collect();
        assert_eq!(ids.len(), runs.len(), "run ids must be unique");
    }

    #[test]
    fn run_ids_are_stable_across_expansions() {
        let a = CampaignSpec::fig8().expand();
        let b = CampaignSpec::fig8().expand();
        assert_eq!(a, b);
        // A spot-check pin: if this changes, every stored campaign on disk
        // stops resuming. Change it only with a migration story.
        let first = &a[0];
        assert_eq!(first.run_id, first.content_id());
        // Default policy/controller rows must keep the *historical* key
        // format (no policy/controller suffix), so campaigns stored before
        // the policy axes existed still resume.
        let legacy_key = format!(
            "bench={};opts={};fill_latency={};seed={};warmup={};budget={};max_cycles={}",
            first.bench,
            first.opt_label,
            first.fill_latency,
            first.seed,
            first.warmup,
            first.budget,
            first.max_cycles,
        );
        assert_eq!(
            first.run_id,
            format!("{:016x}", fnv1a64(legacy_key.as_bytes()))
        );
    }

    #[test]
    fn policy_axis_expands_and_distinguishes_ids() {
        let mut spec = CampaignSpec::fig8();
        let base = spec.expand();
        spec.policies = vec!["lru".to_string(), "srrip".to_string(), "trrip".to_string()];
        spec.controller = "egreedy:100".to_string();
        let runs = spec.expand();
        assert_eq!(runs.len(), base.len() * 3);
        let ids: std::collections::HashSet<_> = runs.iter().map(|r| r.run_id.clone()).collect();
        assert_eq!(ids.len(), runs.len(), "policy axes must split run ids");
        // None of the swept ids collide with the static-default ids.
        for r in &base {
            assert!(!ids.contains(&r.run_id));
        }
    }

    #[test]
    fn policy_spec_json_roundtrip() {
        let mut spec = CampaignSpec::fig8();
        spec.policies = vec!["srrip".to_string()];
        spec.controller = "ucb:1414".to_string();
        let back = CampaignSpec::from_json(&spec.to_json().dump()).unwrap();
        assert_eq!(spec, back);
        assert!(CampaignSpec::from_json(r#"{"policies":["mru"]}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"controller":"thompson"}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"policies":[]}"#).is_err());
    }

    #[test]
    fn ledger_toggle_splits_ids_but_default_stays_legacy() {
        let mut spec = CampaignSpec::fig8();
        let base = spec.expand();
        spec.ledger = true;
        let ledgered = spec.expand();
        assert_eq!(base.len(), ledgered.len());
        let base_ids: std::collections::HashSet<_> =
            base.iter().map(|r| r.run_id.clone()).collect();
        for r in &ledgered {
            assert!(r.ledger);
            assert!(
                !base_ids.contains(&r.run_id),
                "ledgered rows must not shadow plain rows"
            );
        }
        // Round-trips through JSON.
        let back = CampaignSpec::from_json(&spec.to_json().dump()).unwrap();
        assert_eq!(spec, back);
        // Specs stored before the flag existed default to off.
        let old = CampaignSpec::from_json(r#"{"benchmarks":["m88k"]}"#).unwrap();
        assert!(!old.ledger);
    }

    #[test]
    fn self_repair_toggle_splits_ids_but_default_stays_legacy() {
        let mut spec = CampaignSpec::fig8();
        let base = spec.expand();
        spec.self_repair = true;
        let repaired = spec.expand();
        assert_eq!(base.len(), repaired.len());
        let base_ids: std::collections::HashSet<_> =
            base.iter().map(|r| r.run_id.clone()).collect();
        for r in &repaired {
            assert!(r.self_repair);
            assert!(
                !base_ids.contains(&r.run_id),
                "self-repair rows must not shadow plain rows"
            );
        }
        // Round-trips through JSON.
        let back = CampaignSpec::from_json(&spec.to_json().dump()).unwrap();
        assert_eq!(spec, back);
        // Specs stored before the flag existed default to off.
        let old = CampaignSpec::from_json(r#"{"benchmarks":["m88k"]}"#).unwrap();
        assert!(!old.self_repair);
        assert!(CampaignSpec::from_json(r#"{"self_repair":3}"#).is_err());
    }

    #[test]
    fn wall_limit_does_not_affect_ids() {
        let mut spec = CampaignSpec::fig8();
        let a = spec.expand();
        spec.wall_limit_ms *= 7;
        let b = spec.expand();
        assert_eq!(
            a.iter().map(|r| &r.run_id).collect::<Vec<_>>(),
            b.iter().map(|r| &r.run_id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = CampaignSpec::fig8();
        let back = CampaignSpec::from_json(&spec.to_json().dump()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(CampaignSpec::from_json("{").is_err());
        assert!(CampaignSpec::from_json(r#"{"opts":["frobnicate"]}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"benchmarks":["nonesuch"]}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"seeds":[]}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"fill_latencies":[-3]}"#).is_err());
    }

    #[test]
    fn benchmarks_all_expands_to_suite() {
        let spec = CampaignSpec::from_json(r#"{"benchmarks":["all"],"seeds":[1,2]}"#).unwrap();
        assert_eq!(spec.benchmarks.len(), 15);
        assert_eq!(spec.expand().len(), 15 * 2 * 3 * 2);
    }

    #[test]
    fn opt_labels_canonicalize() {
        let o = OptConfig::from_name("scadd,moves").unwrap();
        assert_eq!(o.label(), "moves,scadd");
        assert_eq!(OptConfig::none().label(), "none");
        assert_eq!(OptConfig::all().label(), "all");
    }
}
