//! `tracefill-perf` — host-throughput benchmark of the tracefill simulator.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     [--seed N] [--reps N] [--only W[,W..]] [--trace] [--smoke] [--json FILE]
//! ```
//!
//! The parent process simulates nothing itself. It spawns one child per
//! (repetition, workload) — `tracefill-perf --child W --rep K --seed N` —
//! going round-robin over the workloads and alternating direction every
//! repetition, so host drift hits every workload alike. Each child runs
//! one simulation thread and prints one JSON line; the parent checks every
//! child's simulated results, reports each metric's median, quartiles and
//! sample count, and prints one JSON object as its last line of output.
//!
//! `--trace` adds a traced child next to each untraced one: it records
//! spans around every call into a layer and replays the layers' public
//! functions on the workload's own streams (see `replay`).

mod metrics;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tracefill_util::Json;
use workload::{Sample, Workload};

const USAGE: &str = "\
usage: tracefill-perf [--seed N] [--reps N] [--seconds S] [--only W[,W..]]
                      [--trace [0|1]] [--smoke] [--json FILE]

  --seed N        workload seed (default 1); changes the gen:24 program and
                  the sweep's run ids
  --reps N        repetitions per workload (default 7; 1 with --trace or --smoke)
  --seconds S     instead of a fixed count, repeat until S seconds have passed
                  (at least 3 repetitions, 1 when tracing)
  --only W        run only these workloads (alias: --workload); one of
                  m88k-all, go-none-trrip, gen24-fullwindow, sweep-observed
  --trace         traced run: per-layer metrics, spans in out/trace-W.json,
                  layer table in out/layers-W.json
  --smoke         tiny windows and one repetition, for checking the harness
  --json FILE     write the full results there (default out/results.json)";

/// Where results, traces and scratch stores go (ignored by git).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Pinned simulated results of every workload (see `expected_mismatch`).
const EXPECTED: &str = include_str!("../expected.json");

/// Longest a child may run before it is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Iterations of the host-calibration loop.
const CALIB_ITERS: u64 = 4_000_000;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    seed: u64,
    reps: Option<u32>,
    seconds: Option<u64>,
    workloads: Vec<Workload>,
    trace: bool,
    smoke: bool,
    json: Option<PathBuf>,
    /// `--child W --rep K`: run one repetition and print its line.
    child: Option<(Workload, u32)>,
}

/// A command-line problem: printed with the usage, exit status 2.
#[derive(Debug, PartialEq)]
struct Usage(String);

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, Usage> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| Usage(format!("{flag} needs a value")))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, Usage> {
    text.parse()
        .map_err(|_| Usage(format!("{flag}: `{text}` is not a valid number")))
}

fn positive<T: std::str::FromStr + PartialEq + Default>(
    flag: &str,
    text: &str,
) -> Result<T, Usage> {
    let n: T = number(flag, text)?;
    if n == T::default() {
        return Err(Usage(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

fn workload(name: &str) -> Result<Workload, Usage> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        Usage(format!(
            "unknown workload `{name}` (expected one of: {})",
            names.join(", ")
        ))
    })
}

/// Parses the arguments after the program name; `Ok(None)` asks for help.
fn parse_args(args: &[String]) -> Result<Option<Options>, Usage> {
    let mut o = Options {
        seed: 1,
        reps: None,
        seconds: None,
        workloads: Vec::new(),
        trace: false,
        smoke: false,
        json: None,
        child: None,
    };
    let mut child = None;
    let mut rep = 0;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => o.seed = number("--seed", value(&mut it, "--seed")?)?,
            "--reps" => o.reps = Some(positive("--reps", value(&mut it, "--reps")?)?),
            "--seconds" => o.seconds = Some(positive("--seconds", value(&mut it, "--seconds")?)?),
            "--only" | "--workload" => {
                for name in value(&mut it, arg)?.split(',') {
                    let w = workload(name)?;
                    if !o.workloads.contains(&w) {
                        o.workloads.push(w);
                    }
                }
            }
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => o.smoke = true,
            "--json" => o.json = Some(PathBuf::from(value(&mut it, "--json")?)),
            "--child" => child = Some(workload(value(&mut it, "--child")?)?),
            "--rep" => rep = number("--rep", value(&mut it, "--rep")?)?,
            "-h" | "--help" => return Ok(None),
            other => return Err(Usage(format!("unknown argument `{other}`"))),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    o.child = child.map(|w| (w, rep));
    Ok(Some(o))
}

/// The workload order of round `round`: forward on even rounds, reversed
/// on odd ones.
fn round_order(n: usize, round: usize) -> Vec<usize> {
    if round.is_multiple_of(2) {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    }
}

/// The interleaved schedule of `rounds` repetitions over `n` workloads,
/// as `(repetition, workload index)` in execution order.
#[cfg(test)]
fn schedule(n: usize, rounds: usize) -> Vec<(usize, usize)> {
    (0..rounds)
        .flat_map(|r| round_order(n, r).into_iter().map(move |w| (r, w)))
        .collect()
}

/// A fixed, `std`-only loop run before each child, in milliseconds: its
/// drift over a run is the host's drift.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs one child command to completion (killing it after `timeout`) and
/// parses the JSON object on its last line of output.
fn run_child(mut cmd: Command, timeout: Duration) -> Result<Json, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child killed after {}s", timeout.as_secs()));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for child: {e}"));
            }
        }
    };
    // A child's output is one short line (and a panic message), well
    // inside a pipe's buffer, so reading after exit cannot deadlock.
    let (mut out, mut err) = (String::new(), String::new());
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut out);
    }
    if let Some(mut pipe) = child.stderr.take() {
        let _ = pipe.read_to_string(&mut err);
    }
    let last = |text: &str| {
        text.lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("")
            .to_string()
    };
    if !status.success() {
        let detail = last(&err);
        return Err(if detail.is_empty() {
            format!("child {status}")
        } else {
            format!("child {status}: {detail}")
        });
    }
    Json::parse(&last(&out)).map_err(|e| format!("unreadable child output: {e}"))
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
struct Agg {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    /// End-to-end samples from untraced children.
    e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer samples from traced children (and the parent's own).
    layers: BTreeMap<String, Vec<f64>>,
    minstr_traced: Vec<f64>,
    /// `(repetition, ops, fingerprint, retired, ipc)` of each clean child.
    clean: Vec<(u32, u64, String, u64, f64)>,
    spans: Vec<(String, u64, u64, u64)>,
}

impl Agg {
    fn fail(&mut self, rep: u32, ops: u64, reason: String) {
        self.failed += ops;
        self.reasons
            .push(format!("rep {rep}: {}", one_line(&reason)));
    }

    fn record(
        &mut self,
        rep: u32,
        traced: bool,
        calib_ms: f64,
        outcome: Result<Sample, String>,
        ops: u64,
    ) {
        self.layers
            .entry("host.calib_ms".to_string())
            .or_default()
            .push(calib_ms);
        let s = match outcome {
            Ok(s) => s,
            Err(reason) => {
                self.attempted += ops;
                return self.fail(rep, ops, reason);
            }
        };
        self.attempted += s.ops;
        if s.failed > 0 {
            let reason = s.reason.unwrap_or_else(|| "failed".to_string());
            return self.fail(rep, s.failed, reason);
        }
        let minstr = s.retired as f64 / s.window_s / 1e6;
        self.clean
            .push((rep, s.ops, s.fingerprint, s.retired, s.ipc));
        self.layers
            .entry("sim.ipc".to_string())
            .or_default()
            .push(s.ipc);
        if traced {
            self.minstr_traced.push(minstr);
            for (k, v) in s.layers {
                self.layers.entry(k).or_default().push(v);
            }
            self.spans = s.spans;
        } else {
            for (k, v) in [
                ("minstr_per_s", minstr),
                ("kcycles_per_s", s.cycles as f64 / s.window_s / 1e3),
                ("setup_s", s.setup_s),
                ("peak_rss_mb", s.rss_mb),
            ] {
                self.e2e.entry(k).or_default().push(v);
            }
        }
    }

    /// Cross-checks the clean children: one fingerprint across every
    /// repetition, equal to the pinned one when `pinned` has it.
    fn check(&mut self, pinned: Option<&Json>, seed: u64) {
        let Some((rep0, _, first, retired, ipc)) = self.clean.first().cloned() else {
            return;
        };
        if let Some(why) = expected_mismatch(pinned, seed, &first, retired, ipc) {
            // The simulation is deterministic: a wrong result is wrong in
            // every repetition.
            self.failed = self.attempted;
            self.reasons.push(why);
            return;
        }
        let strays: Vec<(u32, u64, String)> = self
            .clean
            .iter()
            .filter(|c| c.2 != first)
            .map(|c| (c.0, c.1, c.2.clone()))
            .collect();
        for (rep, ops, fp) in strays {
            let why = format!("fingerprint {fp} differs from repetition {rep0}'s {first}");
            self.fail(rep, ops, why);
        }
    }
}

fn one_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

/// Why a workload's results differ from its pinned entry, if they do. An
/// entry with a `seed` member pins that seed only (the `gen:` program
/// changes with the seed); one without pins every seed.
fn expected_mismatch(
    entry: Option<&Json>,
    seed: u64,
    fingerprint: &str,
    retired: u64,
    ipc: f64,
) -> Option<String> {
    let entry = entry?;
    if entry
        .get("seed")
        .and_then(Json::as_u64)
        .is_some_and(|s| s != seed)
    {
        return None;
    }
    let want_fp = entry.get("fingerprint").and_then(Json::as_str);
    let want_retired = entry.get("retired").and_then(Json::as_u64);
    let want_ipc = entry.get("sim_ipc").and_then(Json::as_f64);
    if want_fp != Some(fingerprint) {
        return Some(format!(
            "fingerprint {fingerprint} differs from the pinned {}",
            want_fp.unwrap_or("(none)")
        ));
    }
    if want_retired != Some(retired) {
        return Some(format!(
            "retired {retired} differs from the pinned {want_retired:?}"
        ));
    }
    if want_ipc != Some(ipc) {
        return Some(format!(
            "sim_ipc {ipc} differs from the pinned {want_ipc:?}"
        ));
    }
    None
}

/// A failure that stops the run before any measurement.
enum Fatal {
    Usage(Usage),
    Setup(String),
}

fn child_command(exe: &Path, w: Workload, rep: u32, o: &Options, traced: bool) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        w.name(),
        "--rep",
        &rep.to_string(),
        "--seed",
        &o.seed.to_string(),
    ]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--trace");
    }
    cmd
}

fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::object().with("value", value).with("unit", unit)
}

fn run(o: &Options) -> Result<bool, Fatal> {
    let json_path = o
        .json
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    let expected = Json::parse(EXPECTED).expect("expected.json parses (a unit test checks)");
    std::fs::create_dir_all(OUT_DIR)
        .map_err(|e| Fatal::Setup(format!("creating {OUT_DIR}: {e}")))?;
    // Fail on an unwritable results path now, not after the whole run.
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(&json_path)
        .map_err(|e| Fatal::Usage(Usage(format!("--json {}: {e}", json_path.display()))))?;
    let exe =
        std::env::current_exe().map_err(|e| Fatal::Setup(format!("locating own binary: {e}")))?;

    let reps = o.reps.unwrap_or(if o.trace || o.smoke { 1 } else { 7 });
    let min_rounds = o.reps.unwrap_or(if o.trace || o.smoke { 1 } else { 3 });
    let mut aggs: Vec<Agg> = o.workloads.iter().map(|_| Agg::default()).collect();
    let started = Instant::now();
    let mut round = 0usize;
    loop {
        for wi in round_order(o.workloads.len(), round) {
            let w = o.workloads[wi];
            let kinds: &[bool] = match (o.trace, round % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in kinds {
                let calib_ms = calibrate();
                let rep = round as u32;
                let outcome = run_child(child_command(&exe, w, rep, o, traced), CHILD_TIMEOUT)
                    .and_then(|line| Sample::from_json(&line));
                aggs[wi].record(rep, traced, calib_ms, outcome, w.ops());
            }
        }
        round += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / round as f64;
        let done = match o.seconds {
            Some(s) => round >= min_rounds as usize && elapsed + per_round > s as f64,
            None => round >= reps as usize,
        };
        if done {
            break;
        }
    }

    let mode = if o.smoke { "smoke" } else { "full" };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = host_cpu();
    println!(
        "tracefill-perf: seed {}, {round} round(s){}, {nproc} CPUs, {cpu}",
        o.seed,
        if o.trace { " traced" } else { "" }
    );
    println!(
        "{:<18} {:<31} {:<11} {:>12} {:>12} {:>12} {:>4}  tail",
        "workload", "metric", "unit", "median", "p25", "p75", "n"
    );

    let single = o.workloads.len() == 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last_metrics = Json::object();
    let mut results = Json::object();
    for (w, agg) in o.workloads.iter().zip(&mut aggs) {
        agg.check(expected.get(mode).and_then(|m| m.get(w.name())), o.seed);
        if o.trace {
            if let (Some(untraced), false) =
                (agg.e2e.get("minstr_per_s"), agg.minstr_traced.is_empty())
            {
                let (u, t) = (stats::median(untraced), stats::median(&agg.minstr_traced));
                agg.layers
                    .entry("trace.overhead_pct".to_string())
                    .or_default()
                    .push((u - t) / u * 100.0);
            }
        }
        let tables: &[&[(&str, &str)]] = if o.trace {
            &[metrics::END_TO_END, metrics::PER_LAYER]
        } else {
            &[metrics::END_TO_END]
        };
        let shown: Vec<(&str, &[f64])> = tables
            .iter()
            .flat_map(|t| t.iter())
            .map(|(n, _)| {
                let samples = agg.e2e.get(n).or_else(|| agg.layers.get(*n));
                (*n, samples.map_or(&[][..], Vec::as_slice))
            })
            .collect();
        let missing: Vec<&str> = shown
            .iter()
            .filter(|(_, s)| s.is_empty())
            .map(|(n, _)| *n)
            .collect();
        if !missing.is_empty() && agg.failed == 0 {
            // Clean children that lack a metric: a bug in this program.
            agg.failed = agg.attempted;
            agg.reasons
                .push(format!("no samples of {}", missing.join(", ")));
        }
        attempted += agg.attempted;
        failed += agg.failed;
        for r in &agg.reasons {
            eprintln!("tracefill-perf: {}: {r}", w.name());
        }

        let mut detail = Json::object();
        let mut layer_doc = Json::object();
        for (name, samples) in shown.into_iter().filter(|(_, s)| !s.is_empty()) {
            let unit = metrics::unit(name);
            let s = stats::summarize(samples);
            let tail = s
                .tail
                .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.6}"));
            println!(
                "{:<18} {:<31} {:<11} {:>12.6} {:>12.6} {:>12.6} {:>4}  {tail}",
                w.name(),
                name,
                unit,
                s.median,
                s.p25,
                s.p75,
                s.n
            );
            let is_layer = metrics::PER_LAYER.iter().any(|(n, _)| *n == name);
            if is_layer == o.trace {
                let key = if single {
                    name.to_string()
                } else {
                    format!("{}.{name}", w.name())
                };
                last_metrics = last_metrics.with(&key, metric_json(s.median, unit));
            }
            if is_layer {
                layer_doc = layer_doc.with(name, metric_json(s.median, unit));
            }
            detail = detail.with(
                name,
                Json::object()
                    .with("unit", unit)
                    .with("median", s.median)
                    .with("p25", s.p25)
                    .with("p75", s.p75)
                    .with("n", s.n)
                    .with(
                        "samples",
                        Json::Arr(samples.iter().map(|&v| Json::from(v)).collect()),
                    ),
            );
        }
        let fingerprint = agg.clean.first().map_or("", |c| c.2.as_str());
        results = results.with(
            w.name(),
            Json::object()
                .with("correct", agg.failed == 0)
                .with("attempted", agg.attempted)
                .with("failed", agg.failed)
                .with(
                    "reasons",
                    Json::Arr(agg.reasons.iter().map(|r| Json::from(r.as_str())).collect()),
                )
                .with("fingerprint", fingerprint)
                .with("retired", agg.clean.first().map_or(0, |c| c.3))
                .with("sim_ipc", agg.clean.first().map_or(0.0, |c| c.4))
                .with("metrics", detail),
        );
        if o.trace {
            let spans = agg
                .spans
                .iter()
                .map(|(n, calls, total, own)| {
                    Json::object()
                        .with("name", n.as_str())
                        .with("calls", *calls)
                        .with("total_ms", *total as f64 / 1e6)
                        .with("self_ms", *own as f64 / 1e6)
                })
                .collect();
            let doc = Json::object()
                .with("workload", w.name())
                .with("seed", o.seed)
                .with("metrics", layer_doc)
                .with("spans", Json::Arr(spans));
            let path = Path::new(OUT_DIR).join(format!("layers-{}.json", w.name()));
            std::fs::write(&path, doc.dump_pretty(2))
                .map_err(|e| Fatal::Setup(format!("writing {}: {e}", path.display())))?;
        }
    }

    let correct = failed == 0;
    let doc = Json::object()
        .with("seed", o.seed)
        .with("mode", mode)
        .with("traced", o.trace)
        .with("rounds", round)
        .with(
            "host",
            Json::object()
                .with("nproc", nproc)
                .with("cpu", cpu.as_str()),
        )
        .with("correct", correct)
        .with("workloads", results);
    std::fs::write(&json_path, doc.dump_pretty(2))
        .map_err(|e| Fatal::Setup(format!("writing {}: {e}", json_path.display())))?;
    let last = Json::object()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", last_metrics);
    println!("{}", last.dump());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(Usage(msg)) => {
            eprintln!("tracefill-perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((w, rep)) = o.child {
        let line = workload::child(w, rep, o.seed, o.smoke, o.trace, Path::new(OUT_DIR));
        println!("{}", line.dump());
        return ExitCode::SUCCESS;
    }
    match run(&o) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(Fatal::Usage(Usage(msg))) => {
            eprintln!("tracefill-perf: {msg}");
            ExitCode::from(2)
        }
        Err(Fatal::Setup(msg)) => {
            eprintln!("tracefill-perf: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn schedule_interleaves_and_alternates_direction() {
        assert_eq!(
            schedule(3, 3),
            vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 1),
                (1, 0),
                (2, 0),
                (2, 1),
                (2, 2)
            ]
        );
        // Every workload runs once per round, and over two rounds each
        // one's mean position is the same.
        let s = schedule(4, 2);
        for w in 0..4 {
            let pos: usize = s
                .iter()
                .enumerate()
                .filter(|(_, x)| x.1 == w)
                .map(|(i, _)| i % 4)
                .sum();
            assert_eq!(pos, 3, "workload {w}");
        }
    }

    #[test]
    fn driver_style_arguments_parse() {
        let o = parse_args(&args(
            "--workload sweep-observed --seed 7 --seconds 20 --trace 0",
        ))
        .expect("valid")
        .expect("not help");
        assert_eq!(o.workloads, vec![Workload::SweepObserved]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(20), false));
        let o = parse_args(&args("--only m88k-all,gen24-fullwindow --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!(
            o.workloads,
            vec![Workload::M88kAll, Workload::Gen24FullWindow]
        );
        assert!(o.trace);
        let o = parse_args(&args("--trace --smoke")).unwrap().unwrap();
        assert!(o.trace && o.smoke);
        assert_eq!(o.workloads, Workload::ALL.to_vec());
        assert_eq!(parse_args(&args("--help")), Ok(None));
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            "--only nonesuch",
            "--reps 0",
            "--seed x1",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_child_that_exits_non_zero_is_a_reason_not_a_panic() {
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo partial; echo 'thread main panicked: boom' >&2; exit 3",
        ]);
        let err = run_child(cmd, Duration::from_secs(30)).unwrap_err();
        assert!(
            err.contains("exit status: 3") && err.contains("boom"),
            "{err}"
        );

        let mut cmd = Command::new("sh");
        cmd.args(["-c", "sleep 5"]);
        let err = run_child(cmd, Duration::from_millis(50)).unwrap_err();
        assert!(err.contains("killed"), "{err}");

        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            r#"echo noise; echo '{"ops":1,"failed":1,"reason":"x"}'"#,
        ]);
        let line = run_child(cmd, Duration::from_secs(30)).expect("clean exit");
        assert_eq!(Sample::from_json(&line).expect("parses").failed, 1);

        let mut agg = Agg::default();
        agg.record(2, false, 1.0, Err("child exit status: 3".to_string()), 8);
        assert_eq!((agg.attempted, agg.failed), (8, 8));
        assert_eq!(agg.reasons, vec!["rep 2: child exit status: 3"]);
    }

    #[test]
    fn a_corrupted_pinned_fingerprint_fails_every_op() {
        let pinned =
            Json::parse(r#"{"fingerprint":"0123456789abcdef","retired":100,"sim_ipc":2.5}"#)
                .unwrap();
        assert_eq!(
            expected_mismatch(Some(&pinned), 1, "0123456789abcdef", 100, 2.5),
            None
        );
        let why =
            expected_mismatch(Some(&pinned), 1, "fedcba9876543210", 100, 2.5).expect("mismatch");
        assert!(why.contains("fingerprint"), "{why}");
        assert!(expected_mismatch(Some(&pinned), 1, "0123456789abcdef", 101, 2.5).is_some());
        assert!(expected_mismatch(Some(&pinned), 1, "0123456789abcdef", 100, 2.4).is_some());
        // A seed-specific pin applies to that seed only.
        let seeded = pinned.clone().with("seed", 1u64);
        assert!(expected_mismatch(Some(&seeded), 2, "fedcba9876543210", 1, 1.0).is_none());
        assert!(expected_mismatch(None, 1, "x", 1, 1.0).is_none());

        let sample = |fp: &str| Sample {
            ops: 1,
            retired: 100,
            cycles: 40,
            window_s: 1.0,
            ipc: 2.5,
            fingerprint: fp.to_string(),
            ..Sample::default()
        };
        let mut agg = Agg::default();
        agg.record(0, false, 1.0, Ok(sample("fedcba9876543210")), 1);
        agg.record(1, false, 1.0, Ok(sample("fedcba9876543210")), 1);
        agg.check(Some(&pinned), 1);
        assert_eq!((agg.attempted, agg.failed), (2, 2));

        let mut agg = Agg::default();
        agg.record(0, false, 1.0, Ok(sample("0123456789abcdef")), 1);
        agg.record(1, false, 1.0, Ok(sample("fedcba9876543210")), 1);
        agg.check(None, 1);
        assert_eq!(agg.failed, 1, "the repetition that disagrees fails");
    }

    #[test]
    fn pinned_results_cover_every_workload_in_both_modes() {
        let doc = Json::parse(EXPECTED).expect("expected.json parses");
        for mode in ["full", "smoke"] {
            for w in Workload::ALL {
                let e = doc.get(mode).and_then(|m| m.get(w.name()));
                assert!(
                    e.and_then(|e| e.get("fingerprint")).is_some(),
                    "{mode} {}",
                    w.name()
                );
                // Only the gen: program changes with the seed.
                let seeded = w == Workload::Gen24FullWindow;
                assert_eq!(
                    e.and_then(|e| e.get("seed")).is_some(),
                    seeded,
                    "{mode} {}",
                    w.name()
                );
            }
        }
    }
}
