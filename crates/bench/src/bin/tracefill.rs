//! `tracefill` — command-line driver for the simulator. Run it without
//! arguments for the usage text.
//!
//! The sweep subcommands share the harness: `verify`, `suite`, `ledger`
//! and `adapt` expand a campaign grid and run it through the harness
//! runner on the pool's order-preserving map, and `inject` and `heal` are
//! two renderings of one harness fault sweep, whose outcome taxonomy
//! `report --format repair` also uses.
//!
//! Each subcommand's synopsis in [`COMMANDS`] declares the flags it takes;
//! any other flag is a usage error (exit 2) naming it. Numeric flags are
//! parsed strictly: a malformed value is a usage error, never a silent
//! fall-back to the default. A zero-sized axis
//! (`--trials 0`, `--budget 0`, an empty `--opts`, `--kinds` or `--bench`)
//! exits 1 with a message naming the flag.

use std::process::exit;
use tracefill_core::config::{ControllerMode, OptConfig, ReplacementKind};
use tracefill_core::QuarantineConfig;
use tracefill_harness::{
    pool, report, run_adapt, run_campaign_with, runner, store, AdaptSpec, CampaignOptions,
    CampaignSpec, CampaignSummary, FaultSweep, OptPoint, Outcome, ResultStore, RunStatus,
    SpecError, Tally,
};
use tracefill_isa::asm::assemble;
use tracefill_isa::interp::Interp;
use tracefill_isa::syscall::IoCtx;
use tracefill_isa::Program;
use tracefill_sim::{FaultKind, RunExit, SimConfig, Simulator};
use tracefill_util::Json;

/// Prints a message and exits with `code`: 2 for a usage error, 1 for a
/// failure.
macro_rules! die {
    ($code:expr, $($msg:tt)+) => {{
        eprintln!($($msg)+);
        exit($code)
    }};
}

/// Unwraps a `Result`, or prints the context message followed by the
/// error and exits 1.
macro_rules! or_exit {
    ($result:expr, $($context:tt)+) => {
        $result.unwrap_or_else(|e| die!(1, "{}{e}", format_args!($($context)+)))
    };
}

/// A subcommand: its name, its synopsis and its body. The synopsis
/// declares the positional argument and every flag the subcommand takes,
/// `[--name VALUE]` for a flag with a value and `[--name]` for a switch:
/// [`check_flags`] rejects any other flag, and [`usage`] prints them all.
type Command = (&'static str, &'static str, fn(&[String]));

/// Every subcommand, in the order the usage text lists them.
const COMMANDS: [Command; 12] = [
    (
        "run",
        "<file.s> [--opts SPEC] [--replace lru|srrip|trrip] [--input a,b,c] [--max-cycles N] [--json] [--ledger] [--self-repair] [--stats-json <file>] [--trace N]",
        cmd_run,
    ),
    (
        "trace",
        "<file.s> [--out <file>] [--format jsonl|chrome] [--depth N] [--opts SPEC] [--input a,b,c] [--max-cycles N] [--ledger]",
        cmd_trace,
    ),
    ("interp", "<file.s> [--input a,b,c]", cmd_interp),
    ("characterize", "[<file.s>]", cmd_characterize),
    ("suite", "[--opts SPEC[:SPEC...]] [--budget N]", cmd_suite),
    (
        "ledger",
        "[--bench NAME[,NAME...]|all] [--opts SPEC] [--replace lru|srrip|trrip] [--seed N] [--warmup N] [--budget N] [--latency N] [--top N] [--max-cycles N] [--json] [--out <file>]",
        cmd_ledger,
    ),
    (
        "campaign",
        "<fig8|passes|spec.json> [--out results.jsonl] [--jobs N] [--quiet] [--quarantine-after K] [--wall-budget-ms N]",
        cmd_campaign,
    ),
    ("report", "<results.jsonl> [--format FORMAT]", cmd_report),
    (
        "verify",
        "[<file.s>] [--opts SPEC[:SPEC...]] [--budget N] [--max-cycles N]",
        cmd_verify,
    ),
    (
        "inject",
        "[--bench NAME] [--opts SPEC[:SPEC...]] [--seed N] [--trials N] [--faults N] [--horizon N] [--kinds a,b,c] [--detect strict|oracle|none] [--budget N] [--json] [--self-repair]",
        cmd_inject,
    ),
    (
        "heal",
        "[--bench NAME] [--opts SPEC[:SPEC...]] [--seed N] [--trials N] [--faults N] [--horizon N] [--kinds a,b,c] [--budget N] [--quarantine-after K] [--disable-after M] [--json]",
        cmd_heal,
    ),
    (
        "adapt",
        "[--bench NAME[,NAME...]|all] [--opts SPEC[:SPEC...]] [--mode egreedy[:MILLI]|ucb[:MILLI]|static:SPEC] [--seed N] [--replace lru|srrip|trrip] [--latency N] [--warmup N] [--budget N] [--epoch N] [--max-cycles N] [--json] [--out <file>]",
        cmd_adapt,
    ),
];

/// Prints the usage text, the synopses of [`COMMANDS`], and exits 2.
fn usage() -> ! {
    let mut text = String::from("usage:");
    for (name, synopsis, _) in COMMANDS {
        text = format!("{text}\n  tracefill {name} {synopsis}");
    }
    let formats: Vec<&str> = report::FORMATS.iter().map(|(name, _)| *name).collect();
    die!(
        2,
        "{text}

SPEC is `all`, `none`, or a comma list of: moves reassoc scadd placement cse
SPEC[:SPEC...] takes several SPECs separated by `:`
FORMAT is one of: {}, all",
        formats.join(", ")
    )
}

/// Checks `args` against the flags the synopsis of subcommand `name`
/// declares: an undeclared flag, or a flag that takes a value given
/// none, is a usage error.
fn check_flags(name: &str, synopsis: &str, args: &[String]) {
    // Each `[--flag VALUE]` or `[--flag]` group: the flag, and whether a
    // value follows it.
    let declared: Vec<(&str, bool)> = synopsis
        .split('[')
        .filter(|group| group.starts_with("--"))
        .map(|group| {
            let decl = group.split(']').next().unwrap_or(group);
            decl.split_once(' ')
                .map_or((decl, false), |(flag, _)| (flag, true))
        })
        .collect();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match declared.iter().find(|(flag, _)| flag == arg) {
            None => {
                eprintln!("unknown flag `{arg}` for `tracefill {name}`");
                usage()
            }
            Some((_, true)) if rest.next().is_none() => die!(2, "{arg} requires a value"),
            Some(_) => {}
        }
    }
}

/// Whether the boolean flag `name` is present.
fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value following `name`, if the flag is present ([`check_flags`]
/// has made sure a present flag has one).
fn flag_value(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

/// Strict numeric flag: absent → `default`; present but malformed →
/// usage error (exit 2). Never silently falls back.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_value(args, name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| die!(2, "invalid value `{v}` for {name}"))
    })
}

/// Exits 1 for a zero-sized count, which would measure nothing.
fn require_nonzero(flag: &str, value: u64) {
    if value == 0 {
        die!(
            1,
            "{flag} must be at least 1 (a zero-sized axis measures nothing)"
        );
    }
}

/// Splits the list `value` of flag `name` on `sep` and parses each item;
/// an empty list exits 1, since an axis that selects nothing would
/// measure nothing yet look like a pass.
fn split_list<T>(
    name: &str,
    value: &str,
    sep: char,
    what: &str,
    item: impl Fn(&str) -> T,
) -> Vec<T> {
    let list: Vec<T> = value
        .split(sep)
        .filter(|s| !s.is_empty())
        .map(item)
        .collect();
    if list.is_empty() {
        die!(1, "{name} selected no {what} (empty axis)");
    }
    list
}

fn parse_opts(spec: &str) -> OptConfig {
    OptConfig::from_name(spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

/// The `--opts` axis: `:`-separated opt specs (`default` when the flag is
/// absent) as `(spec, config)` pairs, e.g. `none:moves:all`.
fn parse_opt_axis(args: &[String], default: &str) -> Vec<(String, OptConfig)> {
    let value = flag_value(args, "--opts").unwrap_or_else(|| default.into());
    split_list("--opts", &value, ':', "optimization sets", |s| {
        (s.to_string(), parse_opts(s))
    })
}

/// The `--bench` list (`default` when absent, `all` for the whole suite)
/// as canonical suite names, plus `gen:<blocks>` workloads if `gen`. An
/// unknown name is a usage error.
fn parse_benches(args: &[String], default: &str, gen: bool) -> Vec<String> {
    let value = flag_value(args, "--bench").unwrap_or_else(|| default.into());
    if value == "all" {
        return tracefill_workloads::names()
            .iter()
            .map(|n| n.to_string())
            .collect();
    }
    let all = tracefill_workloads::names().join(", ");
    let lookup = |name: &str| match tracefill_workloads::by_name(name) {
        Some(b) => b.name.to_string(),
        None if gen && name.starts_with("gen:") => name.to_string(),
        None => die!(2, "unknown benchmark `{name}` (expected one of: {all})"),
    };
    split_list("--bench", &value, ',', "benchmarks", lookup)
}

/// The `--replace` flag: a trace-cache replacement policy (default LRU).
fn parse_replace(args: &[String]) -> ReplacementKind {
    flag_value(args, "--replace").map_or(ReplacementKind::Lru, |v| {
        ReplacementKind::parse(&v).unwrap_or_else(|e| die!(2, "{e}"))
    })
}

/// The positional argument (a file, spec or store), unless the first
/// argument is a flag.
fn optional_positional(args: &[String]) -> Option<&String> {
    args.first().filter(|a| !a.starts_with("--"))
}

/// The required positional argument; a missing one, or a flag in its
/// place, is a usage error.
fn positional(args: &[String]) -> &String {
    optional_positional(args).unwrap_or_else(|| usage())
}

/// An output-path flag, validated *before* the simulation runs: the
/// parent directory must exist and the path must not name a directory,
/// so a typo'd `--out`/`--stats-json` fails in milliseconds instead of
/// after minutes of simulated cycles.
fn out_flag(args: &[String], name: &str) -> Option<String> {
    let out = flag_value(args, name)?;
    let p = std::path::Path::new(&out);
    if p.is_dir() {
        die!(1, "cannot write {out}: path is a directory");
    }
    if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        if !parent.is_dir() {
            let parent = parent.display();
            die!(
                1,
                "cannot write {out}: parent directory `{parent}` does not exist"
            );
        }
    }
    Some(out)
}

fn write_file(path: &str, text: &str) {
    or_exit!(std::fs::write(path, text), "cannot write {path}: ");
}

/// Writes a deterministic JSON report to `out` and, under `--json`,
/// prints it; returns whether the caller should print its human-readable
/// form instead.
fn emit_report(args: &[String], out: Option<String>, what: &str, doc: &Json) -> bool {
    let text = doc.dump_pretty(2) + "\n";
    if let Some(out) = out {
        write_file(&out, &text);
        eprintln!("wrote {what} report -> {out}");
    }
    if has(args, "--json") {
        print!("{text}");
    }
    !has(args, "--json")
}

/// The member at `path` inside `v`.
fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// The number at `path` inside `v` (0 if absent).
fn num(v: &Json, path: &[&str]) -> f64 {
    at(v, path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The count at `path` inside `v` (0 if absent).
fn count(v: &Json, path: &[&str]) -> u64 {
    at(v, path).and_then(Json::as_u64).unwrap_or(0)
}

/// The string at `path` inside `v` (`?` if absent).
fn text<'a>(v: &'a Json, path: &[&str]) -> &'a str {
    at(v, path).and_then(Json::as_str).unwrap_or("?")
}

/// Assembles the program at `path`, or exits 1 naming the file: it cannot
/// be read, does not assemble, or has no instructions to run.
fn load(path: &str) -> Program {
    let src = or_exit!(std::fs::read_to_string(path), "cannot read {path}: ");
    let prog = or_exit!(assemble(&src), "{path}: ");
    if prog.text_words().next().is_none() {
        die!(1, "{path}: no instructions");
    }
    prog
}

fn parse_input(args: &[String]) -> IoCtx {
    flag_value(args, "--input").map_or_else(IoCtx::default, |list| {
        IoCtx::with_input(list.split(',').filter(|p| !p.is_empty()).map(|p| {
            p.parse()
                .unwrap_or_else(|_| die!(2, "bad input value `{p}`"))
        }))
    })
}

/// Runs the positional program, fed `--input`, on the `--opts` machine
/// (`--ledger` on or off, pipeline trace `trace_depth` deep, then
/// `adjust`ed) for at most `--max-cycles`.
fn simulate(
    args: &[String],
    trace_depth: usize,
    adjust: impl FnOnce(&mut SimConfig),
) -> (Simulator, RunExit) {
    let prog = load(positional(args));
    let opts = parse_opts(&flag_value(args, "--opts").unwrap_or_else(|| "all".into()));
    let max_cycles: u64 = parse_flag(args, "--max-cycles", 200_000_000);
    require_nonzero("--max-cycles", max_cycles);
    let mut cfg = SimConfig {
        trace_depth,
        ..SimConfig::with_opts(opts)
    };
    cfg.ledger = has(args, "--ledger");
    adjust(&mut cfg);
    let mut sim = Simulator::with_io(&prog, cfg, parse_input(args));
    let exit = or_exit!(sim.run(max_cycles), "simulation error: ");
    (sim, exit)
}

fn cmd_run(args: &[String]) {
    let trace_depth: usize = parse_flag(args, "--trace", 0);
    let stats_json = out_flag(args, "--stats-json");
    let (sim, exit_state) = simulate(args, trace_depth, |cfg| {
        cfg.tcache.policy = parse_replace(args);
        cfg.self_repair.enabled = has(args, "--self-repair");
    });
    let report = sim.report();
    if let Some(stats_path) = stats_json {
        write_file(&stats_path, &(report.to_json().dump_pretty(2) + "\n"));
    }
    if has(args, "--json") {
        println!("{}", report.to_json().dump_pretty(2));
        return;
    }
    let s = report.stats;
    println!("exit        : {exit_state:?}");
    println!("output      : {:?}", sim.io().output);
    println!("cycles      : {}", s.cycles);
    println!("retired     : {}", s.retired);
    println!("IPC         : {:.3}", s.ipc());
    println!("from TC     : {:.1}%", s.tc_fraction() * 100.0);
    println!("TC hit rate : {:.1}%", report.tcache.hit_rate() * 100.0);
    println!("mispredict  : {:.2}%", s.mispredict_rate() * 100.0);
    let (moves, reassoc, scadd) = (s.retired_moves, s.retired_reassoc, s.retired_scadd);
    let transformed = s.transformed_fraction() * 100.0;
    println!("transformed : {transformed:.1}% (moves {moves} / reassoc {reassoc} / scadd {scadd})");
    let delayed = s.bypass_delay_fraction() * 100.0;
    println!("bypass-delayed: {delayed:.1}% of FU-executed instructions");
    let repairs = sim.repairs();
    if !repairs.is_empty() {
        let n = repairs.len();
        println!("self-repair : {n} contained failure(s) (see `tracefill heal` for a sweep)");
        for ev in repairs {
            println!("  {ev}");
        }
    }
    let led = sim.ledger();
    if led.enabled() {
        let hits: u64 = led.records().map(|r| r.hits).sum();
        let (segs, doa) = (led.len(), led.records().filter(|r| r.is_doa()).count());
        println!("ledger      : {segs} segments, {hits} hits, {doa} dead-on-arrival (see `tracefill ledger`)");
    }
    let cpi = report.cpi;
    if cpi.base > 0 {
        println!("CPI stack   : {:.4} total", 1.0 / s.ipc());
        println!("  {:<15} {:.4}", "base", cpi.cpi_of(cpi.base));
        for (name, slots) in cpi.stall_slots() {
            if slots > 0 {
                println!("  {:<15} {:.4}", name, cpi.cpi_of(slots));
            }
        }
    }
    if trace_depth > 0 {
        println!("--- last {} pipeline events ---", sim.trace().len());
        print!("{}", sim.trace().render());
    }
}

fn cmd_trace(args: &[String]) {
    let depth: usize = parse_flag(args, "--depth", 65_536);
    require_nonzero("--depth", depth as u64);
    let format = flag_value(args, "--format").unwrap_or_else(|| "jsonl".into());
    let chrome = match format.as_str() {
        "chrome" => true,
        // Only the chrome export has segment tracks to carry the ledger.
        "jsonl" if has(args, "--ledger") => die!(2, "--ledger needs --format chrome"),
        "jsonl" => false,
        _ => die!(
            2,
            "unknown trace format `{format}` (expected jsonl, chrome)"
        ),
    };
    let out = out_flag(args, "--out");
    let (sim, _) = simulate(args, depth, |_| {});
    // With the ledger on, the chrome export gains one track per segment
    // life (fill → eviction) alongside the pipeline events.
    let text = if chrome {
        let trace = sim.trace().to_chrome_trace(sim.ledger(), sim.cycle());
        trace.dump_pretty(2) + "\n"
    } else {
        sim.trace().to_jsonl()
    };
    match out {
        Some(out) => {
            write_file(&out, &text);
            let (events, bytes) = (sim.trace().len(), text.len());
            eprintln!("wrote {events} events ({bytes} bytes, {format}) -> {out}");
        }
        None => print!("{text}"),
    }
}

fn cmd_interp(args: &[String]) {
    let prog = load(positional(args));
    let mut i = Interp::with_io(&prog, parse_input(args));
    let h = or_exit!(i.run(2_000_000_000), "fault: ");
    println!("halt   : {h:?}");
    println!("instrs : {}", i.icount());
    println!("output : {:?}", i.io().output);
}

/// Table 1: the suite with the paper's instruction counts and inputs,
/// then each kernel's realized dynamic mix.
fn print_table1() {
    println!("=== Table 1: benchmarks ===");
    let desc = "description";
    println!(
        "{:8} {:>10} {:>12}   {:>12} {desc}",
        "bench", "paper inst", "paper input", "kernel i/s"
    );
    for b in tracefill_workloads::suite() {
        println!(
            "{:8} {:>10} {:>12.12}   {:>12} {}",
            b.name, b.paper_icount, b.paper_input, b.instrs_per_scale, b.description
        );
    }
    println!("\nRealized dynamic mix (fill-unit view, 60k instructions each):");
    println!(
        "{:8} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "bench", "moves%", "reassoc%", "scadd%", "branch%", "load%", "store%"
    );
    for b in tracefill_workloads::suite() {
        let prog = or_exit!(b.program(b.scale_for(80_000)), "{}: ", b.name);
        let c = tracefill_workloads::characterize(&prog, 60_000);
        let pct = [c.moves, c.reassoc, c.scadd, c.branches, c.loads, c.stores].map(|f| f * 100.0);
        let [moves, reassoc, scadd, branches, loads, stores] = pct;
        println!(
            "{:8} {moves:7.1} {reassoc:8.1} {scadd:7.1} {branches:7.1} {loads:7.1} {stores:7.1}",
            b.name
        );
    }
}

/// The dynamic mix of the file's program, or Table 1 without a file.
fn cmd_characterize(args: &[String]) {
    let Some(path) = optional_positional(args) else {
        return print_table1();
    };
    let prog = load(path);
    let c = tracefill_workloads::characterize(&prog, 1_000_000);
    println!("instructions measured : {}", c.instrs);
    println!("register-move idioms  : {:5.2}%", c.moves * 100.0);
    println!("reassociable chains   : {:5.2}%", c.reassoc * 100.0);
    println!("scaled-add pairs      : {:5.2}%", c.scadd * 100.0);
    println!("total transformable   : {:5.2}%", c.total() * 100.0);
    println!("conditional branches  : {:5.2}%", c.branches * 100.0);
    let (loads, stores) = (c.loads * 100.0, c.stores * 100.0);
    println!("loads / stores        : {loads:5.2}% / {stores:.2}%");
}

/// The suite's IPC gain per opt set over the `none` baseline: one
/// campaign grid (warmup and measured window of `--budget` instructions
/// each) run through the harness runner and rendered as the Figure 8
/// table.
fn cmd_suite(args: &[String]) {
    let mut opt_sets = vec![OptPoint {
        label: "none".into(),
        opts: OptConfig::none(),
    }];
    for (_, opts) in parse_opt_axis(args, "all") {
        let label = opts.label();
        if opt_sets.iter().all(|p| p.label != label) {
            opt_sets.push(OptPoint { label, opts });
        }
    }
    let budget: u64 = parse_flag(args, "--budget", 100_000);
    require_nonzero("--budget", budget);
    let spec = CampaignSpec {
        name: "suite".into(),
        opt_sets,
        fill_latencies: vec![1],
        warmup: budget,
        budget,
        ..CampaignSpec::fig8()
    };
    let records = pool::execute_all(&spec.expand(), &spec.name);
    // The table has no row for a failed run, so name them and fail.
    let failed = records.iter().filter(|r| !r.status.is_ok());
    let failed: Vec<String> = failed
        .map(|r| format!("{} opts={} ended {}", r.bench, r.opt_label, r.status))
        .collect();
    if !failed.is_empty() {
        die!(1, "suite: not every run ended ok:\n{}", failed.join("\n"));
    }
    print!("{}", report::fig8_table(&records));
}

/// Resolves a campaign argument: a builtin name (`fig8`, `passes`) or a
/// path to a JSON spec file.
fn load_spec(arg: &str) -> CampaignSpec {
    if let Some(spec) = CampaignSpec::builtin(arg) {
        return spec;
    }
    let text = or_exit!(
        std::fs::read_to_string(arg),
        "`{arg}` is not a builtin campaign (fig8, passes) and cannot be read as a spec file: "
    );
    match CampaignSpec::from_json(&text) {
        Ok(spec) => spec,
        // A misspelt or mistyped key is a usage error, like a bad flag.
        Err(e @ SpecError::Keys(_)) => die!(2, "{arg}: {e}"),
        Err(e) => die!(1, "{arg}: {e}"),
    }
}

fn cmd_campaign(args: &[String]) {
    let spec = load_spec(positional(args));
    let out = flag_value(args, "--out").unwrap_or_else(|| format!("{}.jsonl", spec.name));
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs: usize = parse_flag(args, "--jobs", cores);
    require_nonzero("--jobs", jobs as u64);
    let options = CampaignOptions {
        jobs,
        live_progress: !has(args, "--quiet"),
        quarantine_after: parse_flag(args, "--quarantine-after", 3),
        cancel: None,
        wall_budget_ms: parse_flag(args, "--wall-budget-ms", 0),
    };

    let mut store = or_exit!(ResultStore::open(&out), "cannot open {out}: ");
    let summary = or_exit!(
        run_campaign_with(&spec, &mut store, &options),
        "campaign failed: "
    );
    let (name, secs) = (&spec.name, summary.wall_ms as f64 / 1000.0);
    let CampaignSummary {
        total,
        skipped,
        executed,
        failed,
        quarantined,
        cancelled,
        ..
    } = summary;
    println!("campaign `{name}`: {total} runs ({skipped} resumed, {executed} executed, {failed} failed, {quarantined} quarantined) in {secs:.1}s -> {out}");
    if cancelled {
        eprintln!("note: campaign was cancelled (wall budget); resume with the same command");
    }
    if failed > 0 {
        eprintln!("note: {failed} run(s) did not finish Ok; see `tracefill report {out} --format summary`");
    }
}

/// Lockstep-oracle verification: every workload (or one file) under every
/// requested optimization set, strict segment verification *and*
/// retire-time oracle checking on, each run through the harness runner.
/// A run passes only if it ends `ok`; any other status (a divergence, a
/// watchdog, a panic) prints its report and fails the command.
fn cmd_verify(args: &[String]) {
    let opt_list = parse_opt_axis(args, "none:moves:reassoc:scadd:placement:cse:all");
    let budget: u64 = parse_flag(args, "--budget", 30_000);
    let max_cycles: u64 = parse_flag(args, "--max-cycles", 5_000_000);
    require_nonzero("--budget", budget);
    require_nonzero("--max-cycles", max_cycles);

    let file = optional_positional(args);
    let mut spec = CampaignSpec {
        name: "verify".into(),
        opt_sets: opt_list
            .into_iter()
            .map(|(label, opts)| OptPoint { label, opts })
            .collect(),
        fill_latencies: vec![1],
        warmup: 0,
        budget,
        max_cycles,
        ..CampaignSpec::fig8()
    };
    let records = match file {
        Some(path) => {
            let prog = load(path);
            spec.benchmarks = vec![path.clone()];
            pool::run_all(&spec.expand(), "verify", |desc| {
                runner::run_program(desc, &prog, runner::sim_config(desc), "verify", None).0
            })
        }
        None => pool::execute_all(&spec.expand(), "verify"),
    };

    for rec in &records {
        let (name, label, status) = (&rec.bench, &rec.opt_label, &rec.status);
        let (retired, cycles) = (rec.stats.retired, rec.stats.cycles);
        match status {
            RunStatus::Ok => {
                println!("PASS {name:<8} opts={label:<26} retired={retired} cycles={cycles}");
            }
            _ => eprintln!("FAIL {name} opts={label} ended {status}"),
        }
    }
    let passed = records.iter().filter(|r| r.status.is_ok()).count();
    let diverged = records
        .iter()
        .filter(|r| matches!(r.status, RunStatus::SimError(_)))
        .count();
    let failed = records.len() - passed - diverged;
    let failed_note = (failed > 0).then(|| format!(", {failed} failed"));
    println!(
        "verify: {passed} configuration(s) passed, {diverged} diverged{} (budget {budget} instrs each)",
        failed_note.unwrap_or_default()
    );
    if passed < records.len() {
        exit(1);
    }
}

/// The flags `inject` and `heal` share — one benchmark, the opt-set cells
/// (each cell's machine built by `machine`) and the fault-plan shape —
/// and the sweep's tallies, one per cell.
fn fault_sweep(
    args: &[String],
    machine: impl Fn(OptConfig) -> SimConfig,
) -> (FaultSweep, Vec<Tally>) {
    let mut benches = parse_benches(args, "m88k", false);
    if benches.len() > 1 {
        die!(2, "--bench takes a single benchmark for a fault sweep");
    }
    let kinds = flag_value(args, "--kinds").map_or_else(
        || FaultKind::ALL.to_vec(),
        |list| {
            split_list("--kinds", &list, ',', "fault kinds", |s| {
                FaultKind::parse(s).unwrap_or_else(|| {
                    let all = FaultKind::ALL.map(FaultKind::name).join(", ");
                    die!(2, "unknown fault kind `{s}` (expected: {all})")
                })
            })
        },
    );
    let cells = parse_opt_axis(args, "none:all").into_iter();
    let sweep = FaultSweep {
        bench: benches.remove(0),
        cells: cells.map(|(label, opts)| (label, machine(opts))).collect(),
        seed: parse_flag(args, "--seed", 1),
        trials: parse_flag(args, "--trials", 20),
        faults: parse_flag(args, "--faults", 4),
        horizon: parse_flag(args, "--horizon", 400),
        kinds,
        budget: parse_flag(args, "--budget", 20_000),
    };
    require_nonzero("--trials", sweep.trials);
    require_nonzero("--budget", sweep.budget);
    let tallies = or_exit!(sweep.run(), "");
    (sweep, tallies)
}

/// The JSON document `inject` and `heal` share: the sweep's shape, `extra`
/// members, the fault kinds, and one `row` of counts per cell.
fn sweep_json(
    sweep: &FaultSweep,
    tallies: &[Tally],
    extra: Vec<(&str, Json)>,
    row: impl Fn(&Tally) -> Vec<(&'static str, u64)>,
) -> String {
    let mut doc = Json::object()
        .with("bench", sweep.bench.as_str())
        .with("seed", sweep.seed)
        .with("trials", sweep.trials)
        .with("faults_per_trial", sweep.faults)
        .with("horizon", sweep.horizon);
    for (key, value) in extra {
        doc = doc.with(key, value);
    }
    let mut results = Json::object();
    for ((label, _), tally) in sweep.cells.iter().zip(tallies) {
        let cell = row(tally)
            .into_iter()
            .fold(Json::object(), |j, (k, v)| j.with(k, v));
        results = results.with(label, cell);
    }
    let kinds = sweep.kinds.iter().map(|k| k.name()).collect::<Json>();
    doc.with("kinds", kinds)
        .with("results", results)
        .dump_pretty(2)
}

/// Deterministic fault-injection campaign: per opt set, run `--trials`
/// seeded fault plans and count each run's [`Outcome`]: detected (by which
/// layer), masked, silent (SDC), unfired, and — under `--self-repair` —
/// recovered or fatal. The same seed always produces the same table.
fn cmd_inject(args: &[String]) {
    let self_repair = has(args, "--self-repair");
    let detect = flag_value(args, "--detect").unwrap_or_else(|| "strict".into());
    if !matches!(detect.as_str(), "strict" | "oracle" | "none") {
        die!(
            2,
            "unknown detect mode `{detect}` (expected strict, oracle, none)"
        );
    }
    if self_repair && detect == "none" {
        die!(
            2,
            "--self-repair requires the lockstep oracle (--detect strict or oracle)"
        );
    }
    let (sweep, tallies) = fault_sweep(args, |opts| {
        let mut cfg = SimConfig::with_opts(opts);
        cfg.self_repair.enabled = self_repair;
        cfg.fill.strict_verify = detect == "strict";
        cfg.oracle_check = detect != "none";
        cfg
    });
    let rows = |t: &Tally| {
        let outcomes = Outcome::KEYED.map(|(o, key)| (key, t.count(o)));
        [vec![("injected", t.injected)], outcomes.to_vec()].concat()
    };
    if has(args, "--json") {
        let extra = vec![
            ("detect", Json::from(detect.as_str())),
            ("self_repair", Json::from(self_repair)),
        ];
        println!("{}", sweep_json(&sweep, &tallies, extra, rows));
        return;
    }

    let FaultSweep {
        bench,
        seed,
        trials,
        faults,
        horizon,
        ..
    } = &sweep;
    let repair = if self_repair { "on" } else { "off" };
    println!("fault injection: bench={bench} seed={seed} trials={trials} faults/trial={faults} horizon={horizon} detect={detect} self-repair={repair}");
    print!("{:<22}", "outcome");
    for (label, _) in &sweep.cells {
        print!(" {label:>12}");
    }
    println!();
    let columns: Vec<_> = tallies.iter().map(rows).collect();
    for (i, (key, _)) in columns[0].iter().enumerate() {
        print!("{key:<22}");
        for column in &columns {
            print!(" {:>12}", column[i].1);
        }
        println!();
    }
    let sdc: u64 = tallies.iter().map(|t| t.count(Outcome::Silent)).sum();
    if sdc > 0 {
        println!("note: {sdc} silent-data-corruption run(s) — re-run with --detect strict to see the checkers catch them");
    }
}

/// Self-repair availability sweep: every trial runs with the repair
/// ladder armed and the faults striking the trace-cache read path
/// (fill-side strict verify off, so *containment* — not early detection —
/// does the work). Its columns are folds of the same [`Outcome`] counts
/// `inject` prints. The sweep's contract is the acceptance bar: zero fatal
/// runs; the exit code is 1 if any armed run dies. Same seed ⇒
/// byte-identical JSON.
fn cmd_heal(args: &[String]) {
    let ladder = QuarantineConfig::default();
    let quarantine_after: u64 = parse_flag(args, "--quarantine-after", ladder.quarantine_after);
    let disable_after: u64 = parse_flag(args, "--disable-after", ladder.disable_after);
    let (sweep, tallies) = fault_sweep(args, |opts| {
        let mut cfg = SimConfig::with_opts(opts);
        cfg.fill.strict_verify = false;
        cfg.self_repair.enabled = true;
        cfg.self_repair.ladder = QuarantineConfig {
            quarantine_after,
            disable_after,
        };
        cfg
    });
    if has(args, "--json") {
        let ladder = Json::object()
            .with("quarantine_after", quarantine_after)
            .with("disable_after", disable_after);
        let row = |t: &Tally| {
            let trials = vec![("trials", sweep.trials)];
            [trials, t.columns().to_vec(), vec![("injected", t.injected)]].concat()
        };
        println!(
            "{}",
            sweep_json(&sweep, &tallies, vec![("ladder", ladder)], row)
        );
    } else {
        let FaultSweep {
            bench,
            seed,
            trials,
            faults,
            horizon,
            ..
        } = &sweep;
        println!("self-repair sweep: bench={bench} seed={seed} trials={trials} faults/trial={faults} horizon={horizon} ladder={quarantine_after}/{disable_after}");
        println!("{:<10}{}", "opts", Tally::default().table_row(true));
        for ((label, _), t) in sweep.cells.iter().zip(&tallies) {
            println!("{label:<10}{}", t.table_row(false));
        }
    }
    let fatal: u64 = tallies.iter().map(Tally::fatal).sum();
    if fatal > 0 {
        die!(1, "heal: {fatal} fatal run(s) escaped the repair ladder");
    }
}

/// Static-vs-adaptive comparison: for each benchmark, run every static
/// opt set, then one adaptive run with the online pass controller, and
/// report whether adaptation reaches the best static configuration. The
/// JSON report is deterministic — two same-seed invocations emit
/// byte-identical bytes.
fn cmd_adapt(args: &[String]) {
    let mut spec = AdaptSpec {
        benchmarks: parse_benches(args, "all", true),
        ..AdaptSpec::default()
    };
    if flag_value(args, "--opts").is_some() {
        spec.opt_specs = parse_opt_axis(args, "")
            .into_iter()
            .map(|(s, _)| s)
            .collect();
    }
    if let Some(mode) = flag_value(args, "--mode") {
        spec.mode = ControllerMode::parse(&mode).unwrap_or_else(|e| die!(2, "{e}"));
    }
    spec.seed = parse_flag(args, "--seed", spec.seed);
    spec.policy = parse_replace(args);
    spec.fill_latency = parse_flag(args, "--latency", spec.fill_latency);
    spec.warmup = parse_flag(args, "--warmup", spec.warmup);
    spec.budget = parse_flag(args, "--budget", spec.budget);
    spec.epoch_fills = parse_flag(args, "--epoch", spec.epoch_fills);
    spec.max_cycles = parse_flag(args, "--max-cycles", spec.max_cycles);
    // Zero-sized axes silently measure nothing (an epoch of 0 fills can
    // never advance the controller); reject them instead of clamping.
    require_nonzero("--epoch", spec.epoch_fills);
    require_nonzero("--budget", spec.budget);
    require_nonzero("--max-cycles", spec.max_cycles);
    let out = out_flag(args, "--out");
    let report = or_exit!(run_adapt(&spec), "adapt failed: ");
    if !emit_report(args, out, "adapt", &report) {
        return;
    }

    // Human-readable table from the deterministic report.
    let (mode, policy) = (spec.mode.label(), spec.policy.name());
    let AdaptSpec {
        seed,
        warmup,
        budget,
        epoch_fills,
        ..
    } = &spec;
    println!("adapt: controller={mode} policy={policy} seed={seed} warmup={warmup} budget={budget} epoch={epoch_fills}");
    println!(
        "{:8} {:>10} {:<12} {:>10} {:>8}",
        "bench", "best IPC", "(opts)", "adapt IPC", "delta"
    );
    for row in report
        .get("benchmarks")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let (bench, opts) = (text(row, &["bench"]), text(row, &["best_static", "opts"]));
        let (best, adaptive) = (
            num(row, &["best_static", "ipc"]),
            num(row, &["adaptive", "ipc"]),
        );
        let delta = (adaptive / best.max(1e-12) - 1.0) * 100.0;
        println!("{bench:8} {best:>10.3} {opts:<12} {adaptive:>10.3} {delta:>+7.1}%");
    }
    println!(
        "mean best-static IPC {:.3}, mean adaptive IPC {:.3} ({}/{} benches at or above best static)",
        num(&report, &["summary", "mean_best_static_ipc"]),
        num(&report, &["summary", "mean_adaptive_ipc"]),
        count(&report, &["summary", "adaptive_wins"]),
        count(&report, &["summary", "benches"]),
    );
}

/// Segment-lifetime ledger report: runs each benchmark with the ledger
/// on and folds every segment's life — fill cycle, passes applied, cache
/// hits, eviction, retired uops — into the per-pass ROI report. The JSON
/// is byte-deterministic: two same-seed invocations emit identical bytes.
fn cmd_ledger(args: &[String]) {
    let benchmarks = parse_benches(args, "all", false);
    let opt_spec = flag_value(args, "--opts").unwrap_or_else(|| "all".into());
    let opts = parse_opts(&opt_spec);
    let policy = parse_replace(args);
    let seed: u64 = parse_flag(args, "--seed", 0);
    let warmup: u64 = parse_flag(args, "--warmup", 20_000);
    let budget: u64 = parse_flag(args, "--budget", 100_000);
    let latency: u32 = parse_flag(args, "--latency", 1);
    let top: usize = parse_flag(args, "--top", 5);
    let max_cycles: u64 = parse_flag(args, "--max-cycles", 50_000_000);
    let out = out_flag(args, "--out");

    let spec = CampaignSpec {
        name: "ledger".into(),
        opt_sets: vec![OptPoint {
            label: opt_spec.clone(),
            opts,
        }],
        fill_latencies: vec![latency],
        benchmarks: benchmarks.clone(),
        seeds: vec![seed],
        // One phase: the ledger covers the whole run, warmup included.
        warmup: 0,
        budget: warmup + budget,
        max_cycles,
        policies: vec![policy.name().to_string()],
        ledger: true,
        ..CampaignSpec::fig8()
    };
    // Each benchmark's report, built on the pool from its finished run.
    let ledgers = pool::map_isolated(&spec.expand(), |desc| {
        let prog = runner::build_program(desc)?;
        let (rec, sim) = runner::run_program(desc, &prog, runner::sim_config(desc), "ledger", None);
        // A ledger covers the whole requested run or nothing: a run cut
        // short by a watchdog would report a partial one.
        if !rec.status.is_ok() {
            return Err(format!("run ended {}", rec.status));
        }
        let rep = sim.ledger().report(sim.cycle(), top);
        let human = tracefill_core::ledger::render_report(&desc.bench, &rep);
        let doc = Json::object()
            .with("cycles", sim.cycle())
            .with("retired", sim.stats().retired)
            .with("ledger", rep);
        Ok((human, doc))
    });
    let mut bench_docs = Json::object();
    let mut human = String::new();
    for (name, ledger) in benchmarks.iter().zip(ledgers) {
        let (text, doc) = or_exit!(ledger.and_then(|l| l), "{name}: ");
        human.push_str(&text);
        bench_docs = bench_docs.with(name, doc);
    }
    let doc = Json::object()
        .with("opts", opt_spec.as_str())
        .with("replace", policy.name())
        .with("latency", u64::from(latency))
        .with("seed", seed)
        .with("warmup", warmup)
        .with("budget", budget)
        .with("top", top)
        .with("benches", bench_docs);
    if emit_report(args, out, "ledger", &doc) {
        println!(
            "segment ledger: opts={opt_spec} replace={} latency={latency} seed={seed} warmup={warmup} budget={budget}",
            policy.name()
        );
        print!("{human}");
    }
}

fn cmd_report(args: &[String]) {
    let path = positional(args);
    let (records, malformed) = or_exit!(store::load_records_counted(path), "cannot read {path}: ");
    if malformed > 0 {
        eprintln!("warning: {path}: skipped {malformed} malformed row(s)");
    }
    if records.is_empty() {
        die!(1, "{path}: no parseable run records");
    }
    // `all` prints every format, in order, separated by blank lines.
    let format = flag_value(args, "--format").unwrap_or_else(|| "all".into());
    let selected: Vec<String> = report::FORMATS
        .iter()
        .filter(|(name, _)| format == "all" || format == *name)
        .map(|(_, render)| render(&records))
        .collect();
    if selected.is_empty() {
        eprintln!("unknown report format `{format}`");
        usage()
    }
    print!("{}", selected.join("\n"));
}

/// Ends the process quietly with status 141 (the shell's status for a
/// hung-up reader) when stdout closes early, as in `tracefill trace
/// prog.s | head -1`: `print!` panics on that write error, and this hook
/// intercepts exactly that panic.
fn exit_quietly_on_closed_stdout() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>();
        if msg.is_some_and(|m| m.starts_with("failed printing to stdout: Broken pipe")) {
            exit(141);
        }
        default(info);
    }));
}

fn main() {
    exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        usage()
    };
    let Some(&(_, synopsis, run)) = COMMANDS.iter().find(|(n, _, _)| n == name) else {
        usage()
    };
    check_flags(name, synopsis, rest);
    run(rest);
}
