//! The sharded worker pool, and the fan-out of every other multi-run
//! command: [`map_isolated`], an order-preserving map on every core with
//! each item isolated, so a panic becomes a result.
//!
//! `run_campaign` expands the spec, subtracts the run ids already recorded
//! in the store (resume), and executes the remainder on `jobs` OS threads
//! pulling from a shared work queue. Design points:
//!
//! * **Panic isolation** — each run executes under `isolate`; a
//!   panicking kernel produces a [`RunStatus::Panic`] record (message,
//!   panic *location*, and the full configuration echo) and the campaign
//!   keeps going.
//! * **Quarantine** — a configuration key (`bench|opts`) that panics
//!   [`CampaignOptions::quarantine_after`] consecutive times is
//!   quarantined: a marker row is persisted, remaining runs of that key
//!   are recorded as [`RunStatus::Quarantined`] without executing, and a
//!   *resumed* campaign honors markers from previous invocations — one
//!   poisoned cell can no longer burn a whole sweep's wall-clock budget.
//! * **Single-writer store** — workers send records over a channel; only
//!   the coordinating thread appends, so rows never interleave.
//! * **Cancellation and wall budget** — a shared flag is polled inside the
//!   simulator's cycle loop (see [`Simulator::run_budgeted`]); the
//!   coordinator raises it when the store fails, when the caller's
//!   [`CampaignOptions::cancel`] flag goes up (e.g. a Ctrl-C handler), or
//!   when [`CampaignOptions::wall_budget_ms`] elapses. Shutdown is
//!   *graceful*: in-flight runs return `Cancelled` records that are
//!   flushed to the store, so resume re-executes exactly the interrupted
//!   and undispatched work.
//! * **Determinism** — scheduling order (and therefore row order in the
//!   store) varies with `jobs`, but each row's *content* depends only on
//!   its descriptor, and the report layer sorts before aggregating, so
//!   `--jobs 1` and `--jobs 4` produce identical aggregates. (Quarantine
//!   *decisions* depend on completion order and are recorded rows, not
//!   aggregated measurements.)
//!
//! [`RunStatus::Panic`]: crate::runner::RunStatus::Panic
//! [`RunStatus::Quarantined`]: crate::runner::RunStatus::Quarantined
//! [`Simulator::run_budgeted`]: tracefill_sim::Simulator::run_budgeted

use crate::grid::{CampaignSpec, RunDescriptor};
use crate::progress::Progress;
use crate::runner::{self, RunRecord, RunStatus};
use crate::store::ResultStore;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// Knobs for one `run_campaign_with` invocation.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads (0 is rejected).
    pub jobs: usize,
    /// Paint the live status line on stderr.
    pub live_progress: bool,
    /// Quarantine a configuration key after this many *consecutive*
    /// panics (0 disables quarantine). Unset (`Default`) means 0; use
    /// [`CampaignOptions::standard`] for the recommended threshold.
    pub quarantine_after: u32,
    /// External cooperative-cancel flag (e.g. raised by a signal handler).
    /// The campaign polls it and shuts down gracefully when it goes up.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock budget for this invocation in milliseconds (0 =
    /// unlimited). On expiry the campaign cancels gracefully; completed
    /// rows stay, interrupted rows are recorded `cancelled` and re-run on
    /// resume.
    pub wall_budget_ms: u64,
}

impl CampaignOptions {
    /// The recommended configuration: `jobs` workers, quarantine after 3
    /// consecutive panics, no cancel flag, no wall budget.
    #[must_use]
    pub fn standard(jobs: usize, live_progress: bool) -> CampaignOptions {
        CampaignOptions {
            jobs,
            live_progress,
            quarantine_after: 3,
            cancel: None,
            wall_budget_ms: 0,
        }
    }
}

/// What a finished (or resumed) campaign did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Grid points in the spec.
    pub total: usize,
    /// Points already in the store (skipped on resume).
    pub skipped: usize,
    /// Points executed this invocation.
    pub executed: usize,
    /// Executed points that did not end [`RunStatus::Ok`].
    pub failed: usize,
    /// Points recorded [`RunStatus::Quarantined`] without executing.
    pub quarantined: usize,
    /// The campaign was cancelled (external flag or wall budget) before
    /// the queue drained.
    pub cancelled: bool,
    /// Wall-clock milliseconds for this invocation.
    pub wall_ms: u64,
}

/// Runs (or resumes) a campaign with `jobs` worker threads, appending each
/// completed run to `store`. Set `live_progress` to paint the status line
/// on stderr. Equivalent to [`run_campaign_with`] with
/// [`CampaignOptions::standard`].
///
/// # Errors
///
/// I/O errors from the result store. Simulation failures and panics are
/// *not* errors — they are recorded rows (see module docs).
///
/// # Panics
///
/// Panics if `jobs == 0`.
pub fn run_campaign(
    spec: &CampaignSpec,
    store: &mut ResultStore,
    jobs: usize,
    live_progress: bool,
) -> io::Result<CampaignSummary> {
    run_campaign_with(spec, store, &CampaignOptions::standard(jobs, live_progress))
}

/// Runs (or resumes) a campaign under explicit [`CampaignOptions`].
///
/// # Errors
///
/// I/O errors from the result store. Simulation failures and panics are
/// *not* errors — they are recorded rows (see module docs).
///
/// # Panics
///
/// Panics if `options.jobs == 0`.
pub fn run_campaign_with(
    spec: &CampaignSpec,
    store: &mut ResultStore,
    options: &CampaignOptions,
) -> io::Result<CampaignSummary> {
    let jobs = options.jobs;
    assert!(jobs > 0, "need at least one worker");
    let start = Instant::now();
    let deadline =
        (options.wall_budget_ms > 0).then(|| start + Duration::from_millis(options.wall_budget_ms));
    let all = spec.expand();
    let done = store.completed_ids()?;
    let todo: VecDeque<RunDescriptor> = all
        .iter()
        .filter(|d| !done.contains(&d.run_id))
        .cloned()
        .collect();

    let total = all.len();
    let skipped = total - todo.len();
    let pending = todo.len();
    let mut progress = Progress::new(total, skipped, options.live_progress);
    let mut executed = 0usize;
    let mut failed = 0usize;
    let mut quarantined_count = 0usize;
    let mut was_cancelled = false;
    let mut store_error: Option<io::Error> = None;

    let queue = Mutex::new(todo);
    let cancel = AtomicBool::new(false);
    // Quarantined configuration keys, shared with workers. Seeded from the
    // store so a resumed campaign skips cells a prior invocation poisoned.
    let quarantine = Mutex::new(store.quarantined_keys()?);
    // Consecutive-panic streaks per configuration key. Workers update this
    // *synchronously* on completion (the coordinator only persists the
    // marker), so the very next pop of a poisoned key already skips — no
    // window where queued work races the quarantine decision.
    let streaks = Mutex::new(HashMap::<String, u32>::new());
    let (tx, rx) = mpsc::channel::<Msg>();

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(pending.max(1)) {
            let tx = tx.clone();
            let queue = &queue;
            let cancel = &cancel;
            let quarantine = &quarantine;
            let streaks = &streaks;
            let quarantine_after = options.quarantine_after;
            let campaign = spec.name.as_str();
            scope.spawn(move || loop {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                let Some(desc) = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front() else {
                    break;
                };
                let key = quarantine_key(&desc);
                if quarantine
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .contains(&key)
                {
                    // Skip without executing: the cell is poisoned.
                    let status =
                        RunStatus::Quarantined(format!("configuration `{key}` quarantined"));
                    let record = RunRecord::empty(&desc, campaign, status);
                    if tx.send(Msg::Done(Box::new(record))).is_err() {
                        break;
                    }
                    continue;
                }
                // Heartbeat first: if the process dies mid-run, the store
                // shows the run as started-but-unfinished, and resume will
                // re-execute it (heartbeats never count as completed).
                if tx.send(Msg::Started(desc.run_id.clone())).is_err() {
                    break; // coordinator gone
                }
                let record = isolate(|| runner::execute(&desc, campaign, Some(cancel)))
                    .unwrap_or_else(|msg| panic_record(&desc, campaign, msg));
                // Update the panic streak *before* the next pop, so a
                // poisoned cell stops executing the moment the threshold is
                // crossed.
                if matches!(record.status, RunStatus::Panic(_)) {
                    let mut s = streaks.lock().unwrap_or_else(|e| e.into_inner());
                    let streak = s.entry(key.clone()).or_insert(0);
                    *streak += 1;
                    let poisoned = quarantine_after > 0 && *streak >= quarantine_after;
                    drop(s);
                    if poisoned
                        && quarantine
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(key.clone())
                        && tx.send(Msg::Quarantine(key)).is_err()
                    {
                        break; // coordinator gone
                    }
                } else {
                    streaks
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&key);
                }
                if tx.send(Msg::Done(Box::new(record))).is_err() {
                    break; // coordinator gone
                }
            });
        }
        drop(tx); // workers hold the only remaining senders

        // Coordinator: the single store writer, the quarantine authority,
        // and the watchdog for external cancellation / the wall budget.
        loop {
            let msg = match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => {
                    let external = options
                        .cancel
                        .as_ref()
                        .is_some_and(|c| c.load(Ordering::Relaxed));
                    let overtime = deadline.is_some_and(|d| Instant::now() >= d);
                    if (external || overtime) && !cancel.load(Ordering::Relaxed) {
                        was_cancelled = true;
                        cancel.store(true, Ordering::Relaxed);
                        // Keep looping: in-flight runs flush Cancelled
                        // records before the channel closes.
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let result = match msg {
                Msg::Started(run_id) => store.append_heartbeat(&run_id),
                Msg::Quarantine(key) => store.append_quarantine(&key),
                Msg::Done(record) => {
                    match &record.status {
                        RunStatus::Quarantined(_) => quarantined_count += 1,
                        status => {
                            executed += 1;
                            if !status.is_ok() {
                                failed += 1;
                            }
                        }
                    }
                    progress.tick();
                    store.append(&record)
                }
            };
            if let Err(e) = result {
                store_error = Some(e);
                cancel.store(true, Ordering::Relaxed);
                // Keep draining so workers unblock and exit.
            }
        }
    });
    progress.finish();

    if let Some(e) = store_error {
        return Err(e);
    }
    Ok(CampaignSummary {
        total,
        skipped,
        executed,
        failed,
        quarantined: quarantined_count,
        cancelled: was_cancelled,
        wall_ms: start.elapsed().as_millis() as u64,
    })
}

/// The configuration key quarantine operates on: a panic is a property of
/// the (workload, optimization set, replacement policy, controller) cell,
/// not of one seed or latency.
fn quarantine_key(desc: &RunDescriptor) -> String {
    format!(
        "{}|{}|{}|{}",
        desc.bench,
        desc.opt_label,
        desc.policy.name(),
        desc.controller.label()
    )
}

/// Worker → coordinator messages. The record is boxed so the channel moves
/// a pointer, not the full stats/metrics payload.
enum Msg {
    /// A worker pulled this run id off the queue and is executing it.
    Started(String),
    /// A worker crossed the consecutive-panic threshold for this key; the
    /// coordinator persists the marker (workers already updated the shared
    /// in-memory set).
    Quarantine(String),
    /// A run finished (in any status) and should be persisted.
    Done(Box<RunRecord>),
}

thread_local! {
    /// Location of the most recent panic on this thread, captured by the
    /// process-wide hook below and consumed by [`isolate`].
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Whether this thread is inside [`isolate`] (panics go unprinted).
    static ISOLATED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that records the panic
/// location into [`LAST_PANIC_LOCATION`], then delegates to the previous
/// hook unless the panic is inside [`isolate`].
fn install_panic_location_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let loc = info
                .location()
                .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
            LAST_PANIC_LOCATION.with(|cell| *cell.borrow_mut() = loc);
            if !ISOLATED.get() {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, turning a panic into `Err` carrying its message and its
/// ` at file:line:col` location, without printing it.
///
/// # Errors
///
/// The panic's message, if `f` panicked.
pub(crate) fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_panic_location_hook();
    let outer = ISOLATED.replace(true);
    let result = catch_unwind(AssertUnwindSafe(f));
    ISOLATED.set(outer);
    result.map_err(|payload| {
        let mut msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        if let Some(loc) = LAST_PANIC_LOCATION.with(|cell| cell.borrow_mut().take()) {
            msg.push_str(&format!(" at {loc}"));
        }
        msg
    })
}

/// Applies `f` to every item on at most `available_parallelism` scoped
/// threads, each call under `isolate`, and returns the results in input
/// order, so output rendered from them does not depend on the core count.
pub fn map_isolated<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, String>> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break done };
            done.push((i, isolate(|| f(item))));
        }
    };
    let mut results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cores.min(items.len()))
            .map(|_| scope.spawn(work))
            .collect();
        let joined = workers
            .into_iter()
            .map(|w| w.join().expect("items run isolated"));
        joined.flatten().collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Runs every descriptor through `run` on [`map_isolated`]; a run that
/// panicked becomes its [`RunStatus::Panic`] record.
pub fn run_all(
    descs: &[RunDescriptor],
    campaign: &str,
    run: impl Fn(&RunDescriptor) -> RunRecord + Sync,
) -> Vec<RunRecord> {
    let results = descs.iter().zip(map_isolated(descs, run));
    results
        .map(|(desc, result)| result.unwrap_or_else(|msg| panic_record(desc, campaign, msg)))
        .collect()
}

/// Runs every descriptor through [`runner::execute`] on [`run_all`].
#[must_use]
pub fn execute_all(descs: &[RunDescriptor], campaign: &str) -> Vec<RunRecord> {
    run_all(descs, campaign, |desc| {
        runner::execute(desc, campaign, None)
    })
}

/// Builds the record for a run that escaped via panic: the message and
/// location [`isolate`] gave, and a full echo of the descriptor's
/// scientific coordinates, so the row alone reproduces the failing
/// configuration.
fn panic_record(desc: &RunDescriptor, campaign: &str, mut detail: String) -> RunRecord {
    detail.push_str(&format!(
        " [bench={} opts={} fill_latency={} seed={} warmup={} budget={} max_cycles={}]",
        desc.bench,
        desc.opt_label,
        desc.fill_latency,
        desc.seed,
        desc.warmup,
        desc.budget,
        desc.max_cycles,
    ));
    RunRecord::empty(desc, campaign, RunStatus::Panic(detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_key_is_bench_and_opts() {
        let mut spec = CampaignSpec::fig8();
        spec.benchmarks = vec!["m88k".to_string()];
        spec.fill_latencies = vec![1];
        let desc = spec.expand().remove(0);
        let key = quarantine_key(&desc);
        assert!(key.starts_with("m88k|"), "{key}");
        assert!(key.contains('|'), "{key}");
    }

    #[test]
    fn map_isolated_returns_results_in_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let got = map_isolated(&items, |&i| i * i);
        let want: Vec<Result<u64, String>> = items.iter().map(|&i| Ok(i * i)).collect();
        assert_eq!(got, want);
        assert!(map_isolated(&[] as &[u64], |&i| i).is_empty());
    }

    #[test]
    fn a_panicking_item_fills_only_its_own_slot() {
        let items: Vec<u32> = (0..8).collect();
        let got = map_isolated(&items, |&i| {
            assert!(i != 3, "item {i} is poisoned");
            i + 100
        });
        assert_eq!(got.len(), items.len());
        for (i, result) in got.iter().enumerate() {
            if i == 3 {
                let msg = result.as_ref().unwrap_err();
                assert!(msg.starts_with("item 3 is poisoned at "), "{msg}");
                assert!(msg.contains(".rs:"), "panic location missing: {msg}");
            } else {
                assert_eq!(result, &Ok(i as u32 + 100), "item {i}");
            }
        }
    }
}
