//! Pipeline event tracing.
//!
//! When enabled ([`SimConfig::trace_depth`] > 0), the trace log keeps the
//! machine's pipeline events in a bounded ring buffer. The log is the
//! tool for answering "why did this instruction wait six cycles?"
//! without printf-debugging the pipeline — pair it with
//! [`Simulator::dump_window`] for a full picture.
//!
//! The log is one subscriber of the machine's observation stream; it is
//! off by default and then costs one predictable branch per event.
//!
//! [`SimConfig::trace_depth`]: crate::config::SimConfig::trace_depth
//! [`Simulator::dump_window`]: crate::Simulator::dump_window

use std::collections::VecDeque;
use std::fmt;
use tracefill_util::Json;

/// What happened to a uop (or to the machine) at one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A bundle of `count` instructions was fetched at `pc`.
    Fetch {
        /// Fetch address.
        pc: u32,
        /// Instructions delivered.
        count: u8,
        /// The trace-cache segment that supplied the bundle (`None` for
        /// an instruction-cache fetch).
        seg: Option<u64>,
    },
    /// A uop entered the window (renamed/dispatched).
    Issue {
        /// The uop.
        uop: u64,
        /// Its PC.
        pc: u32,
        /// Functional unit (issue slot).
        fu: u8,
        /// Issued inactively (shadow).
        inactive: bool,
    },
    /// A uop began execution on its functional unit.
    Execute {
        /// The uop.
        uop: u64,
        /// Completion cycle.
        done: u64,
    },
    /// A uop's result became visible.
    Complete {
        /// The uop.
        uop: u64,
    },
    /// A uop retired.
    Retire {
        /// The uop.
        uop: u64,
        /// Its PC.
        pc: u32,
        /// The trace-cache segment that supplied the uop (`None` on the
        /// instruction-cache path).
        seg: Option<u64>,
    },
    /// Misprediction recovery squashed everything younger than `anchor`.
    Recover {
        /// The branch recovery restarted from.
        anchor: u64,
        /// New fetch address.
        redirect: u32,
    },
    /// A shadow (inactive-issue) context was activated.
    Activate {
        /// The divergence branch.
        anchor: u64,
        /// Uops promoted into the window.
        count: u32,
    },
    /// Self-repair contained a divergence: full squash, architectural
    /// restore from the oracle, and a redirect down the conventional path.
    Repair {
        /// PC at the divergence site.
        pc: u32,
        /// New fetch address (the oracle's next PC).
        redirect: u32,
    },
}

impl Event {
    /// The event's kind tag, as used in the machine-readable exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Fetch { .. } => "fetch",
            Event::Issue { .. } => "issue",
            Event::Execute { .. } => "execute",
            Event::Complete { .. } => "complete",
            Event::Retire { .. } => "retire",
            Event::Recover { .. } => "recover",
            Event::Activate { .. } => "activate",
            Event::Repair { .. } => "repair",
        }
    }

    /// The event's payload fields as a flat JSON object (no kind/cycle —
    /// the exporters add those). Segment ids stay out of the exports:
    /// a fetch shows only whether the trace cache supplied it.
    #[must_use]
    pub fn fields_json(&self) -> Json {
        match *self {
            Event::Fetch { pc, count, seg } => Json::object()
                .with("pc", pc)
                .with("count", count as u32)
                .with("tc", seg.is_some()),
            Event::Issue {
                uop,
                pc,
                fu,
                inactive,
            } => Json::object()
                .with("uop", uop)
                .with("pc", pc)
                .with("fu", fu as u32)
                .with("inactive", inactive),
            Event::Execute { uop, done } => Json::object().with("uop", uop).with("done", done),
            Event::Complete { uop } => Json::object().with("uop", uop),
            Event::Retire { uop, pc, .. } => Json::object().with("uop", uop).with("pc", pc),
            Event::Recover { anchor, redirect } => Json::object()
                .with("anchor", anchor)
                .with("redirect", redirect),
            Event::Activate { anchor, count } => {
                Json::object().with("anchor", anchor).with("count", count)
            }
            Event::Repair { pc, redirect } => {
                Json::object().with("pc", pc).with("redirect", redirect)
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Fetch { pc, count, seg } => write!(
                f,
                "fetch   {pc:#010x} x{count} [{}]",
                if seg.is_some() { "tcache" } else { "icache" }
            ),
            Event::Issue {
                uop,
                pc,
                fu,
                inactive,
            } => write!(
                f,
                "issue   u{uop} pc={pc:#010x} fu={fu}{}",
                if inactive { " (inactive)" } else { "" }
            ),
            Event::Execute { uop, done } => write!(f, "execute u{uop} done@{done}"),
            Event::Complete { uop } => write!(f, "complete u{uop}"),
            Event::Retire { uop, pc, .. } => write!(f, "retire  u{uop} pc={pc:#010x}"),
            Event::Recover { anchor, redirect } => {
                write!(f, "recover @u{anchor} -> {redirect:#010x}")
            }
            Event::Activate { anchor, count } => {
                write!(f, "activate shadow @u{anchor} ({count} uops)")
            }
            Event::Repair { pc, redirect } => {
                write!(f, "repair  pc={pc:#010x} -> {redirect:#010x}")
            }
        }
    }
}

/// A bounded ring buffer of timestamped pipeline events.
#[derive(Debug, Default)]
pub struct TraceLog {
    depth: usize,
    events: VecDeque<(u64, Event)>,
}

impl TraceLog {
    /// Creates a log keeping the most recent `depth` events (0 disables).
    pub fn new(depth: usize) -> TraceLog {
        TraceLog {
            depth,
            events: VecDeque::with_capacity(depth.min(4096)),
        }
    }

    /// Records one event at `cycle`.
    #[inline]
    pub fn push(&mut self, cycle: u64, event: Event) {
        if self.depth == 0 {
            return;
        }
        if self.events.len() == self.depth {
            self.events.pop_front();
        }
        self.events.push_back((cycle, event));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = (u64, Event)> + '_ {
        self.events.iter().copied()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the retained events as one line per event.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (cycle, e) in self.events() {
            let _ = writeln!(s, "[{cycle:>8}] {e}");
        }
        s
    }

    /// Renders the retained events as JSON Lines: one object per event,
    /// `{"cycle": N, "kind": "...", ...payload}`, oldest first. Every line
    /// parses with [`Json::parse`] and the output is deterministic for
    /// identical runs.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (cycle, e) in self.events() {
            let mut obj = Json::object().with("cycle", cycle).with("kind", e.kind());
            if let Some(fields) = e.fields_json().as_obj() {
                for (k, v) in fields {
                    obj = obj.with(k.as_str(), v.clone());
                }
            }
            let _ = writeln!(s, "{}", obj.dump());
        }
        s
    }

    /// Renders the retained events in the Chrome `trace_event` JSON format
    /// (the object form, `{"traceEvents": [...]}`), loadable by
    /// `chrome://tracing` and Perfetto.
    ///
    /// One simulated cycle maps to one microsecond of trace time.
    /// [`Event::Execute`] becomes a complete-duration event (`ph: "X"`,
    /// `dur` = execution latency); every other event becomes a
    /// thread-scoped instant (`ph: "i"`). Per-uop events are spread over
    /// 16 lanes (`tid` = `uop % 16 + 1`, mirroring the machine's issue
    /// width); machine-level events (fetch/recover/activate) sit on
    /// `tid` 0.
    ///
    /// Each segment `ledger` recorded (none when it is off) adds its
    /// whole cache life as one complete-duration span (insert cycle →
    /// eviction cycle, or `now` for still-resident lines) on its own
    /// track (`pid` 1, `tid` = segment id), annotated with its hit count,
    /// retired-uop count, pass attribution, and fate.
    #[must_use]
    pub fn to_chrome_trace(&self, ledger: &tracefill_core::ledger::Ledger, now: u64) -> Json {
        let mut events = Vec::new();
        for (cycle, e) in self.events() {
            let tid: u64 = match e {
                Event::Fetch { .. }
                | Event::Recover { .. }
                | Event::Activate { .. }
                | Event::Repair { .. } => 0,
                Event::Issue { uop, .. }
                | Event::Execute { uop, .. }
                | Event::Complete { uop }
                | Event::Retire { uop, .. } => uop % 16 + 1,
            };
            let name = match e {
                Event::Fetch { pc, .. } => format!("fetch {pc:#010x}"),
                Event::Issue { uop, .. } => format!("issue u{uop}"),
                Event::Execute { uop, .. } => format!("exec u{uop}"),
                Event::Complete { uop } => format!("complete u{uop}"),
                Event::Retire { uop, .. } => format!("retire u{uop}"),
                Event::Recover { anchor, .. } => format!("recover @u{anchor}"),
                Event::Activate { anchor, .. } => format!("activate @u{anchor}"),
                Event::Repair { pc, .. } => format!("repair {pc:#010x}"),
            };
            let mut obj = Json::object()
                .with("name", name)
                .with("cat", e.kind())
                .with("ts", cycle)
                .with("pid", 0u64)
                .with("tid", tid);
            obj = match e {
                Event::Execute { done, .. } => obj
                    .with("ph", "X")
                    .with("dur", done.saturating_sub(cycle).max(1)),
                _ => obj.with("ph", "i").with("s", "t"),
            };
            obj = obj.with("args", e.fields_json());
            events.push(obj);
        }
        for span in ledger.spans(now) {
            let passes = span.passes.into_iter().map(Json::from).collect();
            events.push(
                Json::object()
                    .with(
                        "name",
                        format!("seg {} @{:#010x}", span.seg_id, span.start_pc),
                    )
                    .with("cat", "segment")
                    .with("ts", span.insert_cycle)
                    .with("pid", 1u64)
                    .with("tid", span.seg_id)
                    .with("ph", "X")
                    .with(
                        "dur",
                        span.end_cycle.saturating_sub(span.insert_cycle).max(1),
                    )
                    .with(
                        "args",
                        Json::object()
                            .with("hits", span.hits)
                            .with("uops_retired", span.uops_retired)
                            .with("passes", Json::Arr(passes))
                            .with("fate", span.fate),
                    ),
            );
        }
        Json::object()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new(0);
        log.push(1, Event::Complete { uop: 1 });
        assert!(log.is_empty());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut log = TraceLog::new(3);
        for i in 0..10 {
            log.push(i, Event::Complete { uop: i });
        }
        let kept: Vec<u64> = log.events().map(|(c, _)| c).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut log = TraceLog::new(8);
        log.push(
            5,
            Event::Fetch {
                pc: 0x400000,
                count: 16,
                seg: Some(1),
            },
        );
        log.push(
            6,
            Event::Issue {
                uop: 3,
                pc: 0x400000,
                fu: 2,
                inactive: false,
            },
        );
        log.push(
            9,
            Event::Recover {
                anchor: 3,
                redirect: 0x400040,
            },
        );
        let text = log.render();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("tcache"));
        assert!(text.contains("recover @u3"));
    }

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new(16);
        log.push(
            5,
            Event::Fetch {
                pc: 0x40_0000,
                count: 16,
                seg: Some(1),
            },
        );
        log.push(
            6,
            Event::Issue {
                uop: 3,
                pc: 0x40_0000,
                fu: 2,
                inactive: false,
            },
        );
        log.push(7, Event::Execute { uop: 3, done: 9 });
        log.push(9, Event::Complete { uop: 3 });
        log.push(
            10,
            Event::Retire {
                uop: 3,
                pc: 0x40_0000,
                seg: None,
            },
        );
        log.push(
            11,
            Event::Recover {
                anchor: 3,
                redirect: 0x40_0040,
            },
        );
        log
    }

    #[test]
    fn jsonl_lines_parse_and_carry_cycle_and_kind() {
        let log = sample_log();
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), log.len());
        for line in &lines {
            let v = Json::parse(line).expect("every JSONL line parses");
            assert!(v.get("cycle").and_then(Json::as_u64).is_some());
            assert!(v.get("kind").and_then(Json::as_str).is_some());
        }
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("fetch"));
        assert_eq!(first.get("tc").and_then(Json::as_bool), Some(true));
        // Deterministic across renders.
        assert_eq!(text, log.to_jsonl());
    }

    #[test]
    fn chrome_trace_has_durations_and_instants() {
        let log = sample_log();
        let v = log.to_chrome_trace(&tracefill_core::ledger::Ledger::new(false), 11);
        let events = v
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), log.len());
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|&&p| p == "X").count(), 1);
        assert!(phases.iter().all(|&p| p == "X" || p == "i"));
        // The execute event spans its latency.
        let exec = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(exec.get("ts").and_then(Json::as_u64), Some(7));
        assert_eq!(exec.get("dur").and_then(Json::as_u64), Some(2));
        // Every event has the mandatory trace_event members.
        for e in events {
            for key in ["name", "cat", "ts", "pid", "tid", "ph"] {
                assert!(e.get(key).is_some(), "missing {key}");
            }
        }
    }
}
