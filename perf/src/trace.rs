//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out as Chrome `trace_event` JSON when the run ends.
//!
//! A disabled tracer records nothing: [`Tracer::span`] then costs one
//! branch, so the untraced runs that give the end-to-end metrics execute
//! the same code as the traced ones.

use std::time::Instant;
use tracefill_util::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, named `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run (repetition) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for run `run`; a disabled one records nothing.
    pub fn new(enabled: bool, run: u32) -> Tracer {
        Tracer {
            enabled,
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// Total and self time per span name, in first-seen order:
/// `(name, calls, total_ns, self_ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = self_time_ns(spans, i);
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += self_ns;
            }
            None => rows.push((s.name, 1, s.duration_ns(), self_ns)),
        }
    }
    rows
}

/// The spans as a Chrome `trace_event` document (complete `"X"` events,
/// microsecond timestamps, one thread lane per run).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let layer = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
            let mut args = Json::object();
            if let Some(p) = s.parent {
                args = args.with("parent", spans[p].name);
            }
            Json::object()
                .with("name", s.name)
                .with("cat", layer)
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.duration_ns() as f64 / 1e3)
                .with("pid", 1u64)
                .with("tid", u64::from(s.run))
                .with("args", args)
        })
        .collect();
    Json::object()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", "ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("a.root", 0, 100, None),
            span("b.kid", 10, 30, Some(0)),
            span("b.kid", 25, 50, Some(0)), // overlaps the first child
            span("c.grandkid", 12, 20, Some(1)),
            span("d.other", 60, 70, None), // not a child of 0
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 3), 8);
        let rows = by_name(&spans);
        assert_eq!(rows[1], ("b.kid", 2, 45, 12 + 25));
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("a.root", 10, 20, None), span("b.kid", 5, 15, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 5);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, 3);
        let v = t.span("x.outer", |t| t.span("y.inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].run, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false, 0);
        assert_eq!(off.span("x.outer", |t| t.span("y.inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let spans = vec![
            span("sim.run", 1_000, 3_000, None),
            span("sim.step", 1_500, 2_000, Some(0)),
        ];
        let doc = Json::parse(&chrome_trace(&spans).dump()).expect("reparses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("sim"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("sim.run")
        );
    }
}
