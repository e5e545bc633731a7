//! Outside-in spans: the harness times each call into a layer, keeps the
//! spans in memory and writes them as Chrome trace-event JSON when the run
//! ends.
//!
//! Two kinds of span share one clock.  *Tick* spans nest (`tick` → stage →
//! layer call).  *Replay* spans time a call the tick does not make itself —
//! re-running `Planner::plan` on the executed source/target pair, deriving
//! the dependency graph — and must not count towards the tick, so the clock
//! is stopped while one runs: [`Tracer::replay`] records the span on its own
//! track and subtracts its duration from every later timestamp.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a tick or a replay.
    pub parent: Option<usize>,
    /// Operation the span belongs to (spans of one operation share it).
    pub tick: u32,
    /// True for a replay span (outside the tick total).
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// The in-memory span recorder of one traced episode.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    stopped_ns: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    tick: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            stopped_ns: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            tick: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64 - self.stopped_ns
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            tick: self.tick,
            replay: false,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Close a span; returns its duration in milliseconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0].end_ns = now;
        self.spans[open.0].duration_ms()
    }

    /// Time `f` as a replay span with the tick clock stopped; returns its
    /// result and its duration in milliseconds.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: None,
            tick: self.tick,
            replay: true,
        });
        self.stopped_ns += end - start;
        (result, (end - start) as f64 / 1e6)
    }

    /// Start numbering the next operation's spans.
    pub fn next_tick(&mut self) {
        self.tick += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations (ms) of every span called `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ms)
        .collect()
}

/// Share (percent) of the tick time that named layer spans account for:
/// everything except the self time of the `tick` spans and of the stage
/// spans that only group layer calls.
pub fn attributed_pct(spans: &[Span], grouping: &[&str]) -> f64 {
    let own = self_times_ns(spans);
    let mut total = 0u64;
    let mut unattributed = 0u64;
    for (span, own_ns) in spans.iter().zip(&own) {
        if span.replay {
            continue;
        }
        if span.parent.is_none() {
            total += span.duration_ns();
        }
        if grouping.contains(&span.name) {
            unattributed += own_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * (1.0 - unattributed as f64 / total as f64)
    }
}

/// Render spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
/// Tick spans go to thread 1, replay spans to thread 2; timestamps are
/// microseconds on the stopped clock, so a tick reads as it would untraced.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":{}}}}},\n\
         {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"tick\"}}}},\n\
         {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{{\"name\":\"replay (outside the tick)\"}}}}",
        quote(&format!("cwcs-perf {workload}"))
    );
    for (index, (span, own_ns)) in spans.iter().zip(&own).enumerate() {
        let _ = write!(
            out,
            ",\n{{\"name\":{},\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"tick\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}}}",
            quote(span.name),
            if span.replay { 2 } else { 1 },
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            index,
            span.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
            span.tick,
            span.start_ns,
            span.end_ns,
            own_ns,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick: 0,
            replay: false,
        }
    }

    /// tick 0..100 → observe 0..30 (a 5..15, b 15..25) and decide 40..90.
    fn tree() -> Vec<Span> {
        vec![
            span("tick", 0, 100, None),
            span("observe", 0, 30, Some(0)),
            span("a", 5, 15, Some(1)),
            span("b", 15, 25, Some(1)),
            span("layer.decide", 40, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = tree();
        assert_eq!(self_times_ns(&spans), vec![20, 10, 10, 10, 50]);
        // 100 ns of tick, 20 (tick) + 10 (observe) unattributed.
        assert_eq!(attributed_pct(&spans, &["tick", "observe"]), 70.0);
        assert_eq!(durations_ms(&spans, "a"), vec![1e-5]);
    }

    #[test]
    fn replays_stop_the_tick_clock() {
        let mut tracer = Tracer::default();
        let tick = tracer.enter("tick");
        let slept = std::time::Duration::from_millis(20);
        tracer.replay("replayed", || std::thread::sleep(slept));
        let inner = tracer.enter("inner");
        tracer.exit(inner);
        let tick_ms = tracer.exit(tick);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1].replay && spans[1].parent.is_none());
        assert!(spans[1].duration_ms() >= 20.0);
        assert!(tick_ms < 20.0, "the replay is outside the tick: {tick_ms}");
        assert_eq!(spans[2].parent, Some(0));
        // The replay does not count as tick time.
        assert_eq!(attributed_pct(spans, &[]), 100.0);
    }

    #[test]
    fn the_chrome_trace_parses() {
        let mut spans = tree();
        spans.push(Span {
            replay: true,
            ..span("plan.planner.plan", 30, 40, None)
        });
        let parsed = Json::parse(&chrome_trace("unit \"test\"", &spans)).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 3 + spans.len());
        let last = events.last().expect("non-empty");
        assert_eq!(last.get("tid").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            events[4].get("args").and_then(|a| a.get("self_ns")),
            Some(&Json::Number(10.0))
        );
    }
}
