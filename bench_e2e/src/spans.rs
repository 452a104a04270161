//! The harness's own span recorder: one span around every call the
//! benchmark makes into a product crate, kept in memory and written out as
//! a Chrome `trace_event` file (wall axis) when the run ends.
//!
//! Spans are recorded on the harness thread only, so nesting is a stack.
//! Tracing *inside* the program is the job of `crates/obs`; this recorder
//! sees the program from outside, at the public-API boundary.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Which input the call worked on (instance index within the run).
    pub instance: u32,
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Per-name totals: how often, how long, and how long excluding children.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ledger {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off; while off, `begin`/`end` do nothing.
    /// Only legal between spans (an open span must be ended under the
    /// setting it was begun with).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled the recorder inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, instance: usize) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            instance: instance as u32,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span and returns its duration in seconds (0 while off).
    pub fn end(&mut self, open: Open) -> f64 {
        let Some(idx) = open.0 else { return 0.0 };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost-first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        (now - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, instance: usize, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, instance);
        let r = f();
        self.end(open);
        r
    }

    /// Totals per span name. A span's self time is its duration minus the
    /// durations of its direct children.
    pub fn ledger(&self) -> BTreeMap<&'static str, Ledger> {
        ledger(&self.spans)
    }

    /// The Chrome `trace_event` document: one complete (`"ph":"X"`) event
    /// per span, `ts`/`dur` in wall microseconds since the recorder was
    /// created, `tid` = the instance the call worked on.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("cat", workload.into()),
                    ("ph", "X".into()),
                    ("ts", (s.start_ns as f64 / 1e3).into()),
                    ("dur", ((s.end_ns - s.start_ns) as f64 / 1e3).into()),
                    ("pid", 1u64.into()),
                    ("tid", u64::from(s.instance).into()),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

fn ledger(spans: &[Span]) -> BTreeMap<&'static str, Ledger> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Ledger> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_s += dur as f64 / 1e9;
        entry.self_s += dur.saturating_sub(children) as f64 / 1e9;
    }
    out
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
            instance: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // learn [0,100) ⊃ search [10,60) ⊃ evaluate [20,30); learn ⊃ search [70,90)
        let spans = [
            span("learn", 0, 100_000_000_000, None),
            span("search", 10_000_000_000, 60_000_000_000, Some(0)),
            span("evaluate", 20_000_000_000, 30_000_000_000, Some(1)),
            span("search", 70_000_000_000, 90_000_000_000, Some(0)),
        ];
        let l = ledger(&spans);
        assert_eq!(
            l["learn"],
            Ledger {
                count: 1,
                total_s: 100.0,
                self_s: 30.0
            }
        );
        assert_eq!(
            l["search"],
            Ledger {
                count: 2,
                total_s: 70.0,
                self_s: 60.0
            }
        );
        assert_eq!(l["evaluate"].self_s, 10.0);
        let self_sum: f64 = l.values().map(|e| e.self_s).sum();
        assert_eq!(self_sum, 100.0, "self times partition the root span");
    }

    #[test]
    fn recorder_nests_by_call_order_and_can_be_switched_off() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer", 3);
        rec.time("inner", 3, || ());
        assert!(rec.end(outer) >= 0.0);
        rec.set_on(false);
        let skipped = rec.begin("skipped", 0);
        assert_eq!(rec.end(skipped), 0.0);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let trace = rec.chrome_trace("w");
        let Some(Json::Arr(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("tid").and_then(Json::as_f64), Some(3.0));
        assert_eq!(events[0].get("ph"), Some(&Json::Str("X".into())));
    }
}
