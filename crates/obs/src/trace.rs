//! The tracing core: the session's record buffer, the records themselves,
//! and the zero-cost-when-disabled [`Tracer`] handle.
//!
//! See the [crate docs](crate) for the span model and the two time axes.
//! The design constraints, in order:
//!
//! 1. **Disabled is free.** Every emit site starts with one relaxed load
//!    of a global flag; when it is `false` nothing else runs — no lock,
//!    no allocation, no clock read.
//! 2. **Enabled is deterministic.** Records are keyed to the caller's
//!    virtual time and a per-rank sequence number; the final ordering
//!    (`sort by (vtime, rank, seq)`) depends only on protocol decisions,
//!    never on thread scheduling, so same-seed runs produce byte-identical
//!    timelines. Per-rank virtual clocks are monotone, which makes that
//!    sort order preserve each rank's emission order (span nesting
//!    survives).
//! 3. **Nothing is dropped, and nothing is written mid-run.** A record is
//!    pushed into the session's buffer under one short lock and stays there
//!    until [`finish`] sorts and returns the lot; no thread drains it and
//!    no file is written, so a record is never lost or reordered under
//!    load. A worker process of a TCP mesh records into a session of its
//!    own and sends its records home in its shutdown report, where
//!    [`absorb`] adds them to the master's session: one timeline for every
//!    rank, whichever transport ran them.

use crate::export::Trace;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Is a trace session active? One relaxed atomic load — this is the whole
/// cost of every instrumentation site while tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static ENABLED: AtomicBool = AtomicBool::new(false);

static SESSION: Mutex<Option<Session>> = Mutex::new(None);

/// The session slot. Every update leaves the session whole (a record is
/// pushed or not), so a lock poisoned by a panic elsewhere still guards a
/// valid session; recovering it also keeps [`Span`]'s drop, which emits,
/// from panicking during an unwind.
fn session() -> MutexGuard<'static, Option<Session>> {
    SESSION.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// A structured field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (virtual times, ratios).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(Cow<'static, str>),
}

macro_rules! value_from {
    ($($t:ty => $v:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::$v(x as $cast)
            }
        }
    )*};
}
value_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}

impl From<&'static str> for Value {
    fn from(x: &'static str) -> Value {
        Value::Str(Cow::Borrowed(x))
    }
}

impl From<String> for Value {
    fn from(x: String) -> Value {
        Value::Str(Cow::Owned(x))
    }
}

/// Event phase, mirroring the Chrome `trace_event` phases the exporter
/// emits (`B`egin / `E`nd for spans, `i`nstant for point events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span open.
    Begin,
    /// Span close.
    End,
    /// Instantaneous event.
    Instant,
}

/// One trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Emitting rank (Chrome `tid`).
    pub rank: u32,
    /// Per-rank emission sequence number — the deterministic tiebreak for
    /// records at the same virtual time.
    pub seq: u64,
    /// Virtual time, seconds (the deterministic axis; always ≥ 0).
    pub vt: f64,
    /// Wall nanoseconds since the session started (diagnostic only; kept
    /// out of the Chrome export so it stays bit-reproducible).
    pub wall_ns: u64,
    /// Span open / span close / instant.
    pub phase: Phase,
    /// Record name.
    pub name: Cow<'static, str>,
    /// Structured fields.
    pub args: Vec<(Cow<'static, str>, Value)>,
}

// ---------------------------------------------------------------------------
// The session.
// ---------------------------------------------------------------------------

/// Configuration for one trace session. It has no fields: a session keeps
/// every record in memory until [`finish`].
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {}

struct Session {
    start: Instant,
    events: Vec<Event>,
    /// The next sequence number of each rank, indexed by rank.
    seqs: Vec<u64>,
}

/// Counters describing how a finished session behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Records a session could not keep. Always 0: a session keeps every
    /// record.
    pub ring_overflows: u64,
}

/// Starts a trace session. Returns `false` (and does nothing) when one is
/// already active — sessions are process-global, exactly one at a time.
pub fn start(_cfg: TraceConfig) -> bool {
    let mut slot = session();
    if slot.is_some() {
        return false;
    }
    *slot = Some(Session {
        start: Instant::now(),
        events: Vec::new(),
        seqs: Vec::new(),
    });
    ENABLED.store(true, Ordering::Release);
    true
}

/// Adds records another process took (a worker process's, from its
/// shutdown report) to the active session, where [`finish`] sorts them in
/// with the rest. A no-op when no session is active.
pub fn absorb(events: Vec<Event>) {
    if let Some(s) = session().as_mut() {
        s.events.extend(events);
    }
}

/// Ends the active session: disables emission and returns its records as
/// the sorted [`Trace`] (plus a summary). Returns `None` when no session
/// was active.
pub fn finish() -> Option<(Trace, TraceSummary)> {
    let events = {
        let mut slot = session();
        ENABLED.store(false, Ordering::Release);
        slot.take()?.events
    };
    let mut trace = Trace { events };
    trace.sort();
    Some((trace, TraceSummary::default()))
}

#[inline]
fn emit(rank: u32, phase: Phase, name: &'static str, vt: f64, args: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    let mut slot = session();
    let Some(s) = slot.as_mut() else {
        return;
    };
    let r = rank as usize;
    if s.seqs.len() <= r {
        s.seqs.resize(r + 1, 0);
    }
    let seq = s.seqs[r];
    s.seqs[r] += 1;
    let wall_ns = s.start.elapsed().as_nanos() as u64;
    s.events.push(Event {
        rank,
        seq,
        vt,
        wall_ns,
        phase,
        name: Cow::Borrowed(name),
        args: args
            .iter()
            .map(|(k, v)| (Cow::Borrowed(*k), v.clone()))
            .collect(),
    });
}

// ---------------------------------------------------------------------------
// Handles.
// ---------------------------------------------------------------------------

/// A copyable per-rank tracing handle. All methods are no-ops (one relaxed
/// atomic load) while no session is active.
#[derive(Clone, Copy, Debug)]
pub struct Tracer {
    rank: u32,
}

impl Tracer {
    /// The handle for one rank (rank 0 = master).
    pub const fn for_rank(rank: usize) -> Tracer {
        Tracer { rank: rank as u32 }
    }

    /// The rank this handle tags records with.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Is tracing currently on? Exposed so call sites can skip argument
    /// construction entirely on the hot path.
    #[inline(always)]
    pub fn on(&self) -> bool {
        enabled()
    }

    /// Emits an instantaneous structured event at virtual time `vt`.
    #[inline]
    pub fn event(&self, name: &'static str, vt: f64, args: &[(&'static str, Value)]) {
        emit(self.rank, Phase::Instant, name, vt, args);
    }

    /// Opens a span at virtual time `vt`. Close it with [`Span::end`]
    /// (passing the closing virtual time); a dropped guard closes at its
    /// opening time so panics never leave an orphan open span.
    #[inline]
    pub fn span(&self, name: &'static str, vt: f64, args: &[(&'static str, Value)]) -> Span {
        let armed = enabled();
        if armed {
            emit(self.rank, Phase::Begin, name, vt, args);
        }
        Span {
            rank: self.rank,
            name,
            open_vt: vt,
            armed,
        }
    }
}

/// An open span guard (see [`Tracer::span`]). The close event is only
/// emitted when the open event was — a session enabled mid-span never sees
/// a dangling `E`.
#[derive(Debug)]
pub struct Span {
    rank: u32,
    name: &'static str,
    open_vt: f64,
    armed: bool,
}

impl Span {
    /// Closes the span at virtual time `vt`.
    pub fn end(self, vt: f64) {
        self.end_with(vt, &[]);
    }

    /// Closes the span at virtual time `vt` with closing fields (Chrome
    /// shows them on the `E` event).
    pub fn end_with(mut self, vt: f64, args: &[(&'static str, Value)]) {
        if self.armed {
            self.armed = false;
            emit(self.rank, Phase::End, self.name, vt.max(self.open_vt), args);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            emit(self.rank, Phase::End, self.name, self.open_vt, &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_chrome;

    // Trace sessions are process-global; tests that open one must not
    // overlap. (Integration suites get a process each; unit tests here
    // share one.)
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        assert!(!enabled());
        let t = Tracer::for_rank(3);
        t.event("never", 1.0, &[("k", Value::U64(1))]);
        let sp = t.span("never", 1.0, &[]);
        sp.end(2.0);
        assert!(finish().is_none(), "no session was active");
    }

    #[test]
    fn session_collects_sorts_and_nests() {
        let _g = lock();
        assert!(start(TraceConfig::default()));
        assert!(!start(TraceConfig::default()), "second start refused");
        let m = Tracer::for_rank(0);
        let w = Tracer::for_rank(1);
        let outer = m.span("epoch", 0.0, &[("epoch", Value::U64(1))]);
        let inner = m.span("gather", 0.5, &[]);
        crate::event!(w, "recv", 0.25, from = 0u32, bytes = 16u64);
        inner.end(1.0);
        outer.end_with(2.0, &[("accepted", Value::U64(3))]);
        let (trace, summary) = finish().expect("session was active");
        assert_eq!(summary.ring_overflows, 0);
        assert_eq!(trace.events.len(), 5);
        // Sorted by (vt, rank, seq): epoch B, recv, gather B, gather E,
        // epoch E.
        let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, ["epoch", "recv", "gather", "gather", "epoch"]);
        validate_chrome(&trace.chrome_json()).expect("spans nest");
    }

    #[test]
    fn dropped_span_closes_itself() {
        let _g = lock();
        assert!(start(TraceConfig::default()));
        let t = Tracer::for_rank(2);
        {
            let _sp = t.span("abandoned", 1.5, &[]);
            // Dropped without an explicit end — e.g. a panic path.
        }
        let (trace, _) = finish().expect("session");
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].phase, Phase::Begin);
        assert_eq!(trace.events[1].phase, Phase::End);
        assert_eq!(trace.events[1].vt, 1.5);
        validate_chrome(&trace.chrome_json()).expect("self-closed span nests");
    }

    /// Records absorbed from another process sort in with the session's
    /// own by `(vt, rank, seq)`, whatever order they arrive in.
    #[test]
    fn absorbed_records_sort_into_the_session_order() {
        let _g = lock();
        let record = |rank, seq, vt, phase| Event {
            rank,
            seq,
            vt,
            wall_ns: 0,
            phase,
            name: Cow::Owned("stage".to_owned()),
            args: vec![(Cow::Owned("n".to_owned()), Value::U64(seq))],
        };
        absorb(vec![record(9, 0, 0.0, Phase::Instant)]);
        assert!(start(TraceConfig::default()));
        let m = Tracer::for_rank(0);
        let outer = m.span("epoch", 0.0, &[]);
        m.event("send", 1.0, &[]);
        absorb(vec![
            record(2, 1, 2.0, Phase::End),
            record(1, 0, 1.0, Phase::Instant),
            record(2, 0, 1.0, Phase::Begin),
        ]);
        outer.end(3.0);
        let (trace, _) = finish().expect("session");
        let keys: Vec<(f64, u32, u64)> =
            trace.events.iter().map(|e| (e.vt, e.rank, e.seq)).collect();
        assert_eq!(
            keys,
            [
                (0.0, 0, 0),
                (1.0, 0, 1),
                (1.0, 1, 0),
                (1.0, 2, 0),
                (2.0, 2, 1),
                (3.0, 0, 2)
            ],
            "sorted by (vt, rank, seq); nothing absorbed before the session"
        );
        validate_chrome(&trace.chrome_json()).expect("spans nest");
        absorb(vec![record(1, 0, 0.0, Phase::Instant)]);
        assert!(finish().is_none(), "absorb starts no session");
    }
}
