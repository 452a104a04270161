//! The tracing core: per-rank ring buffers, the writer thread, and the
//! zero-cost-when-disabled [`Tracer`] handle.
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
//! 3. **Producers never block on I/O.** Ranks push into their own ring
//!    buffer; a background writer thread drains all rings on a short
//!    cadence (streaming JSONL when a path is configured). Rings grow
//!    past [`RING_SOFT_CAP`] rather than dropping records — losing events
//!    under load would make the timeline timing-dependent, violating (2);
//!    the overflow is surfaced in [`TraceSummary::ring_overflows`]
//!    instead.

use crate::export::Trace;
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Number of per-rank ring buffers a session allocates. Ranks at or above
/// the cap share the last ring (their records stay correctly rank-tagged;
/// only the sequence counter is shared, so same-virtual-time ordering
/// between two such ranks is not pinned). The paper runs p ≤ 8; this cap
/// exists so a session is a fixed allocation, not a growing map.
pub const RING_COUNT: usize = 256;

/// Per-ring soft capacity: the writer thread normally drains long before
/// this; a producer that outruns it grows the buffer (determinism beats
/// boundedness) and bumps the session's overflow counter.
pub const RING_SOFT_CAP: usize = 8192;

/// How often the writer thread drains the rings.
const FLUSH_INTERVAL: Duration = Duration::from_millis(20);

/// Is a trace session active? One relaxed atomic load — this is the whole
/// cost of every instrumentation site while tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn session_slot() -> &'static Mutex<Option<Arc<Shared>>> {
    static SLOT: Mutex<Option<Arc<Shared>>> = Mutex::new(None);
    &SLOT
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

/// Configuration for one trace session.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// Stream records to this JSONL file as they are drained (append
    /// order; re-sorted on load). `None` keeps everything in memory until
    /// [`finish`].
    pub jsonl_path: Option<PathBuf>,
}

struct Ring {
    buf: Mutex<Vec<Event>>,
    seq: AtomicU64,
}

struct Shared {
    start: Instant,
    rings: Vec<Ring>,
    ring_overflows: AtomicU64,
    stop: Mutex<bool>,
    wake: Condvar,
    collected: Mutex<Vec<Event>>,
    jsonl: Mutex<Option<BufWriter<File>>>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Counters describing how a finished session behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Times a producer found its ring past [`RING_SOFT_CAP`] (records
    /// were kept regardless; this only flags that the writer fell behind).
    pub ring_overflows: u64,
}

impl Shared {
    fn drain_rings(&self) {
        let mut drained: Vec<Event> = Vec::new();
        for ring in &self.rings {
            let mut buf = ring.buf.lock().expect("ring lock");
            if !buf.is_empty() {
                drained.append(&mut buf);
            }
        }
        if drained.is_empty() {
            return;
        }
        if let Some(w) = self.jsonl.lock().expect("jsonl lock").as_mut() {
            let mut line = String::new();
            for ev in &drained {
                line.clear();
                crate::export::jsonl_line(ev, &mut line);
                line.push('\n');
                let _ = w.write_all(line.as_bytes());
            }
        }
        self.collected
            .lock()
            .expect("collected lock")
            .append(&mut drained);
    }
}

fn writer_loop(shared: Arc<Shared>) {
    let mut stopped = shared.stop.lock().expect("stop lock");
    loop {
        if *stopped {
            break;
        }
        let (guard, _) = shared
            .wake
            .wait_timeout(stopped, FLUSH_INTERVAL)
            .expect("writer wait");
        stopped = guard;
        drop(stopped);
        shared.drain_rings();
        stopped = shared.stop.lock().expect("stop lock");
    }
    drop(stopped);
    shared.drain_rings();
    if let Some(w) = shared.jsonl.lock().expect("jsonl lock").as_mut() {
        let _ = w.flush();
    }
}

/// Starts a trace session. Returns `false` (and does nothing) when one is
/// already active — sessions are process-global, exactly one at a time.
pub fn start(cfg: TraceConfig) -> bool {
    let mut slot = session_slot().lock().expect("session lock");
    if slot.is_some() {
        return false;
    }
    let jsonl = cfg
        .jsonl_path
        .as_ref()
        .and_then(|p| File::create(p).ok())
        .map(BufWriter::new);
    let mut rings = Vec::with_capacity(RING_COUNT);
    rings.resize_with(RING_COUNT, || Ring {
        buf: Mutex::new(Vec::new()),
        seq: AtomicU64::new(0),
    });
    let shared = Arc::new(Shared {
        start: Instant::now(),
        rings,
        ring_overflows: AtomicU64::new(0),
        stop: Mutex::new(false),
        wake: Condvar::new(),
        collected: Mutex::new(Vec::new()),
        jsonl: Mutex::new(jsonl),
        writer: Mutex::new(None),
    });
    let for_writer = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name("p2mdie-obs-writer".to_owned())
        .spawn(move || writer_loop(for_writer))
        .expect("spawn trace writer");
    *shared.writer.lock().expect("writer lock") = Some(handle);
    *slot = Some(shared);
    ENABLED.store(true, Ordering::Release);
    true
}

/// Ends the active session: disables emission, joins the writer thread,
/// drains everything, and returns the sorted [`Trace`] (plus a summary).
/// Returns `None` when no session was active.
pub fn finish() -> Option<(Trace, TraceSummary)> {
    let shared = {
        let mut slot = session_slot().lock().expect("session lock");
        ENABLED.store(false, Ordering::Release);
        slot.take()?
    };
    {
        let mut stopped = shared.stop.lock().expect("stop lock");
        *stopped = true;
        shared.wake.notify_all();
    }
    if let Some(h) = shared.writer.lock().expect("writer lock").take() {
        let _ = h.join();
    }
    // The writer's exit path already drained and flushed; a late producer
    // racing `finish` could still have pushed, so drain once more.
    shared.drain_rings();
    if let Some(w) = shared.jsonl.lock().expect("jsonl lock").as_mut() {
        let _ = w.flush();
    }
    let events = std::mem::take(&mut *shared.collected.lock().expect("collected lock"));
    let mut trace = Trace { events };
    trace.sort();
    let summary = TraceSummary {
        ring_overflows: shared.ring_overflows.load(Ordering::Relaxed),
    };
    Some((trace, summary))
}

#[inline]
fn emit(rank: u32, phase: Phase, name: &'static str, vt: f64, args: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    let shared = {
        let slot = session_slot().lock().expect("session lock");
        match slot.as_ref() {
            Some(s) => Arc::clone(s),
            None => return,
        }
    };
    let ring = &shared.rings[(rank as usize).min(RING_COUNT - 1)];
    let seq = ring.seq.fetch_add(1, Ordering::Relaxed);
    let wall_ns = shared.start.elapsed().as_nanos() as u64;
    let ev = Event {
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
    };
    let mut buf = ring.buf.lock().expect("ring lock");
    if buf.len() >= RING_SOFT_CAP {
        shared.ring_overflows.fetch_add(1, Ordering::Relaxed);
    }
    buf.push(ev);
    drop(buf);
    shared.wake.notify_all();
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

    #[test]
    fn jsonl_streaming_roundtrips() {
        let _g = lock();
        let path =
            std::env::temp_dir().join(format!("p2mdie-obs-test-{}.jsonl", std::process::id()));
        assert!(start(TraceConfig {
            jsonl_path: Some(path.clone()),
        }));
        let t = Tracer::for_rank(1);
        let sp = t.span("work", 0.5, &[("n", Value::U64(7))]);
        sp.end(1.5);
        t.event("note", 2.0, &[("msg", Value::from("done"))]);
        let (trace, _) = finish().expect("session");
        let text = std::fs::read_to_string(&path).expect("jsonl written");
        let reloaded = Trace::from_jsonl(&text).expect("jsonl parses");
        assert_eq!(reloaded.events, trace.events);
        let _ = std::fs::remove_file(&path);
    }
}
