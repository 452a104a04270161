//! Flight recorder for the p²-mdie cluster: structured tracing, metric
//! snapshots, and the encoders that turn both into standard tool formats.
//!
//! This crate is the workspace's in-repo equivalent of `tracing` +
//! `metrics` + `tracing-chrome` (the build environment has no crates.io
//! access — see `shims/README.md`), deliberately **std-only** so every
//! layer of the system can depend on it without widening the offline shim
//! set.
//!
//! # Span model
//!
//! A [`trace::Tracer`] is a copyable per-rank handle. When tracing is off
//! (the default) every call is a single relaxed atomic load and an early
//! return — no events, no allocation, no lock. When a session is on
//! ([`trace::start`]), ranks emit:
//!
//! * **spans** — explicit guards opened with [`trace::Tracer::span`] (or
//!   the [`span!`] macro) and closed with an explicit virtual-time stamp
//!   ([`trace::Span::end`]); unclosed guards close themselves on drop at
//!   their opening time, so a panic path never leaves an orphan `B` event;
//! * **events** — instantaneous, structured key/value points
//!   ([`trace::Tracer::event`] / the [`event!`] macro).
//!
//! Records land in the session's one buffer, tagged with their rank; there
//! is no writer thread and no file. [`trace::finish`] returns the whole
//! [`export::Trace`]. A multi-process run records the same way: each worker
//! process of a TCP mesh records into a session of its own when the master
//! is recording, and its records come home in its shutdown report, where
//! [`trace::absorb`] adds them to the master's session.
//!
//! # Virtual time vs wall time
//!
//! Every record carries **two clocks**: the rank's *virtual* time (the
//! LogP-style simulated clock the paper's tables are computed on — the
//! caller passes it explicitly, typically `Endpoint::now()`) and the *wall*
//! nanoseconds since the session started. Virtual time is the deterministic
//! axis: two runs with the same seed produce byte-identical span trees on
//! it, and a worker process's records sort into one coherent timeline with
//! the master's because the merged clock values travel inside the protocol
//! frames. Wall
//! time is diagnostic only — it is kept out of the Chrome export so that
//! file stays bit-reproducible.
//!
//! # Chrome trace format
//!
//! [`export::Trace::chrome_json`] renders the classic `trace_event` JSON
//! (`{"traceEvents": [...]}` with `B`/`E`/`i` phases, `ts` in virtual
//! microseconds, `tid` = rank), loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev). [`export::validate_chrome`] parses
//! it back and checks every `E` nests under a matching `B` per rank — the
//! CI trace-smoke gate.
//!
//! # Metrics
//!
//! [`metrics::MetricsSnapshot`] is the sorted, serializable view a rank's
//! metrics report carries: [`metrics::MetricsSnapshot::prometheus`]
//! renders the Prometheus text exposition format. A snapshot is built
//! where it is read; there is no registry. Process-wide prover hot-path counters
//! live in [`metrics::hot`], guarded by their own single relaxed atomic
//! load ([`metrics::hot::enabled`]).

pub mod export;
mod json;
pub mod metrics;
pub mod trace;

pub use export::{validate_chrome, Trace};
pub use metrics::{MetricEntry, MetricValue, MetricsSnapshot};
pub use trace::{Event, Phase, Span, Tracer, Value};

/// Opens a span through a [`trace::Tracer`]: `span!(tracer, "name", vt,
/// key = value, ...)`. Returns a [`trace::Span`] guard; close it with an
/// explicit virtual-time stamp ([`trace::Span::end`]).
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr, $vt:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $tracer.span($name, $vt, &[$((stringify!($k), $crate::Value::from($v))),*])
    };
}

/// Emits an instantaneous structured event: `event!(tracer, "name", vt,
/// key = value, ...)`.
#[macro_export]
macro_rules! event {
    ($tracer:expr, $name:expr, $vt:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $tracer.event($name, $vt, &[$((stringify!($k), $crate::Value::from($v))),*])
    };
}
