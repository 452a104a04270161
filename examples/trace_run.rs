//! Flight recorder: trace a whole learning run and inspect the timeline.
//!
//! Starts an in-process trace session, runs a 3-worker p²-mdie learning
//! run (with sampling of the prover hot counters on), and writes the
//! merged multi-rank timeline in two formats:
//!
//! * `trace_run.chrome.json` — Chrome `trace_event` JSON; open it in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see
//!   the master's `epoch` spans over the workers' pipeline `stage` spans,
//!   with every `send`/`recv` on the virtual-time axis;
//! * stdout — the span tree and the prover's hot counters (its posting
//!   probes that found a run and those that found nothing) as a
//!   Prometheus-style metrics dump.
//!
//! Everything is ordered by **virtual time**, so the same seed produces
//! the same timeline on every machine — the trace is an artifact of the
//! algorithm, not of the scheduler.
//!
//! ```sh
//! cargo run --release --example trace_run
//! ```

use p2mdie::core::driver::{run_parallel, ParallelConfig};
use p2mdie::ilp::settings::Width;
use p2mdie::obs::metrics::hot;
use p2mdie::obs::trace::{self, TraceConfig};
use p2mdie::obs::{validate_chrome, MetricsSnapshot};

fn main() {
    let ds = p2mdie::datasets::trains(20, 5);
    let workers = 3;

    // Arm the recorder: one process-global session buffers every rank's
    // spans and events until `finish`, and the prover's hot counters start
    // sampling.
    assert!(
        trace::start(TraceConfig::default()),
        "recorder armed twice?"
    );
    hot::reset();
    hot::enable();

    let report = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(workers, Width::Limit(10), 5),
    )
    .expect("learning run");

    hot::disable();
    let (trace, _) = trace::finish().expect("session was active");

    println!(
        "learned {} rules in {} epochs over {workers} workers, T = {:.2} virtual s",
        report.theory.len(),
        report.epochs,
        report.vtime
    );
    println!("recorded {} trace events\n", trace.events.len());

    // The merged timeline as a span tree (virtual-time ordered).
    println!("span tree:\n{}", trace.span_tree());

    // Chrome trace_event export — loadable in Perfetto.
    let chrome = trace.chrome_json();
    validate_chrome(&chrome).expect("well-formed nesting");
    std::fs::write("trace_run.chrome.json", &chrome).expect("write chrome trace");
    println!("wrote trace_run.chrome.json ({} bytes)", chrome.len());

    // The hot counters — the prover's posting probes — as a Prometheus
    // exposition.
    let snapshot = MetricsSnapshot::from_entries(hot::entries());
    println!("\nhot counters:\n{}", snapshot.prometheus());
}
