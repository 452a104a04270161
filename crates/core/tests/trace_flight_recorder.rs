//! Flight-recorder determinism and zero-overhead guarantees, end to end.
//!
//! The tentpole invariant: with the same seed, a traced run — even one
//! that loses a rank mid-flight to `ChaosTransport` and self-heals —
//! produces a **byte-identical** Chrome `trace_event` export every time,
//! because spans and events are ordered on the deterministic virtual-time
//! axis (wall-clock never reaches the export). The companion invariant:
//! with no trace session and sampling off, the whole instrumentation
//! layer records nothing at all.
//!
//! Trace sessions are process-global (one at a time), so every test that
//! starts one serializes on [`TRACE_LOCK`].

use p2mdie_cluster::ChaosConfig;
use p2mdie_core::driver::{run_parallel, ParallelConfig, RecoveryPolicy};
use p2mdie_ilp::settings::Width;
use p2mdie_obs::metrics::hot;
use p2mdie_obs::trace::{self, TraceConfig};
use p2mdie_obs::validate_chrome;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn recovering_cfg(workers: usize) -> ParallelConfig {
    ParallelConfig::new(workers, Width::Limit(10), 5)
        .with_recovery(RecoveryPolicy::Repartition { max_rank_losses: 1 })
}

/// One traced 3-rank learning run with rank 1 killed mid-epoch, returning
/// the Chrome export of the whole mesh's timeline.
fn traced_chaos_chrome() -> String {
    let ds = p2mdie_datasets::trains(16, 5);
    let cfg = recovering_cfg(3).with_chaos(1, ChaosConfig::new(7).kill_after_sends(4));
    assert!(
        trace::start(TraceConfig::default()),
        "no other trace session may be active"
    );
    let rep = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
    assert_eq!(rep.rank_losses, vec![1], "the chaos kill must have landed");
    let (trace, _summary) = trace::finish().expect("session was active");
    trace.chrome_json()
}

/// Same seed, same kill, twice: the Chrome JSON must match byte for byte,
/// and the recovery machinery must be visible as named spans on the
/// timeline (the `recovery` phase on the endpoints, the `quiesce` drain
/// on the surviving workers, `epoch` spans on the master).
#[test]
fn chaos_run_trace_is_byte_reproducible() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let first = traced_chaos_chrome();
    let second = traced_chaos_chrome();
    assert_eq!(
        first, second,
        "same seed must produce a bit-identical Chrome export"
    );
    let events = validate_chrome(&first).expect("well-formed, properly nested trace");
    assert!(events > 0, "the run must have recorded something");
    for name in ["\"recovery\"", "\"quiesce\"", "\"epoch\"", "\"stage\""] {
        assert!(
            first.contains(name),
            "expected a {name} span in the recovered run's trace"
        );
    }
    assert!(
        first.contains("\"send\"") && first.contains("\"recv\""),
        "endpoint events must be on the timeline"
    );
}

/// With no session started and sampling off, the flight recorder is
/// inert: no trace events buffer anywhere and the prover hot counters
/// never move — the disabled path is a single relaxed load per site.
#[test]
fn disabled_recorder_records_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap();
    hot::reset();
    assert!(!trace::enabled());
    assert!(!hot::enabled());

    let ds = p2mdie_datasets::trains(12, 5);
    let rep = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(2, Width::Limit(10), 5),
    )
    .unwrap();
    assert!(!rep.theory.is_empty());

    assert_eq!(
        hot::total_recorded(),
        0,
        "hot counters must not move while sampling is off"
    );
    assert!(
        !trace::enabled(),
        "a run must not start a trace session on its own"
    );
    hot::reset();
}
