//! Flight-recorder determinism and zero-overhead guarantees, end to end.
//!
//! The tentpole invariant: with the same seed, a traced run — even one
//! that loses a rank mid-flight to `ChaosTransport` and self-heals —
//! produces a **byte-identical** Chrome `trace_event` export every time,
//! because spans and events are ordered on the deterministic virtual-time
//! axis (wall-clock never reaches the export). A run over real
//! `p2mdie-worker` processes records the same timeline as its in-process
//! twin: each worker process records when the master does and its records
//! come home in its shutdown report. The companion invariant: with no
//! trace session and sampling off, the whole instrumentation layer records
//! nothing at all.
//!
//! Trace sessions are process-global (one at a time), so every test that
//! starts one serializes on [`TRACE_LOCK`].

use p2mdie_cluster::ChaosConfig;
use p2mdie_core::driver::{run_parallel, ParallelConfig, RecoveryPolicy, TransportKind};
use p2mdie_core::remote::TcpConfig;
use p2mdie_ilp::settings::Width;
use p2mdie_obs::metrics::hot;
use p2mdie_obs::trace::{self, TraceConfig};
use p2mdie_obs::validate_chrome;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_p2mdie-worker");

fn tcp(cfg: &ParallelConfig) -> ParallelConfig {
    let tcp = TcpConfig::with_worker_bin(WORKER_BIN);
    cfg.clone().with_transport(TransportKind::Tcp(tcp))
}

/// One traced learn under `cfg`: the Chrome export and the ranks that
/// recorded.
fn traced_learn(cfg: &ParallelConfig) -> (String, Vec<u32>) {
    let ds = p2mdie_datasets::trains(16, 5);
    assert!(
        trace::start(TraceConfig::default()),
        "no other trace session may be active"
    );
    let rep = run_parallel(&ds.engine, &ds.examples, cfg);
    let (trace, _summary) = trace::finish().expect("session was active");
    assert!(!rep.unwrap().theory.is_empty());
    let mut ranks: Vec<u32> = trace.events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    (trace.chrome_json(), ranks)
}

/// A traced run over two real worker processes records what its
/// in-process twin (KB shipped, same seed) records, byte for byte: every
/// rank's records, at the same virtual times, with their fields in order.
#[test]
fn tcp_run_trace_matches_its_in_process_twin() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let cfg = ParallelConfig::new(2, Width::Limit(10), 5).with_kb_shipping();
    let (twin, twin_ranks) = traced_learn(&cfg);
    let (over_tcp, tcp_ranks) = traced_learn(&tcp(&cfg));
    assert_eq!(twin_ranks, [0, 1, 2]);
    assert_eq!(tcp_ranks, [0, 1, 2], "every rank's records came home");
    assert_eq!(
        twin.lines().count(),
        over_tcp.lines().count(),
        "as many records over TCP as in process"
    );
    assert_eq!(over_tcp, twin, "the same Chrome export on both transports");
    validate_chrome(&over_tcp).expect("well-formed, properly nested trace");
}

/// A traced TCP run whose worker fails returns the error and leaves the
/// caller's session as it was: still active, holding the master's records.
#[test]
fn failed_tcp_run_leaves_the_callers_session_active() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let ds = p2mdie_datasets::trains(8, 5);
    let mut tcp = TcpConfig::with_worker_bin(WORKER_BIN);
    tcp.timeout = std::time::Duration::from_secs(30);
    tcp.worker_env
        .push(("P2MDIE_TEST_FAIL".to_owned(), "exit:1".to_owned()));
    let cfg = ParallelConfig::new(2, Width::Limit(10), 5).with_transport(TransportKind::Tcp(tcp));
    assert!(trace::start(TraceConfig::default()));
    assert!(run_parallel(&ds.engine, &ds.examples, &cfg).is_err());
    assert!(
        trace::enabled(),
        "the caller's session survives the failure"
    );
    let (trace, _) = trace::finish().expect("the caller's session");
    assert!(!trace.events.is_empty(), "the master recorded its part");
    assert!(trace.events.iter().all(|e| e.rank == 0));
}

fn recovering_cfg(workers: usize) -> ParallelConfig {
    ParallelConfig::new(workers, Width::Limit(10), 5)
        .with_recovery(RecoveryPolicy::Repartition { max_rank_losses: 1 })
}

/// One traced 3-rank learning run with rank 1 killed mid-epoch, returning
/// the Chrome export of the whole mesh's timeline.
fn traced_chaos_chrome() -> String {
    let ds = p2mdie_datasets::trains(16, 5);
    let cfg = recovering_cfg(3).with_chaos(1, ChaosConfig::new(7).kill_after_sends(3));
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
    let cfg = ParallelConfig::new(2, Width::Limit(10), 5);
    for cfg in [cfg.clone(), tcp(&cfg)] {
        let rep = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
        assert!(!rep.theory.is_empty());
    }

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
