//! End-to-end multi-process cluster tests: a real master process (this
//! test) plus real `p2mdie-worker` OS processes over localhost TCP.
//!
//! The load-bearing assertion: a multi-process run is **bit-identical** to
//! the in-process simulation with the same `ParallelConfig` seed — same
//! induced theory, same coverage counts on every accepted rule, same
//! epochs, same per-rank metered steps, same pipeline rule flow, and, both
//! being one job on a mesh of resident workers, the same bytes, messages
//! and virtual clocks. The
//! failure tests pin that a worker process dying early or emitting a
//! malformed frame surfaces as a rank-tagged error at the master instead
//! of a hang (every run is bounded by a watchdog timeout).

use p2mdie_cluster::{ClusterError, CostModel};
use p2mdie_core::baselines::{run_coverage_parallel, EvalGranularity};
use p2mdie_core::driver::{run_parallel, ParallelConfig, RecoveryPolicy, TransportKind};
use p2mdie_core::remote::TcpConfig;
use p2mdie_ilp::settings::Width;
use std::sync::mpsc;
use std::time::Duration;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_p2mdie-worker");
const WATCHDOG: Duration = Duration::from_secs(120);

fn tcp_config() -> TcpConfig {
    TcpConfig::with_worker_bin(WORKER_BIN)
}

/// Runs `f` on a watchdog thread; a hang fails the test instead of
/// stalling the suite.
fn bounded<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(r) => {
            let _ = handle.join();
            r
        }
        Err(_) => panic!("multi-process run exceeded the {WATCHDOG:?} watchdog (hang?)"),
    }
}

/// The acceptance run: master + ≥2 real worker processes inducing on the
/// trains dataset must reproduce the in-process run exactly. The
/// in-process reference uses KB shipping (a TCP run always ships the KB —
/// worker processes have no shared memory), which is already pinned to
/// induce identically to the shared-memory run.
#[test]
fn tcp_processes_match_in_process_run_bit_for_bit() {
    let ds = p2mdie_datasets::trains(20, 5);
    for p in [2usize, 3] {
        let cfg = ParallelConfig::new(p, Width::Limit(10), 5).with_kb_shipping();
        let reference = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();

        let tcp_cfg = cfg.clone().with_transport(TransportKind::Tcp(tcp_config()));
        let engine = ds.engine.clone();
        let examples = ds.examples.clone();
        let tcp = bounded(move || run_parallel(&engine, &examples, &tcp_cfg)).unwrap();

        // Induced theory with coverage counts, epoch and origin of every
        // accepted rule — the algorithm's entire observable decision
        // sequence.
        assert_eq!(reference.theory, tcp.theory, "p={p}: theory drifted");
        assert_eq!(reference.epochs, tcp.epochs, "p={p}");
        assert_eq!(reference.set_aside, tcp.set_aside, "p={p}");
        assert!(!tcp.stalled, "p={p}");
        // Metered inference steps per rank (saturation, search, coverage
        // proofs) are bit-identical.
        assert_eq!(reference.worker_steps, tcp.worker_steps, "p={p}");
        // Pipeline rule flow: same rules in/out of every stage.
        let flow = |rep: &p2mdie_core::report::ParallelReport| -> Vec<(u8, u8, u32, u32)> {
            rep.traces
                .iter()
                .flat_map(|t| t.pipelines.iter().flatten())
                .map(|s| (s.worker, s.step, s.rules_in, s.rules_out))
                .collect()
        };
        assert_eq!(flow(&reference), flow(&tcp), "p={p}: stage flow drifted");
        // Nothing was lost on the wire.
        assert_eq!(tcp.dropped_sends, 0, "p={p}");
        // Both runs are one job on resident workers, framed alike: the
        // same traffic, the same job-control frames (four per rank, tallied
        // apart), and the same clocks to the last bit.
        let traffic = |rep: &p2mdie_core::report::ParallelReport| {
            let control = (rep.control_bytes, rep.control_messages);
            (rep.total_bytes, rep.total_messages, control)
        };
        assert_eq!(traffic(&reference), traffic(&tcp), "p={p}: traffic");
        assert_eq!(reference.control_messages, 4 * p as u64, "p={p}");
        assert_eq!(reference.vtime.to_bits(), tcp.vtime.to_bits(), "p={p}");
        assert_eq!(reference.worker_vtimes, tcp.worker_vtimes, "p={p}");
    }
}

/// The coverage-parallel baseline over real processes is its in-process
/// twin (KB shipped, same seed): one entry point, two transports, and the
/// same theory with coverage counts, per-rank steps, traffic and clocks.
#[test]
fn tcp_coverage_baseline_matches_in_process() {
    let ds = p2mdie_datasets::trains(20, 5);
    let cfg = ParallelConfig::new(2, Width::Unlimited, 5);
    let per_level = EvalGranularity::PerLevel;
    // Ship the KB, as the TCP run must.
    let reference = run_coverage_parallel(
        &ds.engine,
        &ds.examples,
        &cfg.clone().with_kb_shipping(),
        per_level,
    )
    .unwrap();
    let cfg = cfg.with_transport(TransportKind::Tcp(tcp_config()));
    let tcp =
        bounded(move || run_coverage_parallel(&ds.engine, &ds.examples, &cfg, per_level)).unwrap();
    assert_eq!(reference.theory, tcp.theory);
    assert_eq!(reference.epochs, tcp.epochs);
    assert_eq!(reference.set_aside, tcp.set_aside);
    assert_eq!(reference.worker_steps, tcp.worker_steps);
    assert_eq!(tcp.dropped_sends, 0);
    let traffic = |rep: &p2mdie_core::report::ParallelReport| {
        let control = (rep.control_bytes, rep.control_messages);
        (rep.total_bytes, rep.total_messages, control)
    };
    assert_eq!(traffic(&reference), traffic(&tcp));
    assert_eq!(reference.control_messages, 8);
    assert_eq!(reference.vtime.to_bits(), tcp.vtime.to_bits());
    assert_eq!(reference.worker_vtimes, tcp.worker_vtimes);
}

fn failing_run(injection: &str) -> Result<(), ClusterError> {
    let ds = p2mdie_datasets::trains(8, 5);
    let mut tcp = tcp_config();
    tcp.timeout = Duration::from_secs(30);
    tcp.worker_env
        .push(("P2MDIE_TEST_FAIL".to_owned(), injection.to_owned()));
    let cfg = ParallelConfig::new(2, Width::Limit(10), 5).with_transport(TransportKind::Tcp(tcp));
    let injection = injection.to_owned();
    bounded(move || {
        run_parallel(&ds.engine, &ds.examples, &cfg)
            .map(|_| ())
            .map_err(|e| {
                eprintln!("({injection}) surfaced: {e}");
                e
            })
    })
}

/// A worker process that exits right after the handshake must surface as a
/// rank-tagged error at the master — not a hang.
#[test]
fn early_worker_exit_surfaces_rank_tagged_error() {
    let err = failing_run("exit:1").unwrap_err();
    match &err {
        ClusterError::Comm { rank, message } => {
            assert_eq!(*rank, 1, "{err}");
            assert!(message.contains("rank 1"), "{err}");
        }
        other => panic!("expected a Comm error naming rank 1, got {other}"),
    }
}

/// A worker process that sends a malformed frame must surface as a
/// rank-tagged error naming the framing failure — not a hang, not a panic.
#[test]
fn malformed_frame_surfaces_rank_tagged_error() {
    let err = failing_run("badframe:1").unwrap_err();
    match &err {
        ClusterError::Comm { rank, message } => {
            assert_eq!(*rank, 1, "{err}");
            assert!(message.contains("malformed"), "{err}");
        }
        other => panic!("expected a Comm error naming rank 1, got {other}"),
    }
}

/// The recovery tentpole over real OS processes: a worker process that
/// dies mid-run (`exit-after` kills it after a deterministic number of
/// received messages — well into the first pipelines) is recovered around
/// under `RecoveryPolicy::Repartition`, and the run completes with the
/// fault-free TCP run's exact theory and coverage counts.
#[test]
fn killed_worker_process_mid_run_is_recovered_around() {
    let ds = p2mdie_datasets::trains(16, 5);
    let base = ParallelConfig::new(3, Width::Limit(10), 5)
        .with_kb_shipping()
        .with_recovery(RecoveryPolicy::Repartition { max_rank_losses: 1 });

    let fault_free_cfg = base
        .clone()
        .with_transport(TransportKind::Tcp(tcp_config()));
    let engine = ds.engine.clone();
    let examples = ds.examples.clone();
    let fault_free = bounded(move || run_parallel(&engine, &examples, &fault_free_cfg)).unwrap();
    assert!(fault_free.rank_losses.is_empty());

    let mut tcp = tcp_config();
    tcp.timeout = Duration::from_secs(30);
    // 6 = past the bootstrap (snapshot, submit-job, enable-recovery, load),
    // the first StartPipeline and one pipeline token: the process dies
    // inside epoch 1's pipelines, with stage work in flight.
    tcp.worker_env
        .push(("P2MDIE_TEST_FAIL".to_owned(), "exit-after:1:6".to_owned()));
    let killed_cfg = base.with_transport(TransportKind::Tcp(tcp));
    let engine = ds.engine.clone();
    let examples = ds.examples.clone();
    let healed = bounded(move || run_parallel(&engine, &examples, &killed_cfg)).unwrap();

    assert_eq!(healed.rank_losses, vec![1], "the death must be recorded");
    assert!(!healed.stalled);
    // The aborted epoch re-runs over the survivors, so a rule can be
    // re-found by a different pipeline with different variable numbering;
    // compare the decision sequence up to renaming, with exact coverage.
    let decisions = |rep: &p2mdie_core::report::ParallelReport| -> Vec<_> {
        rep.theory
            .iter()
            .map(|r| (r.clause.normalize(), r.pos, r.neg))
            .collect()
    };
    assert_eq!(
        decisions(&fault_free),
        decisions(&healed),
        "recovery changed the induced theory"
    );
    assert_eq!(fault_free.set_aside, healed.set_aside);
    assert!(
        healed.recovery_bytes > 0,
        "recovery traffic must be accounted"
    );
}

/// A worker process that wedges — completes the handshake, then goes
/// silent without exiting — must not hang teardown: when the run fails
/// (here because its sibling exits early), the master's diagnosis and
/// child reaping stay bounded even though the wedged process never closes
/// its pipes on its own.
#[test]
fn wedged_worker_process_cannot_hang_teardown() {
    let ds = p2mdie_datasets::trains(8, 5);
    let mut tcp = tcp_config();
    tcp.timeout = Duration::from_secs(10);
    tcp.worker_env
        .push(("P2MDIE_TEST_FAIL".to_owned(), "exit:1,stall:2".to_owned()));
    let cfg = ParallelConfig::new(2, Width::Limit(10), 5).with_transport(TransportKind::Tcp(tcp));
    let err = bounded(move || run_parallel(&ds.engine, &ds.examples, &cfg).unwrap_err());
    match &err {
        ClusterError::Comm { rank, .. } => assert_eq!(*rank, 1, "{err}"),
        other => panic!("expected a Comm error naming rank 1, got {other}"),
    }
}

/// A worker process's exit code says how it ended: a bootstrap that
/// delivers no usable KB snapshot and a typed protocol failure mid-run —
/// here a master-bound frame sent down to an idle worker — each exit with
/// their own code, after poisoning the run so that the master's receive
/// names the rank instead of waiting on it.
#[test]
fn worker_exit_codes_tell_a_bad_bootstrap_from_a_mid_run_failure() {
    use p2mdie_cluster::comm::{Endpoint, LinkFault};
    use p2mdie_cluster::net::{MasterRendezvous, BOOTSTRAP_FAILURE_EXIT, PROTOCOL_FAILURE_EXIT};
    use p2mdie_cluster::TrafficStats;
    use p2mdie_core::Msg;
    use std::process::{Command, Stdio};

    let ds = p2mdie_datasets::trains(8, 5);
    let snapshot = || Msg::KbSnapshot(Box::new(ds.engine.kb.to_snapshot()));
    let master_bound = || Msg::EvalResult { counts: vec![] };
    let sessions = [
        (vec![Msg::Stop], BOOTSTRAP_FAILURE_EXIT, "not a KB snapshot"),
        (
            vec![snapshot(), master_bound()],
            PROTOCOL_FAILURE_EXIT,
            "not a frame an idle worker takes",
        ),
    ];
    for (frames, code, why) in sessions {
        let (status, stderr, woken) = bounded(move || {
            let rendezvous = MasterRendezvous::bind("127.0.0.1:0").unwrap();
            let addr = rendezvous.local_addr().unwrap().to_string();
            let child = Command::new(WORKER_BIN)
                .args(["--connect", &addr, "--rank", "1", "--timeout-secs", "30"])
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn the worker");
            let model = CostModel::free();
            let transport = rendezvous
                .accept_workers(1, model, Duration::from_secs(30))
                .unwrap();
            let mut ep = Endpoint::from_parts(0, 2, transport, model, TrafficStats::new(2));
            for frame in &frames {
                ep.send(1, frame);
            }
            let woken = ep.recv_from(1).unwrap_err();
            let out = child.wait_with_output().expect("reap the worker");
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            (out.status, stderr, woken)
        });
        assert_eq!(status.code(), Some(code), "{stderr}");
        assert!(stderr.contains("worker rank 1 failed"), "{stderr}");
        assert!(stderr.contains(why), "{stderr}");
        assert_eq!(woken.fault, LinkFault::Poison { origin: 1 }, "{woken}");
    }
}
