//! Multi-job smoke test of the resident service over a **real** TCP mesh:
//! a master (this test) plus real `p2mdie-worker` OS processes that stay
//! resident between jobs. Pins the tentpole's deployment shape end to end:
//! the KB snapshot ships once, several jobs of different kinds are
//! multiplexed over the standing worker processes, each result matches the
//! corresponding fresh-mesh run, and the workers exit cleanly at shutdown
//! (no idle-disconnect exits, no reaping timeouts).

use p2mdie_core::driver::{run_parallel, ParallelConfig};
use p2mdie_core::job::{JobSpec, JobState};
use p2mdie_core::remote::TcpConfig;
use p2mdie_core::scheduler::{Service, ServiceConfig};
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

/// Three jobs — two learning runs with different partition seeds and a
/// coverage query — multiplexed over two resident worker processes.
#[test]
fn multi_job_service_over_real_worker_processes() {
    let ds = p2mdie_datasets::trains(12, 5);
    let width = Width::Limit(10);

    // Fresh-mesh references (in-process; the TCP run must match bit for
    // bit in theory and steps, as pinned for one-shots by tcp_cluster.rs).
    let solo3 = run_parallel(&ds.engine, &ds.examples, &ParallelConfig::new(2, width, 3)).unwrap();
    let solo5 = run_parallel(&ds.engine, &ds.examples, &ParallelConfig::new(2, width, 5)).unwrap();
    let rules = solo5.clauses();
    assert!(!rules.is_empty());

    let engine = ds.engine.clone();
    let examples = ds.examples.clone();
    let (learn3, learn5, query, report) = bounded(move || {
        let service = Service::new_tcp(&engine, ServiceConfig::new(2), &tcp_config());
        let h3 = service
            .submit(
                JobSpec::learn(examples.clone())
                    .with_seed(3)
                    .with_width(width),
            )
            .unwrap();
        let h5 = service
            .submit(
                JobSpec::learn(examples.clone())
                    .with_seed(5)
                    .with_width(width),
            )
            .unwrap();
        let hq = service
            .submit(JobSpec::coverage(examples.clone(), rules))
            .unwrap();
        let learn3 = h3.wait();
        let learn5 = h5.wait();
        let query = hq.wait();
        let report = service.shutdown().unwrap();
        (learn3, learn5, query, report)
    });

    assert_eq!(learn3.state, JobState::Done, "learn#3: {:?}", learn3.error);
    assert_eq!(learn5.state, JobState::Done, "learn#5: {:?}", learn5.error);
    assert_eq!(query.state, JobState::Done, "query: {:?}", query.error);

    assert_eq!(
        learn3.learned().theory,
        solo3.theory,
        "resident TCP learn (seed 3) drifted from the fresh-mesh run"
    );
    assert_eq!(learn3.accounting.worker_steps, solo3.worker_steps);
    assert_eq!(
        learn5.learned().theory,
        solo5.theory,
        "resident TCP learn (seed 5) drifted from the fresh-mesh run"
    );
    assert_eq!(learn5.accounting.worker_steps, solo5.worker_steps);

    for (rule, counts) in solo5.clauses().iter().zip(query.coverage()) {
        let cov = ds.engine.evaluate(rule, &ds.examples, None, None);
        assert_eq!(
            (cov.pos_count(), cov.neg_count()),
            *counts,
            "TCP coverage query drifted from direct evaluation"
        );
    }

    assert_eq!(report.jobs_run, 3);
    assert_eq!(report.dropped_sends, 0, "nothing may be lost on the wire");
    // One KB snapshot amortized over three jobs: the per-job byte deltas
    // cannot account for all mesh traffic.
    let job_bytes = learn3.accounting.bytes + learn5.accounting.bytes + query.accounting.bytes;
    assert!(
        report.total_bytes > job_bytes,
        "the one-time KB ship must live outside the per-job deltas ({} vs {job_bytes})",
        report.total_bytes
    );
}

/// `Service::metrics()` is legal before the first job: the worker processes
/// are still in their bootstrap loop then, and must answer the query from
/// there instead of dying on it. (Found by `bench_e2e`; see its README.)
#[test]
fn metrics_before_the_first_job_leave_the_service_up() {
    let ds = p2mdie_datasets::pyrimidines(0.1, 1);
    let (snapshots, job, report) = bounded(move || {
        let service = Service::new_tcp(&ds.engine, ServiceConfig::new(2), &tcp_config());
        let snapshots = service.metrics();
        let job = service
            .submit(JobSpec::coverage(ds.examples.clone(), vec![]))
            .map(|h| h.wait());
        (snapshots, job, service.shutdown())
    });
    assert_eq!(
        snapshots.expect("metrics() before any job").len(),
        2,
        "one snapshot per worker"
    );
    let job = job.expect("submit after an early metrics()");
    assert_eq!(job.state, JobState::Done, "{:?}", job.error);
    let report = report.expect("shutdown after an early metrics()");
    assert_eq!(report.jobs_run, 1);
    assert_eq!(report.dropped_sends, 0);
}
