//! `p2mdie-worker` — a standalone worker rank for multi-process cluster
//! runs.
//!
//! Spawned once per rank by the TCP drivers (`run_parallel` or
//! `run_coverage_parallel` with `ParallelConfig::with_transport`, or
//! `Service::new_tcp`):
//!
//! ```sh
//! p2mdie-worker --connect 127.0.0.1:40042 --rank 2 [--timeout-secs 60]
//! ```
//!
//! The process dials the master, completes the rendezvous handshake (which
//! also yields the cost model and the worker-to-worker mesh), adopts the
//! background KB from the wire (`Msg::KbSnapshot`), then serves jobs — each
//! a `Msg::SubmitJob` run to its own `Stop`; one for a one-shot run, many
//! on a resident service — until a `Stop` arrives while it is idle, sends a
//! shutdown report (final clock, steps, traffic row, recovery counters,
//! trace records), and exits 0.
//!
//! Exit codes say what happened (the named ones are constants of
//! `p2mdie_cluster::net`, whose `ChildSet::diagnose` turns them back into
//! sentences for the master's error):
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success: `Stop` at idle, shutdown report sent |
//! | 1 | bad usage |
//! | 2 | connect / handshake failure |
//! | 3 | injected test failure (`P2MDIE_TEST_FAIL`) |
//! | 4 | `IDLE_DISCONNECT_EXIT`: the master disconnected while this worker sat idle between jobs of a resident mesh (not a mid-job failure) |
//! | 5 | `BOOTSTRAP_FAILURE_EXIT`: the bootstrap delivered no usable KB snapshot (poison broadcast first) |
//! | 6 | `PROTOCOL_FAILURE_EXIT`: a typed protocol failure mid-run — a peer's link died under a receive, or a frame had to be refused (poison broadcast first) |
//! | 101 | `PANIC_EXIT`: the worker panicked, a bug (poison broadcast first) |
//! | 102 | `POISONED_EXIT`: woken by another rank's failure — a victim, not a cause |
//!
//! The process records its spans and events when the master does: the
//! roster says whether the master had a trace session active as the mesh
//! formed, and if it did, the worker starts one of its own right after the
//! handshake. Its records go home in the shutdown report, into the
//! master's session, so the caller's `trace::finish` holds every rank. A
//! worker that exits without a report takes its records with it.
//!
//! The `P2MDIE_TEST_FAIL` environment variable injects post-handshake
//! failures so the failure-propagation and recovery tests can exercise a
//! worker process misbehaving without a special binary. It holds a
//! comma-separated list of specs; the first one naming this process's rank
//! applies:
//!
//! * `exit:<rank>` — exit 3 immediately after the handshake;
//! * `badframe:<rank>` — send the master garbage bytes, then exit 3;
//! * `stall:<rank>` — complete the handshake, then go silent *without
//!   exiting* (the wedged-process case: links stay open, nothing flows;
//!   the spawner's teardown deadline must reap it);
//! * `exit-after:<rank>:<n>` — run the real protocol but die (exit 3,
//!   no poison, no report) the moment an `(n+1)`-th message would be
//!   received — a mid-run crash at a deterministic protocol point.

use p2mdie_cluster::comm::Endpoint;
use p2mdie_cluster::net::{
    worker_connect, TcpTransport, WorkerReport, BOOTSTRAP_FAILURE_EXIT, IDLE_DISCONNECT_EXIT,
    PANIC_EXIT, POISONED_EXIT, PROTOCOL_FAILURE_EXIT,
};
use p2mdie_cluster::{panic_message, Envelope, TrafficStats, Transport, TransportEvent};
use p2mdie_core::remote::{adopt_kb, WorkerExit};
use p2mdie_core::scheduler::run_resident_worker;
use p2mdie_obs::trace::{self, TraceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn main() {
    std::process::exit(run());
}

fn usage() -> i32 {
    eprintln!("usage: p2mdie-worker --connect HOST:PORT --rank N [--timeout-secs N]");
    1
}

fn run() -> i32 {
    let mut connect: Option<String> = None;
    let mut rank: Option<usize> = None;
    let mut timeout = Duration::from_secs(60);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .ok_or_else(|| eprintln!("missing value for {what}"))
        };
        match arg.as_str() {
            "--connect" => match take("--connect") {
                Ok(v) => connect = Some(v),
                Err(()) => return usage(),
            },
            "--rank" => match take("--rank").map(|v| v.parse::<usize>()) {
                Ok(Ok(v)) => rank = Some(v),
                _ => return usage(),
            },
            "--timeout-secs" => match take("--timeout-secs").map(|v| v.parse::<u64>()) {
                Ok(Ok(v)) => timeout = Duration::from_secs(v),
                _ => return usage(),
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let (Some(connect), Some(rank)) = (connect, rank) else {
        return usage();
    };
    if rank == 0 {
        eprintln!("rank 0 is the master; worker ranks start at 1");
        return usage();
    }

    let (transport, model) = match worker_connect(&connect, rank, timeout) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("worker rank {rank}: connecting to {connect}: {e}");
            return 2;
        }
    };
    let size = transport.size();
    if transport.master_records() {
        trace::start(TraceConfig::default());
    }

    match parse_test_injection(rank) {
        Some(Injection::Exit) => {
            eprintln!("worker rank {rank}: injected early exit");
            3
        }
        Some(Injection::BadFrame) => {
            let mut ep =
                Endpoint::from_parts(rank, size, transport, model, TrafficStats::new(size));
            // A length prefix beyond MAX_FRAME: unambiguously malformed on
            // the first four bytes.
            let garbage = 0xFFFF_FFFFu32.to_le_bytes();
            ep.transport_mut().send_raw_bytes(0, &garbage);
            eprintln!("worker rank {rank}: injected malformed frame");
            3
        }
        Some(Injection::Stall) => {
            eprintln!("worker rank {rank}: injected stall");
            // Go silent without dying: every link stays open, nothing is
            // sent or received, and only the spawner's deadline reaps us.
            loop {
                std::thread::sleep(Duration::from_secs(60));
            }
        }
        Some(Injection::ExitAfter(n)) => {
            let wrapped = ExitAfter {
                inner: transport,
                rank,
                remaining: n,
            };
            let ep = Endpoint::from_parts(rank, size, wrapped, model, TrafficStats::new(size));
            serve(rank, ep, |t| &mut t.inner)
        }
        None => {
            let ep = Endpoint::from_parts(rank, size, transport, model, TrafficStats::new(size));
            serve(rank, ep, |t| t)
        }
    }
}

/// Runs the worker protocol to completion on `ep` — the two steps of
/// `run_remote_worker`, apart, so that a failure says which one it ended —
/// then sends the shutdown report over the underlying TCP transport
/// (`report_via` peels any injection wrapper off).
fn serve<T: Transport>(
    rank: usize,
    mut ep: Endpoint<T>,
    report_via: impl FnOnce(&mut T) -> &mut TcpTransport,
) -> i32 {
    // Where the process ends: the one place its unwinding is caught.
    let session = catch_unwind(AssertUnwindSafe(|| {
        let base = adopt_kb(&mut ep).map_err(|f| (BOOTSTRAP_FAILURE_EXIT, f))?;
        run_resident_worker(&mut ep, base).map_err(|f| (PROTOCOL_FAILURE_EXIT, f))
    }));
    match session {
        Ok(Ok(WorkerExit::Finished)) => {
            ep.flush(); // its write failures counted before the row is read
            let report = WorkerReport {
                vtime: ep.now(),
                steps: ep.compute_steps(),
                sends: ep.stats().send_row(rank),
                recovery_bytes: ep.stats().recovery_bytes(),
                recovery_messages: ep.stats().recovery_messages(),
                records: trace::finish().map_or_else(Vec::new, |(t, _)| t.events),
            };
            if !report_via(ep.transport_mut()).send_report(&report) {
                eprintln!("worker rank {rank}: master gone before the shutdown report");
            }
            0
        }
        Ok(Ok(WorkerExit::IdleDisconnect)) => {
            // The master vanished while we sat idle between jobs: no report
            // to send (the link is gone) and nothing mid-flight was lost.
            eprintln!("worker rank {rank}: master disconnected while idle between jobs");
            IDLE_DISCONNECT_EXIT
        }
        Ok(Err((code, failure))) => match failure.poisoned_by() {
            Some(origin) => {
                eprintln!("worker rank {rank}: poisoned by rank {origin}");
                POISONED_EXIT
            }
            None => {
                ep.broadcast_poison();
                eprintln!("worker rank {rank} failed: {failure}");
                code
            }
        },
        Err(payload) => {
            ep.broadcast_poison();
            eprintln!("worker rank {rank} panicked: {}", panic_message(&*payload));
            PANIC_EXIT
        }
    }
}

enum Injection {
    Exit,
    BadFrame,
    Stall,
    ExitAfter(u64),
}

/// Parses `P2MDIE_TEST_FAIL` (see the module docs) and returns the first
/// injection naming this rank, if any.
fn parse_test_injection(rank: usize) -> Option<Injection> {
    let spec = std::env::var("P2MDIE_TEST_FAIL").ok()?;
    for part in spec.split(',') {
        let Some((mode, rest)) = part.trim().split_once(':') else {
            continue;
        };
        let (target, arg) = match rest.split_once(':') {
            Some((t, a)) => (t, Some(a)),
            None => (rest, None),
        };
        if target.parse::<usize>() != Ok(rank) {
            continue;
        }
        return Some(match (mode, arg) {
            ("exit", None) => Injection::Exit,
            ("badframe", None) => Injection::BadFrame,
            ("stall", None) => Injection::Stall,
            ("exit-after", Some(n)) => match n.parse::<u64>() {
                Ok(n) => Injection::ExitAfter(n),
                Err(_) => {
                    eprintln!("worker rank {rank}: bad exit-after count `{n}`");
                    Injection::Exit
                }
            },
            (other, _) => {
                eprintln!("worker rank {rank}: unknown injection `{other}`");
                Injection::Exit
            }
        });
    }
    None
}

/// Transport wrapper for `exit-after:<rank>:<n>`: passes traffic through
/// untouched until `n` messages have been received, then kills the whole
/// process at the next receive — an abrupt mid-run death (no poison, no
/// report, links reset by the OS) at a deterministic protocol point.
struct ExitAfter {
    inner: TcpTransport,
    rank: usize,
    remaining: u64,
}

impl Transport for ExitAfter {
    fn send(&mut self, to: usize, env: Envelope) -> bool {
        self.inner.send(to, env)
    }

    fn flush(&mut self) -> Vec<usize> {
        self.inner.flush()
    }

    fn recv(&mut self) -> TransportEvent {
        if self.remaining == 0 {
            eprintln!("worker rank {}: injected mid-run death", self.rank);
            std::process::exit(3);
        }
        let ev = self.inner.recv();
        if matches!(ev, TransportEvent::Envelope(_)) {
            self.remaining -= 1;
        }
        ev
    }
}
