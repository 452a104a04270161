//! The cluster harness: spawn `p` worker threads plus the master, wire up
//! the channel mesh, run both closures, and collect timing + traffic.
//!
//! This is the *in-process* runtime — ranks are threads, links are
//! channels, and it is the default because it is the fastest way to run a
//! whole simulated cluster. The multi-process runtime over real sockets
//! lives in [`crate::net`] (`run_cluster_tcp`); both produce the same
//! [`ClusterOutcome`].
//!
//! # How a run fails
//!
//! Both closures return `Result<_, CommFailure>`: a rank whose protocol
//! cannot go on — a dead link, a frame it must refuse — *returns* that, and
//! what is returned here is a [`ClusterError`] naming the rank at the root:
//! [`ClusterError::WorkerFailed`] for a worker's failure,
//! [`ClusterError::Comm`] (naming the peer at fault) for the master's. A
//! rank that fails wakes its peers with the poison marker; what they return
//! in turn ([`CommFailure::poisoned_by`]) marks them as victims, which are
//! skipped. Only a genuine bug unwinds: a worker's panic is caught where its
//! thread ends and reported as [`ClusterError::WorkerPanicked`], the
//! master's travels on through the caller (poisoning the run on the way, so
//! that no worker is left blocked).

use crate::comm::{CommFailure, Endpoint};
use crate::stats::TrafficStats;
use crate::transport::{DownHandle, MeshTransport, Transport};
use crate::vtime::CostModel;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything a finished cluster run reports.
#[derive(Debug)]
pub struct ClusterOutcome<R> {
    /// The master closure's return value.
    pub result: R,
    /// Virtual time at the master when it finished — the paper's `T(p)`.
    pub master_vtime: f64,
    /// Final virtual clocks of the workers (ranks 1..=p).
    pub worker_vtimes: Vec<f64>,
    /// Metered compute steps charged at the master.
    pub master_steps: u64,
    /// Metered compute steps per worker.
    pub worker_steps: Vec<u64>,
    /// Per-link traffic counters.
    pub stats: TrafficStats,
    /// Sends the transport could not deliver (receiver already gone). A
    /// clean run has zero; a non-zero count on a run that "succeeded" is a
    /// lost-message bug surfaced instead of swallowed.
    pub dropped_sends: u64,
}

/// A cluster run failed.
#[derive(Debug)]
pub enum ClusterError {
    /// A worker rank's protocol failed: a receive it could not go on from
    /// (its link to a peer died, or it was sent a frame it must refuse).
    WorkerFailed {
        /// The failing rank.
        rank: usize,
        /// The rank's [`CommFailure`], as text.
        message: String,
    },
    /// A worker rank panicked — a bug, not a failure of the run's peers or
    /// inputs; the message is the panic payload when it was a string.
    WorkerPanicked {
        /// The panicking rank.
        rank: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// The master's protocol failed receiving from a peer (link died or a
    /// frame would not parse) — the multi-process analogue of a worker
    /// vanishing.
    Comm {
        /// The peer rank at fault.
        rank: usize,
        /// Rank-tagged diagnosis.
        message: String,
    },
    /// Cluster setup failed (bind, spawn, or rendezvous handshake).
    Net {
        /// What went wrong.
        message: String,
    },
    /// A worker OS process died or exited abnormally.
    WorkerProcess {
        /// The worker rank.
        rank: usize,
        /// Exit status / stderr diagnosis.
        message: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::WorkerFailed { rank, message } => {
                write!(f, "worker rank {rank} failed: {message}")
            }
            ClusterError::WorkerPanicked { rank, message } => {
                write!(f, "worker rank {rank} panicked: {message}")
            }
            ClusterError::Comm { rank, message } => {
                write!(f, "communication with rank {rank} failed: {message}")
            }
            ClusterError::Net { message } => write!(f, "cluster setup failed: {message}"),
            ClusterError::WorkerProcess { rank, message } => {
                write!(f, "worker process rank {rank} failed: {message}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Surfaces a non-zero dropped-send count at run end: as a structured
/// `dropped_sends_warning` event on the master's trace when a session is
/// active, and on stderr otherwise — either way the loss is never silent.
/// Shared by the in-process and TCP runtimes.
pub(crate) fn warn_dropped_sends(dropped: u64, master_vtime: f64) {
    if dropped == 0 {
        return;
    }
    let tracer = p2mdie_obs::Tracer::for_rank(0);
    if tracer.on() {
        p2mdie_obs::event!(
            tracer,
            "dropped_sends_warning",
            master_vtime,
            dropped = dropped
        );
    } else {
        eprintln!(
            "warning: cluster run finished with {dropped} dropped send(s) — \
             messages the transport could not deliver (receiver gone?)"
        );
    }
}

/// The text of a panic payload caught where a thread or a process ends.
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = e.downcast_ref::<String>() {
        return s.clone();
    }
    "<non-string panic payload>".to_owned()
}

/// Runs a master–worker cluster of `workers` worker ranks (total ranks =
/// `workers + 1`; rank 0 is the master, which runs on the calling thread).
/// See the [module docs](self) for how a failing rank is reported.
pub fn run_cluster<R: Send>(
    workers: usize,
    model: CostModel,
    master: impl FnOnce(&mut Endpoint) -> Result<R, CommFailure> + Send,
    worker: impl Fn(&mut Endpoint) -> Result<(), CommFailure> + Send + Sync,
) -> Result<ClusterOutcome<R>, ClusterError> {
    let worker = |ep: &mut Endpoint, ()| worker(ep);
    run_cluster_with(workers, model, false, |_, t| t, master, |_| (), worker)
}

/// [`run_cluster`] with three extra knobs:
///
/// * `wrap` turns each rank's raw [`MeshTransport`] into the transport the
///   endpoints actually run on (identity for normal runs; a
///   [`crate::transport::ChaosTransport`] for fault-injection tests).
/// * `start` builds what worker rank `k` starts with, on the calling thread,
///   and hands it to the rank's thread with its endpoint: it is allocated
///   where the caller's own data lives, not in a fresh thread's heap.
/// * `recovery` switches the failure discipline from *abort* to *event*:
///   a failing worker no longer poisons the cluster — instead the runtime
///   injects a death notification into the master's channel (surfacing as
///   `Closed { peer }` there, exactly like a broken TCP link), and the
///   master's supervision loop decides what to do. When the master closure
///   completes despite losses, worker failures are *not* returned as run
///   errors.
///
/// In either mode a master that gives up — the loss budget exhausted, or a
/// frame from a worker it must refuse — is reported as
/// [`ClusterError::Comm`] naming that worker, as over TCP.
pub fn run_cluster_with<T: Transport + Send, R: Send, S: Send>(
    workers: usize,
    model: CostModel,
    recovery: bool,
    wrap: impl Fn(usize, MeshTransport) -> T,
    master: impl FnOnce(&mut Endpoint<T>) -> Result<R, CommFailure> + Send,
    start: impl Fn(usize) -> S,
    worker: impl Fn(&mut Endpoint<T>, S) -> Result<(), CommFailure> + Send + Sync,
) -> Result<ClusterOutcome<R>, ClusterError> {
    // invariant: the caller's configuration, not anything a peer sent.
    assert!(workers >= 1, "need at least one worker");
    let size = workers + 1;
    let stats = TrafficStats::new(size);

    let meshes = MeshTransport::mesh(size);
    let to_master: Vec<DownHandle> = meshes.iter().map(|t| t.down_handle(0)).collect();
    let mut endpoints: Vec<(Endpoint<T>, DownHandle)> = meshes
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let ep = Endpoint::from_parts(rank, size, wrap(rank, t), model, stats.clone());
            (ep, to_master[rank].clone())
        })
        .collect();

    // Worker thread body: run, and report (vtime, steps, failure) back
    // through the join handle. A rank that failed — and was not merely
    // woken by another's failure — either poisons the whole cluster (abort
    // mode) or notifies the master of its death (recovery mode).
    type WorkerRecord = (f64, u64, Option<ClusterError>);
    let run_worker = |mut ep: Endpoint<T>, down: DownHandle, state: S| -> WorkerRecord {
        let rank = ep.rank();
        let failure = match catch_unwind(AssertUnwindSafe(|| worker(&mut ep, state))) {
            Ok(Ok(())) => None,
            Ok(Err(f)) if f.poisoned_by().is_some() => None,
            Ok(Err(f)) => Some(ClusterError::WorkerFailed {
                rank,
                message: f.to_string(),
            }),
            Err(payload) => Some(ClusterError::WorkerPanicked {
                rank,
                message: panic_message(&*payload),
            }),
        };
        match (&failure, recovery) {
            (None, _) => {}
            (Some(_), true) => drop(down.notify(rank)),
            (Some(_), false) => ep.broadcast_poison(),
        }
        (ep.now(), ep.compute_steps(), failure)
    };

    let (mut master_ep, _) = endpoints.remove(0);
    let (master_result, mut records) = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|(ep, down)| {
                let state = start(ep.rank());
                scope.spawn(|| run_worker(ep, down, state))
            })
            .collect();
        let master_result = master_ep.poisoning_on_unwind(master);
        if master_result.is_err() {
            master_ep.broadcast_poison();
        }
        let records: Vec<WorkerRecord> = handles
            .into_iter()
            // invariant: the thread body catches its closure's unwind.
            .map(|h| h.join().expect("worker report"))
            .collect();
        (master_result, records)
    });

    // Abort mode: the first worker failure (rank order) is the run's error,
    // whatever the master returned once woken. Recovery mode: worker deaths
    // the master survived are part of the outcome, not errors.
    if !recovery {
        if let Some(failure) = records.iter_mut().find_map(|r| r.2.take()) {
            return Err(failure);
        }
    }
    // A receive the master gave up on names the peer at fault, whether it
    // lost the rank or was sent a frame it must refuse.
    let result = master_result.map_err(|f| ClusterError::Comm {
        rank: f.from,
        message: f.to_string(),
    })?;

    warn_dropped_sends(stats.total_dropped(), master_ep.now());
    Ok(ClusterOutcome {
        result,
        master_vtime: master_ep.now(),
        worker_vtimes: records.iter().map(|r| r.0).collect(),
        master_steps: master_ep.compute_steps(),
        worker_steps: records.iter().map(|r| r.1).collect(),
        dropped_sends: stats.total_dropped(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::from_bytes;
    use crate::comm::LinkFault;

    #[test]
    fn ping_pong_round_trip() {
        let model = CostModel {
            latency: 0.5,
            ..CostModel::free()
        };
        let out = run_cluster(
            2,
            model,
            |ep| {
                ep.send(1, &7u64);
                ep.send(2, &9u64);
                let a: u64 = ep.recv_msg(1).unwrap();
                let b: u64 = ep.recv_msg(2).unwrap();
                Ok((a, b))
            },
            |ep| {
                let x: u64 = ep.recv_msg(0).unwrap();
                ep.send(0, &(x * 10));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out.result, (70, 90));
        // Two hops of 0.5s latency each.
        assert!(out.master_vtime >= 1.0);
        assert_eq!(out.stats.total_messages(), 4);
        assert_eq!(out.stats.total_bytes(), 4 * 8);
        assert_eq!(out.dropped_sends, 0, "clean runs drop nothing");
    }

    #[test]
    fn recv_from_buffers_out_of_order_sources() {
        let out = run_cluster(
            2,
            CostModel::free(),
            |ep| {
                // Ask for rank 2's message first even though rank 1's may
                // arrive earlier.
                let b: u32 = ep.recv_msg(2).unwrap();
                let a: u32 = ep.recv_msg(1).unwrap();
                Ok((a, b))
            },
            |ep| {
                let rank = ep.rank() as u32;
                ep.send(0, &rank);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out.result, (1, 2));
    }

    #[test]
    fn virtual_time_uses_lamport_merge() {
        let model = CostModel {
            sec_per_step: 1.0,
            latency: 10.0,
            ..CostModel::free()
        };
        let out = run_cluster(
            1,
            model,
            |ep| {
                ep.send(1, &1u8);
                let _: u8 = ep.recv_msg(1).unwrap();
                Ok(ep.now())
            },
            |ep| {
                let _: u8 = ep.recv_msg(0).unwrap();
                ep.advance_steps(5);
                ep.send(0, &1u8);
                Ok(())
            },
        )
        .unwrap();
        // Master: send at 0, arrival at worker ≈10, +5 compute, +10 back.
        assert!((out.result - 25.0).abs() < 1e-9, "got {}", out.result);
        assert_eq!(out.worker_steps, vec![5]);
        assert_eq!(out.master_steps, 0);
    }

    #[test]
    fn broadcast_reaches_every_worker_and_is_counted_per_link() {
        let out = run_cluster(
            3,
            CostModel::free(),
            |ep| {
                ep.broadcast(&123u32);
                for w in 1..=3 {
                    let _: u32 = ep.recv_msg(w).unwrap();
                }
                Ok(())
            },
            |ep| {
                let v: u32 = ep.recv_msg(0).unwrap();
                assert_eq!(v, 123);
                ep.send(0, &v);
                Ok(())
            },
        )
        .unwrap();
        for w in 1..=3 {
            assert_eq!(out.stats.bytes_between(0, w), 4);
            assert_eq!(out.stats.bytes_between(w, 0), 4);
        }
    }

    #[test]
    fn worker_panic_is_surfaced_not_deadlocked() {
        let err = run_cluster(
            2,
            CostModel::free(),
            |ep| {
                // Master waits forever for a message that never comes; the
                // poison must wake it up.
                let _ = ep.recv_from(1);
                Ok(())
            },
            |ep| {
                if ep.rank() == 2 {
                    panic!("injected failure");
                }
                // Rank 1 also blocks; poison must wake it too.
                let _ = ep.recv_from(0);
                Ok(())
            },
        )
        .unwrap_err();
        match err {
            ClusterError::WorkerPanicked { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("injected failure"));
            }
            other => panic!("expected WorkerPanicked, got {other}"),
        }
    }

    /// Rank 2 of three fails while rank 1, rank 3 and the master each block
    /// in a receive: all three are woken, what they return names rank 2 as
    /// the origin, and the run's error is rank 2's own — `WorkerFailed` when
    /// it returned its failure, `WorkerPanicked` when it panicked — never a
    /// victim's, never the master's, never a hang.
    #[test]
    fn a_failing_worker_is_the_error_and_its_victims_are_not() {
        let blocked = |ep: &mut Endpoint, on: usize| {
            let woken = ep.recv_from(on).unwrap_err();
            assert_eq!(woken.fault, LinkFault::Poison { origin: 2 });
            Err(ep.failure(on, "a message that never comes", woken))
        };
        for panics in [false, true] {
            let err = run_cluster(
                3,
                CostModel::free(),
                |ep| blocked(ep, 1),
                |ep| match ep.rank() {
                    2 if panics => panic!("injected failure"),
                    2 => Err(ep.refusal(0, "a command", "injected refusal")),
                    // Rank 1 waits on the master, rank 3 on the failing rank.
                    me => blocked(ep, me - 1),
                },
            )
            .map(|out| out.result)
            .unwrap_err();
            match err {
                ClusterError::WorkerPanicked { rank: 2, message } if panics => {
                    assert!(message.contains("injected failure"), "{message}");
                }
                ClusterError::WorkerFailed { rank: 2, message } if !panics => {
                    assert!(message.contains("rank 2: failed receiving"), "{message}");
                    assert!(message.contains("injected refusal"), "{message}");
                }
                other => panic!("panics={panics}: expected rank 2's own failure, got {other}"),
            }
        }
    }

    /// A master that returns a failure wakes the workers blocked on it and
    /// is reported as `Comm` naming the peer it failed on; one that panics
    /// wakes them too, and its panic reaches the caller.
    #[test]
    fn a_failing_master_wakes_the_workers() {
        let wait = |ep: &mut Endpoint| {
            let woken = ep.recv_from(0).unwrap_err();
            Err(ep.failure(0, "a command", woken))
        };
        let err = run_cluster(
            2,
            CostModel::free(),
            |ep| Err::<(), _>(ep.refusal(2, "a reply", "injected refusal")),
            wait,
        )
        .unwrap_err();
        match err {
            ClusterError::Comm { rank: 2, message } => {
                assert!(message.contains("injected refusal"), "{message}")
            }
            other => panic!("expected the master's failure, got {other}"),
        }
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let master = |_: &mut Endpoint| -> Result<(), CommFailure> { panic!("master bug") };
            run_cluster(2, CostModel::free(), master, wait).map(|out| out.result)
        }));
        assert_eq!(panic_message(&*unwound.unwrap_err()), "master bug");
    }

    #[test]
    fn undecodable_message_is_an_error_value() {
        let out = run_cluster(
            1,
            CostModel::free(),
            |ep| {
                ep.send(1, &0xFFu8); // one byte, not a valid u64
                let ok: bool = ep.recv_msg(1).unwrap();
                Ok(ok)
            },
            |ep| {
                let raw = ep.recv_from(0).unwrap();
                let failed = from_bytes::<u64>(raw).is_err();
                ep.send(0, &failed);
                Ok(())
            },
        )
        .unwrap();
        assert!(out.result);
    }

    #[test]
    fn worker_clocks_are_reported() {
        let model = CostModel {
            sec_per_step: 2.0,
            ..CostModel::free()
        };
        let out = run_cluster(
            2,
            model,
            |ep| {
                for w in 1..=2 {
                    let _: u8 = ep.recv_msg(w).unwrap();
                }
                Ok(())
            },
            |ep| {
                ep.advance_steps(ep.rank() as u64);
                ep.send(0, &1u8);
                Ok(())
            },
        )
        .unwrap();
        assert!((out.worker_vtimes[0] - 2.0).abs() < 1e-9);
        assert!((out.worker_vtimes[1] - 4.0).abs() < 1e-9);
    }
}
