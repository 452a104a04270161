//! The cluster harness: spawn `p` worker threads plus the master, wire up
//! the channel mesh, run both closures, and collect timing + traffic.
//!
//! This is the *in-process* runtime — ranks are threads, links are
//! channels, and it is the default because it is the fastest way to run a
//! whole simulated cluster. The multi-process runtime over real sockets
//! lives in [`crate::net`] (`run_cluster_tcp`); both produce the same
//! [`ClusterOutcome`].

use crate::comm::{CommFailure, Endpoint, Poisoned};
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
    /// A worker rank panicked; the message is the panic payload when it was
    /// a string.
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

pub(crate) fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = e.downcast_ref::<Poisoned>() {
        return format!("poisoned by rank {}", p.origin);
    }
    if let Some(cf) = e.downcast_ref::<CommFailure>() {
        return cf.to_string();
    }
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
///
/// Worker panics are caught, propagated as poison so no rank deadlocks, and
/// surfaced as [`ClusterError::WorkerPanicked`]. A master panic unrelated to
/// a worker failure resumes unwinding.
pub fn run_cluster<R: Send>(
    workers: usize,
    model: CostModel,
    master: impl FnOnce(&mut Endpoint) -> R + Send,
    worker: impl Fn(&mut Endpoint) + Send + Sync,
) -> Result<ClusterOutcome<R>, ClusterError> {
    run_cluster_with(workers, model, false, |_, t| t, master, worker)
}

/// [`run_cluster`] with two extra knobs for the self-healing runtime:
///
/// * `wrap` turns each rank's raw [`MeshTransport`] into the transport the
///   endpoints actually run on (identity for normal runs; a
///   [`crate::transport::ChaosTransport`] for fault-injection tests).
/// * `recovery` switches the failure discipline from *abort* to *event*:
///   a worker panic no longer poisons the cluster — instead the runtime
///   injects a death notification into the master's channel (surfacing as
///   `Closed { peer }` there, exactly like a broken TCP link), and the
///   master's supervision loop decides what to do. When the master closure
///   completes despite losses, worker panics are *not* surfaced as run
///   errors.
///
/// In either mode a master that gives up with a [`CommFailure`] panic — the
/// loss budget exhausted, or a frame from a worker it must refuse — maps to
/// [`ClusterError::Comm`] naming that worker, as over TCP.
pub fn run_cluster_with<T: Transport + Send, R: Send>(
    workers: usize,
    model: CostModel,
    recovery: bool,
    wrap: impl Fn(usize, MeshTransport) -> T,
    master: impl FnOnce(&mut Endpoint<T>) -> R + Send,
    worker: impl Fn(&mut Endpoint<T>) + Send + Sync,
) -> Result<ClusterOutcome<R>, ClusterError> {
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

    // Worker thread body: run, catch panics, report (vtime, steps, panic
    // message) back through the join handle. On failure, either poison the
    // whole cluster (abort mode) or notify the master of this rank's death
    // (recovery mode).
    type WorkerRecord = (f64, u64, Option<String>);
    let run_worker = |mut ep: Endpoint<T>, down: DownHandle| -> WorkerRecord {
        let r = catch_unwind(AssertUnwindSafe(|| worker(&mut ep)));
        let failure = r.err().and_then(|e| {
            // A `Poisoned` panic is a secondary victim of another rank's
            // failure, not a root cause: don't report it, don't re-poison.
            if e.downcast_ref::<Poisoned>().is_some() {
                return None;
            }
            let msg = panic_message(&*e);
            if recovery {
                down.notify(ep.rank());
            } else {
                ep.broadcast_poison();
            }
            Some(msg)
        });
        (ep.now(), ep.compute_steps(), failure)
    };

    let (mut master_ep, _) = endpoints.remove(0);
    let (master_result, records) = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|(ep, down)| scope.spawn(|| run_worker(ep, down)))
            .collect();
        let master_result = catch_unwind(AssertUnwindSafe(|| master(&mut master_ep)));
        if master_result.is_err() {
            master_ep.broadcast_poison();
        }
        let records: Vec<WorkerRecord> = handles
            .into_iter()
            .map(|h| h.join().expect("worker report"))
            .collect();
        (master_result, records)
    });

    // Abort mode: surface the first worker failure (rank order) as the run
    // error. Recovery mode: worker deaths the master survived are part of
    // the outcome, not errors.
    if !recovery {
        for (i, (_, _, failure)) in records.iter().enumerate() {
            if let Some(msg) = failure {
                return Err(ClusterError::WorkerPanicked {
                    rank: i + 1,
                    message: msg.clone(),
                });
            }
        }
    }
    let result = match master_result {
        Ok(r) => r,
        Err(e) => {
            // A receive the master gave up on names the peer at fault,
            // whether it lost the rank or was sent a frame it must refuse.
            if let Some(cf) = e.downcast_ref::<CommFailure>() {
                return Err(ClusterError::Comm {
                    rank: cf.from,
                    message: cf.to_string(),
                });
            }
            // No worker failed, so this is the master's own bug: keep
            // unwinding.
            std::panic::resume_unwind(e)
        }
    };

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
                (a, b)
            },
            |ep| {
                let x: u64 = ep.recv_msg(0).unwrap();
                ep.send(0, &(x * 10));
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
                (a, b)
            },
            |ep| {
                let rank = ep.rank() as u32;
                ep.send(0, &rank);
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
                ep.now()
            },
            |ep| {
                let _: u8 = ep.recv_msg(0).unwrap();
                ep.advance_steps(5);
                ep.send(0, &1u8);
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
            },
            |ep| {
                let v: u32 = ep.recv_msg(0).unwrap();
                assert_eq!(v, 123);
                ep.send(0, &v);
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
            },
            |ep| {
                if ep.rank() == 2 {
                    panic!("injected failure");
                }
                // Rank 1 also blocks; poison must wake it too.
                let _ = ep.recv_from(0);
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

    #[test]
    fn undecodable_message_is_an_error_value() {
        let out = run_cluster(
            1,
            CostModel::free(),
            |ep| {
                ep.send(1, &0xFFu8); // one byte, not a valid u64
                let ok: bool = ep.recv_msg(1).unwrap();
                ok
            },
            |ep| {
                let raw = ep.recv_from(0).unwrap();
                let failed = from_bytes::<u64>(raw).is_err();
                ep.send(0, &failed);
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
            },
            |ep| {
                ep.advance_steps(ep.rank() as u64);
                ep.send(0, &1u8);
            },
        )
        .unwrap();
        assert!((out.worker_vtimes[0] - 2.0).abs() < 1e-9);
        assert!((out.worker_vtimes[1] - 4.0).abs() < 1e-9);
    }
}
