//! Multi-process deployment: run p²-mdie with workers as real OS
//! processes over a localhost TCP mesh.
//!
//! The in-process drivers hand each simulated rank its KB, configuration
//! and examples through shared memory. A worker *process* has no shared
//! memory, so everything travels over the wire, in one bootstrap shape
//! whatever the process is for: the compiled background KB ships as
//! [`Msg::KbSnapshot`] (symbol dictionary included), and the work arrives
//! as [`Msg::SubmitJob`] frames (role + modes + settings + the example
//! subset). [`run_remote_worker`] is therefore two steps:
//!
//! 1. restore the first snapshot into a **fresh** symbol table — the
//!    id-preserving path, so every symbol id in later messages (clauses,
//!    examples, modes) means the same thing on both sides — and adopt the
//!    KB *as shipped* (no re-pruning, no re-indexing, and — the store being
//!    column-native — no row materialization: the restored KB holds the
//!    snapshot's `TermId` columns and unifies straight against them, so a
//!    worker process's fact memory is the columnar footprint and nothing
//!    more);
//! 2. park in the resident idle loop (`crate::scheduler`), which runs each
//!    submitted job on that KB with the loop an in-process rank runs
//!    (`run_resident_worker`, then `crate::worker::run_role` per job), until
//!    `Stop`.
//!
//! `crate::driver::open_mesh` spawns the `p2mdie-worker` binary once per
//! rank ([`TcpConfig`] says how) for whatever runs on the mesh: a one-shot
//! run's single job or a resident service's many
//! ([`crate::scheduler::Service::new_tcp`]). [`WorkerExit`] reports how the
//! session ended, so the binary can exit with a distinct code when its
//! master vanished while it sat idle *between* jobs (not a mid-job failure).
//!
//! Because virtual arrival times travel inside the TCP frames, and an
//! in-process rank runs the same resident loop on the same frames, a
//! multi-process run is its in-process twin with KB shipping on and the
//! same seed: the same theory, coverage counts and per-rank steps, and the
//! same bytes, messages and clocks (pinned by
//! `crates/core/tests/tcp_cluster.rs`).
//!
//! `ParallelConfig::with_transport` selects this transport for both
//! one-shot entry points, `run_parallel` and `run_coverage_parallel`.

use crate::protocol::Msg;
use crate::scheduler::run_resident_worker;
use crate::worker::{restore_kb, KB_SNAPSHOT};
use p2mdie_cluster::comm::{CommFailure, Endpoint};
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::ClusterError;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::symbol::SymbolTable;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// How to launch the worker processes of a TCP run.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Path to the `p2mdie-worker` binary. `None` = resolve via
    /// [`default_worker_bin`] (the `P2MDIE_WORKER_BIN` env var, then next
    /// to the current executable).
    pub worker_bin: Option<PathBuf>,
    /// Bound on the rendezvous handshake, the shutdown-report collection,
    /// and process reaping (not on the run itself, which is driven by the
    /// protocol and fails fast on dead links).
    pub timeout: Duration,
    /// Extra environment variables for the worker processes (failure
    /// injection in tests; empty in normal use).
    pub worker_env: Vec<(String, String)>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            worker_bin: None,
            timeout: Duration::from_secs(60),
            worker_env: Vec::new(),
        }
    }
}

impl TcpConfig {
    /// A config launching a specific worker binary.
    pub fn with_worker_bin(bin: impl Into<PathBuf>) -> Self {
        TcpConfig {
            worker_bin: Some(bin.into()),
            ..TcpConfig::default()
        }
    }

    pub(crate) fn resolve_worker_bin(&self) -> Result<PathBuf, ClusterError> {
        if let Some(bin) = &self.worker_bin {
            return Ok(bin.clone());
        }
        default_worker_bin().ok_or_else(|| ClusterError::Net {
            message: "cannot locate the p2mdie-worker binary: set TcpConfig::worker_bin, \
                      the P2MDIE_WORKER_BIN env var, or build it next to this executable \
                      (cargo build -p p2mdie-core --bin p2mdie-worker)"
                .to_owned(),
        })
    }
}

/// Best-effort resolution of the `p2mdie-worker` binary: the
/// `P2MDIE_WORKER_BIN` env var, then the current executable's directory
/// and its parent (which covers `target/<profile>/examples/…` and
/// `target/<profile>/deps/…` layouts).
pub fn default_worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("P2MDIE_WORKER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("p2mdie-worker{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    for _ in 0..2 {
        let d = dir?;
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = d.parent();
    }
    None
}

pub(crate) fn spawn_worker(
    bin: &Path,
    rank: usize,
    addr: SocketAddr,
    tcp: &TcpConfig,
) -> io::Result<Child> {
    let mut cmd = Command::new(bin);
    cmd.arg("--connect")
        .arg(addr.to_string())
        .arg("--rank")
        .arg(rank.to_string())
        .arg("--timeout-secs")
        .arg(tcp.timeout.as_secs().max(1).to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    // The child inherits this process's environment, so a `P2MDIE_TRACE`
    // set on the driver reaches every worker process and each rank
    // streams its own `<base>.rank<N>.jsonl` (merged by the master at the
    // end of the run). `worker_env` entries layer on top.
    for (k, v) in &tcp.worker_env {
        cmd.env(k, v);
    }
    cmd.spawn()
}

/// How a worker-process session ended — the return value of
/// [`run_remote_worker`], mapped to an exit code by the `p2mdie-worker`
/// binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerExit {
    /// The master said `Stop` at idle: a clean end of the mesh. The worker
    /// sends its shutdown report and exits 0.
    Finished,
    /// The master's link closed while the worker sat **idle between jobs**.
    /// Not a mid-job failure — the binary exits with the distinct
    /// `IDLE_DISCONNECT_EXIT` code so supervisors (and `ChildSet::diagnose`)
    /// can tell a torn-down service from a crash. (An in-process rank's
    /// master link never closes before `Stop`, so there it is a failure.)
    IdleDisconnect,
}

/// The first step of a worker process: receive the KB the master ships
/// before anything else and restore it.
///
/// The first frame must be the [`Msg::KbSnapshot`]; a job submitted to a
/// process that has no KB yet is a protocol violation and fails the rank
/// rather than run on an empty background theory. The snapshot restores
/// into a **fresh** symbol table before anything else is interned, which
/// reproduces the master's symbol ids exactly (the snapshot carries the
/// complete dictionary in id order) — every id-typed payload of the
/// protocol stays valid. The restored KB is adopted as shipped, mirroring
/// the in-process `ship_kb` adoption path bit for bit (the snapshot already
/// carries the master's mode-pruned posting lists, so `IlpEngine::new`'s
/// re-pruning is deliberately *not* run).
///
/// `Err` is a bootstrap that delivered no usable snapshot — the link died
/// first, the first frame was something else, or it would not decode or
/// validate — which the worker binary tells from a mid-run failure by its
/// exit code.
pub fn adopt_kb<T: Transport>(ep: &mut Endpoint<T>) -> Result<KnowledgeBase, CommFailure> {
    // invariant: the caller's choice of rank, not anything a peer sent.
    assert!(ep.rank() >= 1, "a worker process is never the master rank");
    let snap = Msg::expect(ep, 0, KB_SNAPSHOT, |msg| match msg {
        Msg::KbSnapshot(snap) => Ok(snap),
        _ => Err("first frame: not a KB snapshot"),
    })?;
    restore_kb(ep, *snap, SymbolTable::new())
}

/// The worker-process entry: [`adopt_kb`], then serve jobs on that KB as a
/// resident worker until the mesh stops — a one-shot run submits one job,
/// a service many. `Err` is the failure of either
/// step.
pub fn run_remote_worker<T: Transport>(ep: &mut Endpoint<T>) -> Result<WorkerExit, CommFailure> {
    let base = adopt_kb(ep)?;
    run_resident_worker(ep, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::worker_config;
    use crate::fixtures::problem;
    use crate::protocol::WorkerRole;
    use p2mdie_cluster::{run_cluster, CostModel};

    /// Whatever reaches a worker process ahead of a valid KB snapshot — a
    /// job, a `Stop`, a snapshot that decodes but does not validate — fails
    /// that rank with an error naming it and the snapshot, instead of
    /// running on an empty background theory or panicking with a bare
    /// string.
    #[test]
    fn submit_before_the_kb_snapshot_fails_the_rank() {
        let (engine, ex) = problem(30);
        let config = worker_config(
            &engine,
            &engine.settings,
            1,
            WorkerRole::Coverage,
            Default::default(),
            0,
        );
        let mut invalid = engine.kb.to_snapshot();
        invalid.preds.push(invalid.preds[0].clone());
        let first_frames = [
            (
                Msg::SubmitJob {
                    id: 1,
                    config: Box::new(config),
                    examples: Some(ex.clone()),
                },
                "not a KB snapshot",
            ),
            (Msg::Stop, "not a KB snapshot"),
            (
                Msg::KbSnapshot(Box::new(invalid)),
                "duplicate predicate key",
            ),
        ];
        for (first, reason) in first_frames {
            let err = run_cluster(
                1,
                CostModel::free(),
                |ep| {
                    ep.send(1, &first);
                    let _ = ep.recv_from(1);
                    Ok(())
                },
                |ep| run_remote_worker(ep).map(drop),
            )
            .unwrap_err();
            match &err {
                ClusterError::WorkerFailed { rank, message } => {
                    assert_eq!(*rank, 1, "{err}");
                    assert!(message.contains("rank 1"), "{err}");
                    assert!(message.contains("the KB snapshot from rank 0"), "{err}");
                    assert!(message.contains(reason), "{err}");
                }
                other => panic!("expected rank 1 to fail, got {other}"),
            }
        }
    }
}
