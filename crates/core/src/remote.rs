//! Multi-process deployment: run p²-mdie with workers as real OS
//! processes over a localhost TCP mesh.
//!
//! The in-process drivers hand each simulated rank its `WorkerContext`
//! through shared memory. A worker *process* has no shared memory, so
//! everything must travel over the wire — and since PR 3 it can: the
//! compiled background KB ships as [`Msg::KbSnapshot`] (symbol dictionary
//! included), and this module adds the two missing bootstrap messages,
//! [`Msg::Configure`] (role + modes + settings) and [`Msg::LoadPartition`]
//! (the example subset). A bootstrapped process reconstructs a
//! bit-identical engine:
//!
//! 1. restore the snapshot into a **fresh** symbol table — the
//!    id-preserving path, so every symbol id in later messages (clauses,
//!    examples, modes) means the same thing on both sides;
//! 2. adopt the KB *as shipped* (no re-pruning, no re-indexing, and — the
//!    store being column-native — no row materialization: the restored KB
//!    holds the snapshot's `TermId` columns and unifies straight against
//!    them, so a worker process's fact memory is the columnar footprint
//!    and nothing more);
//! 3. run the same worker loop an in-process rank of that role runs
//!    (`crate::worker::run_role`).
//!
//! Because virtual arrival times travel inside the TCP frames, a
//! multi-process run Lamport-merges the same clock values and makes the
//! same decisions as the in-process run: the induced theory, coverage
//! counts, and per-rank step counts are bit-identical to
//! `run_parallel` with KB shipping enabled and the same seed (pinned by
//! `crates/core/tests/tcp_cluster.rs`).
//!
//! # Resident mode
//!
//! A worker process that receives [`Msg::SubmitJob`] instead of the
//! `Configure`/`LoadPartition` pair joins a resident service mesh
//! ([`crate::scheduler::Service::new_tcp`]): it runs the submitted job on
//! a clone of the adopted KB, then parks in the idle loop awaiting further
//! jobs. [`run_remote_worker`] reports how the session ended via
//! [`WorkerExit`] so the `p2mdie-worker` binary can exit with a distinct
//! code when its master vanished while it sat idle *between* jobs (not a
//! mid-job failure).
//!
//! Entry points: `launch_tcp` spawns the `p2mdie-worker` binary once per
//! rank, bootstraps the processes and drives a master function on the
//! calling thread — `ParallelConfig::with_transport` routes `run_parallel`
//! through it, and [`run_parallel_tcp`] / [`run_coverage_parallel_tcp`]
//! are shorthands for that.

use crate::baselines::{coverage_parallel, BaselineReport, EvalGranularity};
use crate::driver::{run_parallel, worker_config, ParallelConfig, TransportKind};
use crate::master::ship_kb;
use crate::protocol::{Msg, WorkerConfig, WorkerRole};
use crate::report::ParallelReport;
use crate::scheduler::{report_worker_metrics, run_resident_worker, run_submitted_job};
use crate::worker::run_role;
use p2mdie_cluster::comm::Endpoint;
use p2mdie_cluster::net::{run_cluster_tcp, TcpTransport};
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::{ClusterError, ClusterOutcome, CostModel};
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::Width;
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

/// Runs `master` against `cfg.workers` worker *processes* in `role`, rank
/// `k` holding `subsets[k - 1]`: spawn them, ship the compiled KB, then
/// each worker's configuration and example subset (the processes block in
/// [`run_remote_worker`]'s bootstrap loop until all three arrived), run the
/// master on the calling thread, reap the processes. The KB is always
/// shipped — worker processes have no shared memory to inherit it from.
pub(crate) fn launch_tcp<R>(
    engine: &IlpEngine,
    cfg: &ParallelConfig,
    tcp: &TcpConfig,
    role: WorkerRole,
    subsets: &[Examples],
    master: impl FnOnce(&mut Endpoint<TcpTransport>) -> R,
) -> Result<ClusterOutcome<R>, ClusterError> {
    let bin = tcp.resolve_worker_bin()?;
    let config = worker_config(
        engine,
        &engine.settings,
        cfg.workers,
        role,
        cfg.strategy,
        cfg.seed,
    );
    run_cluster_tcp(
        cfg.workers,
        cfg.model,
        tcp.timeout,
        |rank, addr| spawn_worker(&bin, rank, addr, tcp),
        |ep| {
            ship_kb(ep, &engine.kb);
            for (i, subset) in subsets.iter().enumerate() {
                ep.send(i + 1, &Msg::Configure(Box::new(config.clone())));
                ep.send(
                    i + 1,
                    &Msg::LoadPartition {
                        pos: subset.pos.clone(),
                        neg: subset.neg.clone(),
                    },
                );
            }
            master(ep)
        },
    )
}

/// How a worker-process session ended — the return value of
/// [`run_remote_worker`], mapped to an exit code by the `p2mdie-worker`
/// binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerExit {
    /// The master said `Stop`: a clean end of the run (one-shot) or of the
    /// mesh (resident). The worker sends its shutdown report and exits 0.
    Finished,
    /// The master's link closed while the worker sat **idle between jobs**
    /// of a resident mesh. Not a mid-job failure — the binary exits with
    /// the distinct `IDLE_DISCONNECT_EXIT` code so supervisors (and
    /// `ChildSet::diagnose`) can tell a torn-down service from a crash.
    IdleDisconnect,
}

/// The worker-process entry: gather the bootstrap messages, rebuild the
/// engine, run the protocol until the mesh stops.
///
/// Two bootstrap shapes arrive on the wire:
///
/// - **One-shot**: `KbSnapshot` + [`Msg::Configure`] +
///   [`Msg::LoadPartition`] in any order, then the role's protocol loop
///   runs once to `Stop`.
/// - **Resident**: `KbSnapshot` + [`Msg::SubmitJob`] — the job runs on a
///   clone of the adopted KB, then the worker parks in the resident idle
///   loop for further jobs until `Stop` (or an idle disconnect).
///
/// The KB snapshot restores into a **fresh** symbol table before anything
/// else is interned, which reproduces the master's symbol ids exactly (the
/// snapshot carries the complete dictionary in id order) — every id-typed
/// payload of the protocol stays valid. The restored KB is adopted as
/// shipped, mirroring the in-process `ship_kb` adoption path bit for bit
/// (the snapshot already carries the master's mode-pruned posting lists,
/// so `IlpEngine::new`'s re-pruning is deliberately *not* run).
pub fn run_remote_worker<T: Transport>(ep: &mut Endpoint<T>) -> WorkerExit {
    let me = ep.rank();
    assert!(me >= 1, "run_remote_worker must not run on the master rank");
    let mut snap = None;
    let mut config: Option<WorkerConfig> = None;
    let mut local = None;
    while snap.is_none() || config.is_none() || local.is_none() {
        match Msg::recv(ep, 0, "a bootstrap message") {
            Msg::KbSnapshot(s) => snap = Some(*s),
            Msg::Configure(j) => config = Some(*j),
            Msg::LoadPartition { pos, neg } => local = Some(Examples::new(pos, neg)),
            Msg::SubmitJob {
                id,
                config,
                pos,
                neg,
            } => {
                // Resident bootstrap: the snapshot must already be adopted
                // (the service ships it before the first job).
                let snap = snap.unwrap_or_else(|| {
                    panic!("worker {me}: SubmitJob before the KB snapshot arrived")
                });
                let mut base = KnowledgeBase::from_snapshot(snap, SymbolTable::new())
                    .unwrap_or_else(|e| panic!("rank {me}: rejected KB snapshot: {e}"));
                run_submitted_job(ep, &base, id, *config, pos, neg);
                return run_resident_worker(ep, &mut base);
            }
            Msg::CancelJob { .. } => {} // advisory; nothing queued here yet
            // A resident service may ask before it has submitted anything.
            Msg::MetricsQuery => report_worker_metrics(ep),
            Msg::Stop => return WorkerExit::Finished,
            other => panic!("worker {me}: unexpected bootstrap message {other:?}"),
        }
    }
    let (snap, config, local) = (
        snap.expect("gathered"),
        config.expect("gathered"),
        local.expect("gathered"),
    );

    let kb = KnowledgeBase::from_snapshot(snap, SymbolTable::new())
        .unwrap_or_else(|e| panic!("rank {me}: rejected KB snapshot: {e}"));
    run_role(ep, kb, config, local);
    WorkerExit::Finished
}

/// [`crate::driver::run_parallel`] with every worker a real OS process
/// over localhost TCP: shorthand for `cfg` with
/// [`TransportKind::Tcp`]`(tcp)`.
///
/// The background KB is always shipped (worker processes have no shared
/// memory to inherit it from), so the run to compare against is the
/// in-process one with `ParallelConfig::with_kb_shipping`: same theory,
/// same coverage counts, same per-rank step counts. `cfg.model` still
/// governs all virtual-time metering — wall-clock plays no role in the
/// reported numbers.
pub fn run_parallel_tcp(
    engine: &IlpEngine,
    examples: &Examples,
    cfg: &ParallelConfig,
    tcp: &TcpConfig,
) -> Result<ParallelReport, ClusterError> {
    let cfg = cfg.clone().with_transport(TransportKind::Tcp(tcp.clone()));
    run_parallel(engine, examples, &cfg)
}

/// [`crate::baselines::run_coverage_parallel`] with worker processes over
/// localhost TCP (KB always shipped, as in [`run_parallel_tcp`]).
pub fn run_coverage_parallel_tcp(
    engine: &IlpEngine,
    examples: &Examples,
    workers: usize,
    granularity: EvalGranularity,
    model: CostModel,
    seed: u64,
    tcp: &TcpConfig,
) -> Result<BaselineReport, ClusterError> {
    let mut cfg = ParallelConfig::new(workers, Width::Unlimited, seed)
        .with_transport(TransportKind::Tcp(tcp.clone()));
    cfg.model = model;
    coverage_parallel(engine, examples, &cfg, granularity)
}
