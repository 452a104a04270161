//! One-call drivers: run p²-mdie or the sequential baseline on a problem
//! and get back a full report. Used by the evaluation sweeps, the
//! benchmarks, and the examples.
//!
//! A one-shot run is one job on a mesh of its own: [`run_parallel`] builds
//! a learning [`JobSpec`], the coverage-parallel baseline a baseline one,
//! and `run_one_job` checks the configuration, runs the job with
//! `dispatch_job` on a fresh mesh and reports it. That mesh
//! comes from `open_mesh`, the one function that builds a mesh — for
//! these runs and for the resident [`Service`](crate::scheduler::Service)
//! alike, with threads of this process or `p2mdie-worker` processes for
//! ranks, each a resident worker that a `Stop` at idle ends.

use crate::job::{JobId, JobKind, JobOutput, JobSpec};
use crate::master::ship_kb;
use crate::protocol::{Msg, WorkerConfig, WorkerRole};
use crate::remote::{spawn_worker, WorkerExit};
use crate::report::{ParallelReport, SequentialReport};
use crate::scheduler::{dispatch_job, live_workers, run_resident_worker, send_control};
use crate::strategy::Strategy;
use p2mdie_cluster::comm::{CommFailure, Endpoint, LinkFault, RecvError};
use p2mdie_cluster::net::run_cluster_tcp;
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::{
    maybe_chaos, run_cluster_with, ChaosConfig, ClusterError, ClusterOutcome, CostModel,
};
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::{Settings, Width};
use p2mdie_obs::event;
use std::time::Instant;

/// Which substrate carries the cluster's messages.
#[derive(Clone, Debug, Default)]
pub enum TransportKind {
    /// Simulated ranks: threads in this process joined by channels. The
    /// default — fastest, zero setup, and the configuration all the
    /// paper-shaped numbers are taken on.
    #[default]
    InProcess,
    /// Real OS worker processes joined by a localhost TCP mesh (the
    /// `p2mdie-worker` binary, spawned once per rank). Same deterministic
    /// virtual time, same induced theory; see [`crate::remote`].
    Tcp(crate::remote::TcpConfig),
}

/// What the run does when a worker rank dies mid-run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Fail the run with a rank-tagged error (the default — every
    /// paper-shaped number is taken under it).
    #[default]
    Abort,
    /// Self-heal: abort the epoch, repartition the dead rank's examples
    /// over the survivors, resync the live set by replaying the accepted
    /// theory, and resume over the shrunk ring (see [`crate::master`]).
    Repartition {
        /// How many rank deaths to absorb before failing the run anyway.
        max_rank_losses: u32,
    },
}

/// Configuration of one parallel run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of workers `p`.
    pub workers: usize,
    /// Pipeline width `W` (`Width::Unlimited` = the paper's "nolimit").
    pub width: Width,
    /// Virtual-time cost model.
    pub model: CostModel,
    /// Seed for the random example partitioning.
    pub seed: u64,
    /// Re-deal the live examples to the workers before every epoch
    /// (paper §4.1's rejected alternative — expensive in communication;
    /// implemented so that cost can be measured).
    pub repartition: bool,
    /// Ship the compiled background KB to every worker as a serialized
    /// snapshot (`Msg::KbSnapshot`) instead of assuming shared data:
    /// workers start with an *empty* KB and adopt the master's in one
    /// transfer — the multi-process deployment shape. Off by default, so
    /// the paper's Table 4 communication volumes (which assume a
    /// distributed file system) stay reproducible.
    pub ship_kb: bool,
    /// The message substrate: in-process threads (default) or real worker
    /// processes over TCP. A TCP run always ships the KB (worker processes
    /// have no shared memory to inherit it from).
    pub transport: TransportKind,
    /// What to do when a worker rank dies mid-run.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault injection for in-process runs: wrap each listed
    /// worker rank's transport in a
    /// [`ChaosTransport`](p2mdie_cluster::ChaosTransport) with its own
    /// configuration (test-only seam; empty in production use). Multiple
    /// entries inject faults into multiple ranks of the same run — the
    /// seam the second-death recovery tests use. Needs
    /// [`RecoveryPolicy::Repartition`]: only a recovering mesh notices a
    /// rank whose fabric went silent.
    pub chaos: Vec<(usize, ChaosConfig)>,
    /// How the ranks divide the run: the paper's data-parallel pipeline
    /// (default) or hypothesis-parallel lattice slicing (see
    /// [`crate::strategy`]). `repartition`, `recovery`, and `chaos` only
    /// apply to the default; [`run_parallel`] rejects them with the other.
    /// [`run_coverage_parallel`](crate::baselines::run_coverage_parallel)
    /// rejects all three, and any strategy but the default.
    pub strategy: Strategy,
}

impl ParallelConfig {
    /// A config with the Beowulf-2005 cost model.
    pub fn new(workers: usize, width: Width, seed: u64) -> Self {
        ParallelConfig {
            workers,
            width,
            model: CostModel::beowulf_2005(),
            seed,
            repartition: false,
            ship_kb: false,
            transport: TransportKind::InProcess,
            recovery: RecoveryPolicy::default(),
            chaos: Vec::new(),
            strategy: Strategy::default(),
        }
    }

    /// Selects the parallelization strategy (default
    /// [`Strategy::DataPipeline`], the paper's algorithm).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables per-epoch repartitioning (§4.1 variant).
    pub fn with_repartition(mut self) -> Self {
        self.repartition = true;
        self
    }

    /// Enables snapshot-based KB shipping (workers start empty and receive
    /// the compiled KB as one `Msg::KbSnapshot` transfer).
    pub fn with_kb_shipping(mut self) -> Self {
        self.ship_kb = true;
        self
    }

    /// Selects the message substrate ([`TransportKind::Tcp`] spawns real
    /// worker processes over a localhost TCP mesh).
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Selects the worker-death recovery policy (default
    /// [`RecoveryPolicy::Abort`]).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Injects deterministic transport faults into a worker rank of an
    /// in-process run (test seam for exercising the recovery protocol).
    /// May be called repeatedly to fault several ranks in one run.
    pub fn with_chaos(mut self, rank: usize, chaos: ChaosConfig) -> Self {
        self.chaos.push((rank, chaos));
        self
    }
}

/// Names the first unsupported combination of `cfg` with a job of `kind`,
/// if any — here, before a mesh exists, because none of them can fail
/// cleanly later: a rank silenced under `Abort` hangs the run, worker
/// processes cannot be wrapped, the workers of a replicating strategy do
/// not speak the repartitioning or recovery messages, and the baseline has
/// no epochs to re-deal or recover.
fn check_combination(cfg: &ParallelConfig, kind: &JobKind) -> Result<(), ClusterError> {
    let replicating = cfg.strategy != Strategy::DataPipeline;
    let aborting = cfg.recovery == RecoveryPolicy::Abort;
    let chaos = !cfg.chaos.is_empty();
    let stray = |(rank, _): &(usize, ChaosConfig)| !(1..=cfg.workers).contains(rank);
    let baseline = matches!(kind, JobKind::BaselineLearn { .. });
    let rejected = [
        (
            baseline && (cfg.repartition || replicating || !aborting || chaos),
            "the coverage-parallel baseline with repartition, a strategy, \
             RecoveryPolicy::Repartition or chaos (it has no epochs to re-deal or recover)",
        ),
        (
            replicating && cfg.repartition,
            "repartition with a strategy that replicates the examples on every rank",
        ),
        (
            replicating && !aborting,
            "RecoveryPolicy::Repartition with a strategy that replicates the examples on every \
             rank (worker-death recovery covers partitioned examples only)",
        ),
        (
            replicating && chaos,
            "chaos with a strategy other than the data pipeline (fault injection needs \
             RecoveryPolicy::Repartition, which covers the data pipeline only)",
        ),
        (
            chaos && matches!(cfg.transport, TransportKind::Tcp(_)),
            "chaos with TransportKind::Tcp (fault injection wraps in-process transports; \
             worker processes take P2MDIE_TEST_FAIL)",
        ),
        (
            chaos && aborting,
            "chaos with RecoveryPolicy::Abort (only a recovering mesh notices a rank whose \
             fabric went silent)",
        ),
        (
            cfg.chaos.iter().any(stray),
            "chaos on a rank that is not a worker rank",
        ),
    ];
    match rejected.iter().find(|(hit, _)| *hit) {
        Some((_, what)) => Err(ClusterError::Net {
            message: format!(
                "unsupported ParallelConfig ({} workers, strategy {}): {what}",
                cfg.workers, cfg.strategy
            ),
        }),
        None => Ok(()),
    }
}

/// The configuration every rank of a run is bootstrapped with: the
/// engine's bias, `settings`, and what the run's description adds.
pub(crate) fn worker_config(
    engine: &IlpEngine,
    settings: &Settings,
    workers: usize,
    role: WorkerRole,
    strategy: Strategy,
    strategy_seed: u64,
) -> WorkerConfig {
    // Simulated ranks run on real threads; split the physical cores among
    // them so each rank's coverage evaluation (see
    // `p2mdie_ilp::coverage::evaluate_rule_threads`) exploits its share
    // without oversubscribing the machine. An explicit `eval_threads` in
    // the caller's settings wins.
    let mut settings = settings.clone();
    settings.eval_threads = threads_per_worker(settings.eval_threads, workers);
    WorkerConfig {
        role,
        modes: engine.modes.clone(),
        settings,
        strategy,
        strategy_seed,
    }
}

/// What rank 0 of a mesh runs, whichever transport [`open_mesh`] gives it:
/// one job, or the resident service's queue.
pub(crate) trait MeshMaster: Send {
    /// What the master hands back.
    type Out: Send;

    /// Runs on the master's endpoint after the KB went out; returns with
    /// every live rank idle.
    fn run<T: Transport>(
        self,
        ep: &mut Endpoint<T>,
        engine: &IlpEngine,
    ) -> Result<Self::Out, CommFailure>;
}

/// The master of a one-shot run: `spec`, the only job of its mesh.
struct OneJob<'a> {
    spec: &'a JobSpec,
    recovery: &'a RecoveryPolicy,
}

impl MeshMaster for OneJob<'_> {
    type Out = JobOutput;

    fn run<T: Transport>(
        self,
        ep: &mut Endpoint<T>,
        engine: &IlpEngine,
    ) -> Result<JobOutput, CommFailure> {
        let (output, _) = dispatch_job(ep, engine, JobId(1), self.spec, &mut None, self.recovery)?;
        Ok(output)
    }
}

/// Runs `spec` — a learning or a baseline job — as the one job of a fresh
/// mesh that `cfg` describes, with `cfg.recovery` for a rank's death, and
/// reports it. A `cfg` that combines options no such run supports (say,
/// fault injection over TCP) is refused up front with a
/// [`ClusterError::Net`] naming the combination.
pub(crate) fn run_one_job(
    engine: &IlpEngine,
    cfg: &ParallelConfig,
    spec: &JobSpec,
) -> Result<ParallelReport, ClusterError> {
    check_combination(cfg, &spec.kind)?;
    let started = Instant::now();
    let recovery = &cfg.recovery;
    let outcome = open_mesh(engine, cfg, OneJob { spec, recovery })?;
    Ok(ParallelReport::from_outcome(
        cfg.workers,
        started.elapsed(),
        outcome,
    ))
}

/// Opens the mesh `cfg` describes, runs `master` on it and stops its ranks
/// at idle: the one function that builds a mesh. Of `cfg`, the mesh
/// settings apply — `workers`, `model`, `ship_kb` (always on over TCP),
/// `transport`, `chaos`, and whether `recovery` lets the in-process runtime
/// outlive a rank. Every rank is a resident worker: a thread that starts on
/// a copy of the engine's KB (an empty KB when it is shipped), built on the
/// calling thread, its transport wrapped for fault injection (a no-op
/// unless `cfg.chaos` names it); or a `p2mdie-worker` process.
pub(crate) fn open_mesh<M: MeshMaster>(
    engine: &IlpEngine,
    cfg: &ParallelConfig,
    master: M,
) -> Result<ClusterOutcome<M::Out>, ClusterError> {
    match &cfg.transport {
        TransportKind::InProcess => run_cluster_with(
            cfg.workers,
            cfg.model,
            cfg.recovery != RecoveryPolicy::Abort,
            |rank, t| {
                let chaos = cfg.chaos.iter().find(|(target, _)| *target == rank);
                maybe_chaos(t, chaos.map(|(_, c)| c.clone()))
            },
            |ep| serve(ep, engine, cfg.ship_kb, master),
            |_| match cfg.ship_kb {
                true => engine.with_empty_kb().kb,
                false => engine.kb.clone(),
            },
            |ep, kb| match run_resident_worker(ep, kb)? {
                WorkerExit::Finished => Ok(()),
                // In process the master's link outlives every job: a rank
                // that saw it close before `Stop` has failed.
                WorkerExit::IdleDisconnect => {
                    let (rank, from, fault) = (ep.rank(), 0, LinkFault::Closed);
                    let closed = RecvError { rank, from, fault };
                    Err(ep.failure(from, "a job-control frame", closed))
                }
            },
        ),
        TransportKind::Tcp(tcp) => {
            let bin = tcp.resolve_worker_bin()?;
            run_cluster_tcp(
                cfg.workers,
                cfg.model,
                tcp.timeout,
                |rank, addr| spawn_worker(&bin, rank, addr, tcp),
                |ep| serve(ep, engine, true, master),
            )
        }
    }
}

/// Rank 0 of an open mesh: ship the KB if `ship`, run `master`, then `Stop`
/// every rank at idle — a rank the run recovered around is not there to
/// hear it.
fn serve<T: Transport, M: MeshMaster>(
    ep: &mut Endpoint<T>,
    engine: &IlpEngine,
    ship: bool,
    master: M,
) -> Result<M::Out, CommFailure> {
    if ship {
        ship_kb(ep, &engine.kb);
    }
    let out = master.run(ep, engine)?;
    for k in live_workers(ep) {
        send_control(ep, k, &Msg::Stop);
    }
    Ok(out)
}

/// End-of-run warning for a learning run that survived rank deaths: a
/// structured trace event when tracing is on, a stderr line otherwise, so
/// a recovered-but-degraded run is never silent (the counterpart of
/// the cluster layer's dropped-sends warning).
fn warn_rank_losses(losses: &[u32], master_vtime: f64) {
    if losses.is_empty() {
        return;
    }
    let tracer = p2mdie_obs::Tracer::for_rank(0);
    if tracer.on() {
        event!(
            tracer,
            "rank_losses_warning",
            master_vtime,
            losses = losses.len() as u64,
        );
    } else {
        eprintln!(
            "warning: run finished after {} rank loss(es) ({:?}) — \
             the theory was recovered by repartition-and-resume",
            losses.len(),
            losses
        );
    }
}

/// Runs p²-mdie on `engine` × `examples` with `cfg`: one learning job on a
/// fresh mesh, its spec holding a clone of `examples` (a reference count,
/// not a copy).
///
/// The engine (background knowledge, modes, settings) is shared by all
/// ranks, mirroring the paper's distributed-file-system assumption; each
/// in-process worker clones its KB, unless `cfg.ship_kb` sends it over.
///
/// A `cfg` that combines options no run supports (say, fault injection
/// over TCP) is refused up front with a [`ClusterError::Net`] naming the
/// combination.
pub fn run_parallel(
    engine: &IlpEngine,
    examples: &Examples,
    cfg: &ParallelConfig,
) -> Result<ParallelReport, ClusterError> {
    let spec = JobSpec {
        repartition: cfg.repartition,
        ..JobSpec::learn(examples.clone())
    };
    let spec = spec
        .with_seed(cfg.seed)
        .with_width(cfg.width)
        .with_strategy(cfg.strategy);
    let report = run_one_job(engine, cfg, &spec)?;
    warn_rank_losses(&report.rank_losses, report.vtime);
    Ok(report)
}

/// Each simulated rank's fair share of the machine's cores: an explicit
/// non-zero `eval_threads` is kept as-is, `0` (auto) divides the available
/// parallelism by the number of ranks evaluating concurrently.
pub(crate) fn threads_per_worker(configured: usize, workers: usize) -> usize {
    if configured != 0 {
        return configured;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores / workers.max(1)).max(1)
}

/// Runs the sequential baseline (Figure 1) and prices it with the same
/// cost model: `T(1) = total_steps × t_step` — no communication, exactly
/// like the paper's single-processor runs.
pub fn run_sequential_timed(
    engine: &IlpEngine,
    examples: &Examples,
    model: &CostModel,
) -> SequentialReport {
    let started = Instant::now();
    let out = engine.run_sequential(examples);
    SequentialReport {
        theory: out.theory.iter().map(|r| r.clause.clone()).collect(),
        epochs: out.epochs as u32,
        set_aside: out.set_aside as u32,
        vtime: model.compute_time(out.steps),
        steps: out.steps,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::check_complete_and_consistent;

    fn problem() -> (IlpEngine, Examples) {
        crate::fixtures::problem(120)
    }

    #[test]
    fn parallel_learns_complete_consistent_theory() {
        let (engine, ex) = problem();
        for p in [1, 2, 4] {
            let cfg = ParallelConfig::new(p, Width::Unlimited, 42);
            let rep = run_parallel(&engine, &ex, &cfg).unwrap();
            assert!(!rep.stalled, "p={p} stalled");
            assert_eq!(rep.set_aside, 0, "p={p} set examples aside");
            check_complete_and_consistent(&engine, &ex, &rep.clauses());
            assert!(rep.vtime > 0.0);
            assert!(rep.total_bytes > 0);
        }
    }

    #[test]
    fn width_limit_also_learns() {
        let (engine, ex) = problem();
        let cfg = ParallelConfig::new(2, Width::Limit(2), 42);
        let rep = run_parallel(&engine, &ex, &cfg).unwrap();
        check_complete_and_consistent(&engine, &ex, &rep.clauses());
    }

    #[test]
    fn runs_are_deterministic() {
        let (engine, ex) = problem();
        let cfg = ParallelConfig::new(3, Width::Limit(5), 7);
        let a = run_parallel(&engine, &ex, &cfg).unwrap();
        let b = run_parallel(&engine, &ex, &cfg).unwrap();
        assert_eq!(a.clauses(), b.clauses());
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert!((a.vtime - b.vtime).abs() < 1e-12);
    }

    #[test]
    fn different_partition_seeds_may_change_traffic_but_not_quality() {
        let (engine, ex) = problem();
        let a = run_parallel(&engine, &ex, &ParallelConfig::new(2, Width::Unlimited, 1)).unwrap();
        let b = run_parallel(&engine, &ex, &ParallelConfig::new(2, Width::Unlimited, 2)).unwrap();
        check_complete_and_consistent(&engine, &ex, &a.clauses());
        check_complete_and_consistent(&engine, &ex, &b.clauses());
    }

    /// Snapshot-shipped workers (empty KB + one `Msg::KbSnapshot`) must
    /// learn exactly the theory the shared-data workers learn, with the
    /// snapshot's bytes showing up in the traffic statistics.
    #[test]
    fn kb_shipping_learns_identically_and_counts_the_transfer() {
        let (engine, ex) = problem();
        for p in [1, 3] {
            let shared =
                run_parallel(&engine, &ex, &ParallelConfig::new(p, Width::Unlimited, 42)).unwrap();
            let cfg = ParallelConfig::new(p, Width::Unlimited, 42).with_kb_shipping();
            let shipped = run_parallel(&engine, &ex, &cfg).unwrap();
            assert_eq!(shared.clauses(), shipped.clauses(), "p={p} theory drifted");
            assert_eq!(shared.epochs, shipped.epochs);
            assert!(
                shipped.total_bytes > shared.total_bytes,
                "p={p}: the KB transfer must be byte-accounted ({} vs {})",
                shipped.total_bytes,
                shared.total_bytes
            );
            check_complete_and_consistent(&engine, &ex, &shipped.clauses());
        }
    }

    #[test]
    fn kb_shipping_is_deterministic() {
        let (engine, ex) = problem();
        let cfg = ParallelConfig::new(2, Width::Limit(5), 7).with_kb_shipping();
        let a = run_parallel(&engine, &ex, &cfg).unwrap();
        let b = run_parallel(&engine, &ex, &cfg).unwrap();
        assert_eq!(a.clauses(), b.clauses());
        assert_eq!(a.total_bytes, b.total_bytes);
        assert!((a.vtime - b.vtime).abs() < 1e-12);
    }

    #[test]
    fn repartition_variant_learns_the_same_concept() {
        let (engine, ex) = problem();
        let cfg = ParallelConfig::new(3, Width::Limit(10), 42).with_repartition();
        let rep = run_parallel(&engine, &ex, &cfg).unwrap();
        assert!(!rep.stalled);
        check_complete_and_consistent(&engine, &ex, &rep.clauses());
    }

    #[test]
    fn repartition_costs_more_communication() {
        // The paper's stated reason for rejecting repartitioning: "the high
        // communication cost of repartitioning". Measure it.
        let (engine, ex) = problem();
        let stat =
            run_parallel(&engine, &ex, &ParallelConfig::new(3, Width::Limit(10), 42)).unwrap();
        let repa = run_parallel(
            &engine,
            &ex,
            &ParallelConfig::new(3, Width::Limit(10), 42).with_repartition(),
        )
        .unwrap();
        // Even on this tiny problem with 1-argument examples the overhead
        // is >50%; on the paper-shaped datasets it is several-fold (see
        // the ablation bench).
        assert!(
            repa.total_bytes as f64 > 1.5 * stat.total_bytes as f64,
            "repartitioning must ship far more bytes ({} vs {})",
            repa.total_bytes,
            stat.total_bytes
        );
    }

    #[test]
    fn repartition_is_deterministic() {
        let (engine, ex) = problem();
        let cfg = ParallelConfig::new(3, Width::Limit(5), 11).with_repartition();
        let a = run_parallel(&engine, &ex, &cfg).unwrap();
        let b = run_parallel(&engine, &ex, &cfg).unwrap();
        assert_eq!(a.clauses(), b.clauses());
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    fn sequential_baseline_reports_virtual_time() {
        let (engine, ex) = problem();
        let model = CostModel {
            sec_per_step: 1e-6,
            ..CostModel::free()
        };
        let rep = run_sequential_timed(&engine, &ex, &model);
        assert!(rep.steps > 0);
        assert!((rep.vtime - rep.steps as f64 * 1e-6).abs() < 1e-9);
        check_complete_and_consistent(&engine, &ex, &rep.theory);
    }

    #[test]
    fn more_workers_reduce_epochs() {
        let (engine, ex) = problem();
        let seq = run_sequential_timed(&engine, &ex, &CostModel::free());
        let par =
            run_parallel(&engine, &ex, &ParallelConfig::new(4, Width::Unlimited, 42)).unwrap();
        assert!(
            par.epochs <= seq.epochs,
            "parallel epochs {} should not exceed sequential {}",
            par.epochs,
            seq.epochs
        );
    }

    /// Every combination of options no run supports is refused before a
    /// mesh is built, with an error that names it.
    #[test]
    fn unsupported_combinations_fail_typed() {
        let (engine, ex) = problem();
        let base = || ParallelConfig::new(2, Width::Limit(10), 42);
        let kill = || ChaosConfig::new(7).kill_after_sends(4);
        let healing = || RecoveryPolicy::Repartition { max_rank_losses: 1 };
        // The binary is never resolved, let alone spawned: the check runs first.
        let tcp = || TransportKind::Tcp(crate::remote::TcpConfig::with_worker_bin("/nonexistent"));
        let rejected = [
            (
                base()
                    .with_strategy(Strategy::SearchPartition)
                    .with_repartition(),
                "repartition with a strategy",
            ),
            (
                base()
                    .with_strategy(Strategy::SearchPartition)
                    .with_recovery(healing()),
                "RecoveryPolicy::Repartition with a strategy",
            ),
            (
                base()
                    .with_strategy(Strategy::SearchPartition)
                    .with_chaos(1, kill()),
                "chaos with a strategy",
            ),
            (
                base()
                    .with_recovery(healing())
                    .with_transport(tcp())
                    .with_chaos(1, kill()),
                "chaos with TransportKind::Tcp",
            ),
            (
                base().with_chaos(1, kill()),
                "chaos with RecoveryPolicy::Abort",
            ),
            (
                base().with_recovery(healing()).with_chaos(3, kill()),
                "not a worker rank",
            ),
        ];
        // The baseline has no epochs to re-deal or recover.
        let baseline = [
            base().with_repartition(),
            base().with_strategy(Strategy::SearchPartition),
            base().with_recovery(healing()),
            base().with_recovery(healing()).with_chaos(1, kill()),
        ];
        let runs = rejected
            .into_iter()
            .map(|(cfg, what)| (run_parallel(&engine, &ex, &cfg), what));
        let baseline_runs = baseline.into_iter().map(|cfg| {
            let per_level = crate::baselines::EvalGranularity::PerLevel;
            let run = crate::baselines::run_coverage_parallel(&engine, &ex, &cfg, per_level);
            (run, "the coverage-parallel baseline with repartition")
        });
        for (run, what) in runs.chain(baseline_runs) {
            match run {
                Err(ClusterError::Net { message }) => assert!(
                    message.contains("unsupported ParallelConfig") && message.contains(what),
                    "{what}: unhelpful message: {message}"
                ),
                other => panic!("{what}: expected a typed refusal, got {other:?}"),
            }
        }
    }
}
