//! ILP-as-a-service: a resident cluster that runs many [`JobSpec`]s over
//! one standing mesh, plus the ephemeral single-job dispatch the one-shot
//! entry points are thin wrappers over.
//!
//! # The resident service
//!
//! [`Service::new`] builds the mesh **once** — spawn the ranks, ship the
//! compiled KB snapshot once — and keeps the workers resident: between
//! jobs each worker parks in an idle loop (`run_resident_worker`) with
//! the adopted KB still loaded. Submitting a job ships only what is
//! job-specific (role, modes, settings, and the example subsets inside the
//! per-rank [`Msg::SubmitJob`] frames); the expensive part of a cold start
//! — mesh construction and the KB transfer — is paid once per service
//! instead of once per run. The same loop serves a TCP mesh of real
//! `p2mdie-worker` processes ([`Service::new_tcp`]): a remote worker that
//! receives a `SubmitJob` instead of the legacy `Configure` bootstrap
//! switches into the identical resident loop.
//!
//! Every worker runs each job on a **pristine clone** of the resident KB:
//! accepted rules assert into the job's copy and vanish with it, so
//! concurrent clients cannot contaminate each other's background theory —
//! the property the differential tests in `crates/core/tests/service.rs`
//! pin (any interleaving of submissions is bit-identical to each job run
//! alone on a fresh mesh).
//!
//! # Queuing and fairness
//!
//! Jobs queue FIFO *within* their scheduling class (`JobKind::class`:
//! coverage queries / rule searches / full learning runs) and the
//! scheduler round-robins *across* non-empty classes, so a backlog of
//! long learning runs cannot starve a quick coverage query submitted
//! behind them.
//!
//! # Backpressure rules
//!
//! Two layers, both explicit:
//!
//! 1. **Client → service**: the submission queue is bounded
//!    ([`ServiceConfig::queue_cap`]). [`Service::submit`] never blocks —
//!    a full queue returns [`SubmitError::Backpressure`] and the client
//!    decides whether to retry, drop, or wait on an outstanding
//!    [`JobHandle`].
//! 2. **Master → worker**: a worker runs one job at a time and says so —
//!    its [`Msg::JobAccepted`] advertises `queue_free: 0`, and the master
//!    honours the contract by never sending a rank another
//!    [`Msg::SubmitJob`] before that job's [`Msg::JobResult`] drained.
//!    Dispatch is therefore serialized over the mesh; concurrency lives in
//!    the queue, not in interleaved wire traffic.
//!
//! Cancellation is advisory and queue-side: [`JobHandle::cancel`] marks
//! the id, the scheduler fails the job at dequeue time (before any
//! dispatch), and broadcasts [`Msg::CancelJob`] so the resident workers
//! observe the frame; a job already on the mesh runs to completion.
//!
//! # Introspection
//!
//! [`Service::metrics`] is the flight-recorder readout: the scheduler
//! broadcasts the protocol-v6 [`Msg::MetricsQuery`] between jobs (when
//! every worker is idle) and each rank answers [`Msg::MetricsReport`]
//! with a [`MetricsSnapshot`] built from its endpoint state, its
//! per-rank metrics registry, and the prover hot counters. The same dump
//! is taken once more right before shutdown and returned in
//! [`ServiceReport::worker_metrics`]. Job lifecycle transitions emit
//! `job_state` trace events, and the scheduler maintains queue-depth /
//! class-fairness gauges plus a backpressure counter in rank 0's
//! registry.
//!
//! # Ephemeral dispatch
//!
//! The pre-service entry points — [`crate::driver::run_parallel`],
//! [`crate::baselines::run_coverage_parallel`], and their TCP analogues —
//! are thin wrappers over the `one_shot_*` functions here: build a mesh,
//! walk **one** job through the same [`JobState`] lifecycle using the
//! legacy wire framing (no job-control frames), tear the mesh down. Their
//! reports stay bit-identical to the pre-service implementations: theory,
//! coverage, steps, vtime, and Table-4 traffic are pinned by the existing
//! driver/baseline/TCP tests.

use crate::bag::RuleBag;
use crate::baselines::{
    baseline_master, eval_round, run_baseline_worker, BaselineReport, EvalGranularity,
};
use crate::driver::{threads_per_worker, ParallelConfig, RecoveryPolicy};
use crate::job::{
    JobId, JobKind, JobOutcome, JobOutput, JobSpec, JobState, Lifecycle, CLASS_NAMES, JOB_CLASSES,
};
use crate::master::{
    evaluate_bag, run_master, run_master_recovering, run_master_repartition, ship_kb,
};
use crate::partition::partition_examples;
use crate::protocol::{Msg, WorkerConfig, WorkerRole};
use crate::remote::{bootstrap_workers, spawn_worker, TcpConfig, WorkerExit};
use crate::report::{JobAccounting, ParallelReport};
use crate::strategy::{run_strategy_master, run_strategy_worker, Strategy, StrategyWorkerContext};
use crate::worker::{run_worker, WorkerContext};
use p2mdie_cluster::codec::from_bytes;
use p2mdie_cluster::comm::{CommError, CommFailure, Endpoint, LinkFault};
use p2mdie_cluster::net::run_cluster_tcp;
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::{
    maybe_chaos, run_cluster, run_cluster_with, ClusterError, ClusterOutcome, CostModel,
};
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_obs::{event, metrics, MetricEntry, MetricValue, MetricsSnapshot};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Configuration of a resident [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of resident worker ranks.
    pub workers: usize,
    /// Virtual-time cost model for the whole mesh lifetime.
    pub model: CostModel,
    /// Bound on the submission queue; a full queue makes
    /// [`Service::submit`] return [`SubmitError::Backpressure`].
    pub queue_cap: usize,
    /// Ship the compiled KB once at mesh construction (the resident
    /// deployment shape, and always on for TCP meshes). Off, in-process
    /// workers clone the engine's KB directly (shared-data assumption).
    pub ship_kb: bool,
}

impl ServiceConfig {
    /// A config with the Beowulf-2005 cost model, a 16-job queue, and KB
    /// shipping on.
    pub fn new(workers: usize) -> Self {
        ServiceConfig {
            workers,
            model: CostModel::beowulf_2005(),
            queue_cap: 16,
            ship_kb: true,
        }
    }

    /// Sets the cost model.
    pub fn with_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the submission-queue bound.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full; retry after a job drains.
    Backpressure,
    /// The service is shut down (or its mesh failed).
    ServiceDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure => write!(f, "submission queue full (backpressure)"),
            SubmitError::ServiceDown => write!(f, "service is down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Whole-mesh statistics of one service lifetime, returned by
/// [`Service::shutdown`]. Per-job numbers live in each
/// [`JobOutcome::accounting`]; these are the standing-mesh totals
/// (including the one-time KB ship and the idle-loop framing).
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Jobs dispatched to the mesh (cancelled-at-queue jobs excluded).
    pub jobs_run: u32,
    /// Final virtual clock at the master.
    pub master_vtime: f64,
    /// Final virtual clocks of the workers.
    pub worker_vtimes: Vec<f64>,
    /// Mesh-lifetime inference steps per worker.
    pub worker_steps: Vec<u64>,
    /// Mesh-lifetime communication in bytes.
    pub total_bytes: u64,
    /// Mesh-lifetime messages.
    pub total_messages: u64,
    /// Sends the transport could not deliver (0 on a clean lifetime).
    pub dropped_sends: u64,
    /// Final per-worker metrics snapshots (index 0 is rank 1), collected
    /// over the wire with [`Msg::MetricsQuery`] just before the mesh
    /// stopped — the same dump [`Service::metrics`] returns mid-lifetime.
    pub worker_metrics: Vec<MetricsSnapshot>,
}

enum Request {
    Submit(QueuedJob),
    /// Introspection: broadcast [`Msg::MetricsQuery`] to the (idle)
    /// workers, reply with their snapshots. Served between jobs, never
    /// mid-dispatch, so the query frames cannot interleave with a job's
    /// own protocol.
    Metrics(mpsc::Sender<Vec<MetricsSnapshot>>),
    Shutdown,
}

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    reply: mpsc::Sender<JobOutcome>,
}

/// A handle on one submitted job.
pub struct JobHandle {
    id: JobId,
    rx: mpsc::Receiver<JobOutcome>,
    cancelled: Arc<Mutex<HashSet<u64>>>,
}

impl JobHandle {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cancellation. Advisory: a job still queued fails at
    /// dequeue time with a "cancelled" outcome; a job already dispatched
    /// runs to completion.
    pub fn cancel(&self) {
        self.cancelled
            .lock()
            .expect("cancellation set lock poisoned")
            .insert(self.id.0);
    }

    /// Blocks until the job reaches a terminal state. A service that dies
    /// (mesh failure or shutdown) before the job finishes yields a
    /// `Failed` outcome rather than a hang.
    pub fn wait(self) -> JobOutcome {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| JobOutcome {
            id,
            state: JobState::Failed,
            output: None,
            error: Some("service terminated before the job finished".to_owned()),
            accounting: JobAccounting::default(),
        })
    }
}

/// A resident ILP cluster serving [`JobSpec`] submissions.
///
/// The mesh (in-process threads or TCP worker processes) is built once at
/// construction and lives until [`Service::shutdown`]; see the
/// [module docs](self) for queuing, fairness, and backpressure.
pub struct Service {
    tx: mpsc::SyncSender<Request>,
    next_id: AtomicU64,
    cancelled: Arc<Mutex<HashSet<u64>>>,
    handle: std::thread::JoinHandle<Result<ServiceReport, ClusterError>>,
}

impl Service {
    /// Builds an in-process resident mesh of `cfg.workers` ranks around a
    /// clone of `engine` and starts serving submissions.
    pub fn new(engine: &IlpEngine, cfg: ServiceConfig) -> Self {
        Service::start(engine, cfg, None)
    }

    /// Builds a resident mesh of real `p2mdie-worker` OS processes over
    /// localhost TCP. The KB is always shipped (worker processes have no
    /// shared memory to inherit it from).
    pub fn new_tcp(engine: &IlpEngine, cfg: ServiceConfig, tcp: &TcpConfig) -> Self {
        Service::start(engine, cfg, Some(tcp.clone()))
    }

    fn start(engine: &IlpEngine, cfg: ServiceConfig, tcp: Option<TcpConfig>) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Request>(cfg.queue_cap.max(1));
        let cancelled = Arc::new(Mutex::new(HashSet::new()));
        let thread_cancelled = Arc::clone(&cancelled);
        let engine = engine.clone();
        let handle = std::thread::spawn(move || -> Result<ServiceReport, ClusterError> {
            let outcome = match tcp {
                None => serve_in_process(&engine, &cfg, rx, &thread_cancelled)?,
                Some(tcp) => serve_tcp(&engine, &cfg, &tcp, rx, &thread_cancelled)?,
            };
            let (jobs_run, worker_metrics) = outcome.result;
            Ok(ServiceReport {
                jobs_run,
                master_vtime: outcome.master_vtime,
                worker_vtimes: outcome.worker_vtimes,
                worker_steps: outcome.worker_steps,
                total_bytes: outcome.stats.total_bytes(),
                total_messages: outcome.stats.total_messages(),
                dropped_sends: outcome.dropped_sends,
                worker_metrics,
            })
        });
        Service {
            tx,
            next_id: AtomicU64::new(1),
            cancelled,
            handle,
        }
    }

    /// Submits a job. Non-blocking: a full queue is reported as
    /// [`SubmitError::Backpressure`] instead of stalling the caller.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (reply, rx) = mpsc::channel();
        match self
            .tx
            .try_send(Request::Submit(QueuedJob { id, spec, reply }))
        {
            Ok(()) => Ok(JobHandle {
                id,
                rx,
                cancelled: Arc::clone(&self.cancelled),
            }),
            Err(mpsc::TrySendError::Full(_)) => {
                metrics::rank_registry(0)
                    .counter("scheduler_backpressure_total")
                    .inc();
                Err(SubmitError::Backpressure)
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(SubmitError::ServiceDown),
        }
    }

    /// Introspection: per-worker metrics snapshots (index 0 is rank 1),
    /// collected over the wire with the protocol-v6
    /// [`Msg::MetricsQuery`] / [`Msg::MetricsReport`] pair. The request
    /// queues behind already-submitted jobs (the scheduler answers it
    /// between dispatches, when every worker is idle), so the snapshots
    /// are consistent: no job is mid-flight while they are taken. Workers
    /// always answer — the pair works with sampling and tracing off.
    pub fn metrics(&self) -> Result<Vec<MetricsSnapshot>, SubmitError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(Request::Metrics(reply))
            .map_err(|_| SubmitError::ServiceDown)?;
        rx.recv().map_err(|_| SubmitError::ServiceDown)
    }

    /// Drains the queue, stops the mesh (`Msg::Stop` at idle), and returns
    /// the mesh-lifetime report. Jobs already queued still run; their
    /// handles resolve before this returns.
    pub fn shutdown(self) -> Result<ServiceReport, ClusterError> {
        // A full queue blocks here until the scheduler drains a slot; a
        // dead scheduler makes send fail, which join() then explains.
        let _ = self.tx.send(Request::Shutdown);
        drop(self.tx);
        self.handle.join().unwrap_or_else(|payload| {
            Err(ClusterError::Net {
                message: format!(
                    "service thread panicked: {}",
                    payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>")
                ),
            })
        })
    }
}

fn serve_in_process(
    engine: &IlpEngine,
    cfg: &ServiceConfig,
    rx: mpsc::Receiver<Request>,
    cancelled: &Mutex<HashSet<u64>>,
) -> Result<ClusterOutcome<(u32, Vec<MetricsSnapshot>)>, ClusterError> {
    let bases: Vec<Mutex<Option<KnowledgeBase>>> = (0..cfg.workers)
        .map(|_| {
            Mutex::new(Some(if cfg.ship_kb {
                engine.with_empty_kb().kb
            } else {
                engine.kb.clone()
            }))
        })
        .collect();
    let ship = cfg.ship_kb;
    run_cluster(
        cfg.workers,
        cfg.model,
        move |ep| scheduler_master(ep, engine, &rx, cancelled, ship),
        |ep| {
            let mut base = bases[ep.rank() - 1]
                .lock()
                .unwrap_or_else(|_| {
                    panic!(
                        "rank {}: resident-KB lock poisoned by an earlier panic",
                        ep.rank()
                    )
                })
                .take()
                .expect("each resident KB is taken exactly once");
            let _ = run_resident_worker(ep, &mut base);
        },
    )
}

fn serve_tcp(
    engine: &IlpEngine,
    cfg: &ServiceConfig,
    tcp: &TcpConfig,
    rx: mpsc::Receiver<Request>,
    cancelled: &Mutex<HashSet<u64>>,
) -> Result<ClusterOutcome<(u32, Vec<MetricsSnapshot>)>, ClusterError> {
    let bin = tcp.resolve_worker_bin()?;
    run_cluster_tcp(
        cfg.workers,
        cfg.model,
        tcp.timeout,
        |rank, addr| spawn_worker(&bin, rank, addr, tcp),
        // TCP workers always bootstrap from the snapshot.
        move |ep| scheduler_master(ep, engine, &rx, cancelled, true),
    )
}

/// The master side of the resident service: refill the class queues from
/// the submission channel, round-robin across classes, dispatch one job at
/// a time, stop the mesh when told to shut down and the queues are dry.
/// Returns the dispatch count and the shutdown metrics dump.
fn scheduler_master<T: Transport>(
    ep: &mut Endpoint<T>,
    engine: &IlpEngine,
    rx: &mpsc::Receiver<Request>,
    cancelled: &Mutex<HashSet<u64>>,
    ship: bool,
) -> (u32, Vec<MetricsSnapshot>) {
    if ship {
        ship_kb(ep, &engine.kb);
    }
    let registry = metrics::rank_registry(ep.rank());
    let mut queues: Vec<VecDeque<QueuedJob>> = (0..JOB_CLASSES).map(|_| VecDeque::new()).collect();
    let mut next_class = 0usize;
    let mut jobs_run = 0u32;
    let mut open = true;
    'serve: loop {
        // Refill: drain everything already submitted without blocking;
        // block only when there is nothing to run.
        loop {
            let pending: usize = queues.iter().map(VecDeque::len).sum();
            if !open && pending == 0 {
                break 'serve;
            }
            let req = if pending == 0 {
                match rx.recv() {
                    Ok(req) => req,
                    Err(_) => {
                        open = false;
                        continue;
                    }
                }
            } else {
                match rx.try_recv() {
                    Ok(req) => req,
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            };
            match req {
                Request::Submit(job) => {
                    event!(
                        ep.tracer(),
                        "job_state",
                        ep.now(),
                        job = job.id.0,
                        state = "queued",
                    );
                    registry
                        .counter(&format!(
                            "scheduler_jobs_submitted_total{{class=\"{}\"}}",
                            CLASS_NAMES[job.spec.kind.class()]
                        ))
                        .inc();
                    queues[job.spec.kind.class()].push_back(job);
                }
                Request::Metrics(reply) => {
                    // Served here, between jobs, so every worker is parked
                    // in its idle loop and the query cannot interleave
                    // with a job's own frames.
                    let _ = reply.send(collect_worker_metrics(ep));
                }
                Request::Shutdown => open = false,
            }
        }

        // Class-fairness introspection: depth per class plus the total,
        // sampled every time the scheduler picks its next job.
        for (c, q) in queues.iter().enumerate() {
            registry
                .gauge(&format!(
                    "scheduler_queue_depth{{class=\"{}\"}}",
                    CLASS_NAMES[c]
                ))
                .set(q.len() as f64);
        }
        registry
            .gauge("scheduler_queue_depth")
            .set(queues.iter().map(VecDeque::len).sum::<usize>() as f64);

        // FIFO within a class, round-robin across non-empty classes.
        let class = (0..JOB_CLASSES)
            .map(|i| (next_class + i) % JOB_CLASSES)
            .find(|&c| !queues[c].is_empty())
            .expect("the refill loop only falls through with work pending");
        next_class = (class + 1) % JOB_CLASSES;
        let job = queues[class].pop_front().expect("class just checked");

        let was_cancelled = cancelled
            .lock()
            .map(|mut set| set.remove(&job.id.0))
            .unwrap_or(false);
        let outcome = if was_cancelled {
            // Nothing was dispatched; tell the (idle) workers anyway so the
            // advisory frame is exercised end to end.
            ep.broadcast(&Msg::CancelJob { id: job.id.0 });
            registry.counter("scheduler_jobs_cancelled_total").inc();
            let mut lifecycle = Lifecycle::new(job.id);
            lifecycle.advance(JobState::Failed);
            event!(
                ep.tracer(),
                "job_state",
                ep.now(),
                job = job.id.0,
                state = "failed",
            );
            JobOutcome {
                id: job.id,
                state: lifecycle.state,
                output: None,
                error: Some("cancelled before dispatch".to_owned()),
                accounting: JobAccounting::default(),
            }
        } else {
            jobs_run += 1;
            registry
                .counter(&format!(
                    "scheduler_jobs_dispatched_total{{class=\"{}\"}}",
                    CLASS_NAMES[class]
                ))
                .inc();
            let outcome = dispatch_job(ep, engine, job.id, &job.spec);
            // A cancel that raced the running job arrived too late to stop
            // it — the job completed legally. Consume the mark (so it can
            // never leak onto a later dequeue pass) and still broadcast the
            // advisory frame; every worker treats a finished job's
            // CancelJob as a no-op.
            let late_cancel = cancelled
                .lock()
                .map(|mut set| set.remove(&job.id.0))
                .unwrap_or(false);
            if late_cancel {
                ep.broadcast(&Msg::CancelJob { id: job.id.0 });
            }
            outcome
        };
        // A dropped handle is fine; the job still ran to completion.
        let _ = job.reply.send(outcome);
    }
    // The shutdown metrics dump: one last introspection round while the
    // mesh is still up, returned through [`ServiceReport`].
    let dump = collect_worker_metrics(ep);
    ep.broadcast(&Msg::Stop);
    (jobs_run, dump)
}

/// One introspection round: broadcast [`Msg::MetricsQuery`] to every
/// (idle) worker and gather the [`Msg::MetricsReport`]s in rank order.
fn collect_worker_metrics<T: Transport>(ep: &mut Endpoint<T>) -> Vec<MetricsSnapshot> {
    let p = ep.workers();
    ep.broadcast(&Msg::MetricsQuery);
    (1..=p)
        .map(|k| {
            let msg = Msg::recv(ep, k, "a MetricsReport");
            let Msg::MetricsReport { snapshot } = msg else {
                panic!("scheduler: expected MetricsReport from rank {k}, got {msg:?}");
            };
            snapshot
        })
        .collect()
}

/// Answers a [`Msg::MetricsQuery`] from the master: a worker does so
/// whenever it is idle, before its first job as much as between jobs.
pub(crate) fn report_worker_metrics<T: Transport>(ep: &mut Endpoint<T>) {
    let snapshot = worker_metrics_snapshot(ep);
    ep.send(0, &Msg::MetricsReport { snapshot });
}

/// A worker's answer to [`Msg::MetricsQuery`]: endpoint-level facts that
/// are always valid (virtual clock, inference steps, this rank's send
/// totals), this rank's [`metrics::rank_registry`], and the process-wide
/// prover hot counters. The endpoint facts make the snapshot consistent
/// with [`crate::report::JobAccounting`] deltas whether or not sampling
/// is on. In-process meshes share one address space, so the prover hot
/// counters repeat across ranks there; over TCP they are genuinely
/// per-worker.
fn worker_metrics_snapshot<T: Transport>(ep: &Endpoint<T>) -> MetricsSnapshot {
    let me = ep.rank();
    let (bytes, msgs) = ep
        .stats()
        .send_row(me)
        .iter()
        .fold((0u64, 0u64), |(b, m), (rb, rm, _)| (b + rb, m + rm));
    let mut entries = vec![
        MetricEntry {
            name: "worker_vtime_seconds".to_owned(),
            value: MetricValue::Gauge(ep.now()),
        },
        MetricEntry {
            name: "worker_inference_steps_total".to_owned(),
            value: MetricValue::Counter(ep.compute_steps()),
        },
        MetricEntry {
            name: "worker_sent_bytes_total".to_owned(),
            value: MetricValue::Counter(bytes),
        },
        MetricEntry {
            name: "worker_sent_messages_total".to_owned(),
            value: MetricValue::Counter(msgs),
        },
    ];
    entries.extend(metrics::rank_registry(me).snapshot().entries);
    entries.extend(metrics::hot::entries());
    MetricsSnapshot::from_entries(entries)
}

/// Runs one job over the resident mesh: per-rank [`Msg::SubmitJob`],
/// gather acceptances, run the kind's master protocol (which ends with the
/// job's own `Stop`, returning every worker to the idle loop), drain the
/// [`Msg::JobResult`]s, and account the deltas.
fn dispatch_job<T: Transport>(
    ep: &mut Endpoint<T>,
    engine: &IlpEngine,
    id: JobId,
    spec: &JobSpec,
) -> JobOutcome {
    let p = ep.workers();
    let mut job = Lifecycle::new(id);
    let t0 = ep.now();
    let bytes0 = ep.stats().total_bytes();
    let messages0 = ep.stats().total_messages();
    let steps0 = ep.compute_steps();

    job.advance(JobState::Dispatching);
    event!(
        ep.tracer(),
        "job_state",
        t0,
        job = id.0,
        state = "dispatching",
    );
    let settings = spec
        .settings
        .clone()
        .unwrap_or_else(|| engine.settings.clone());
    // Strategies apply to full learning runs only: a `RuleSearch` job's
    // global scoring sums per-rank counts (which full replication would
    // multiply by `p`), and coverage/baseline jobs have no search to
    // parallelize differently.
    let strategy = match &spec.kind {
        JobKind::Learn => spec.strategy,
        _ => Strategy::DataPipeline,
    };
    let (subsets, partition) = if strategy != Strategy::DataPipeline {
        // Non-default strategies replicate the full example set per rank.
        (vec![spec.examples.clone(); p], None)
    } else if spec.repartition {
        (vec![Examples::default(); p], None)
    } else {
        let (subsets, part) = partition_examples(&spec.examples, p, spec.seed);
        (subsets, Some(part))
    };
    let mut worker_settings = settings.clone();
    worker_settings.eval_threads = threads_per_worker(settings.eval_threads, p);
    let role = match &spec.kind {
        JobKind::Coverage { .. } | JobKind::BaselineLearn { .. } => WorkerRole::Coverage,
        JobKind::RuleSearch | JobKind::Learn => WorkerRole::Pipeline {
            width: spec.width,
            repartition: spec.repartition,
        },
    };
    for (i, subset) in subsets.iter().enumerate() {
        ep.send(
            i + 1,
            &Msg::SubmitJob {
                id: id.0,
                config: Box::new(WorkerConfig {
                    role: role.clone(),
                    modes: engine.modes.clone(),
                    settings: worker_settings.clone(),
                    strategy,
                    strategy_seed: spec.seed,
                }),
                pos: subset.pos.clone(),
                neg: subset.neg.clone(),
            },
        );
    }
    for k in 1..=p {
        let msg = Msg::recv(ep, k, "a JobAccepted");
        let Msg::JobAccepted {
            id: accepted,
            queue_free,
        } = msg
        else {
            panic!("scheduler: expected JobAccepted from rank {k}, got {msg:?}");
        };
        assert_eq!(accepted, id.0, "rank {k} accepted the wrong job");
        // The backpressure contract: a worker runs one job at a time, so
        // the slot it just consumed was its only one.
        assert_eq!(queue_free, 0, "rank {k} advertised a queue it cannot have");
    }

    job.advance(JobState::Running);
    event!(
        ep.tracer(),
        "job_state",
        ep.now(),
        job = id.0,
        state = "running",
    );
    let output = match &spec.kind {
        JobKind::Coverage { rules } => {
            ep.broadcast(&Msg::LoadExamples);
            let totals = eval_round(ep, rules);
            ep.broadcast(&Msg::Stop);
            JobOutput::Coverage(totals)
        }
        JobKind::RuleSearch => JobOutput::Rules(rule_search_master(ep, &settings)),
        JobKind::Learn => JobOutput::Learned(if strategy != Strategy::DataPipeline {
            run_strategy_master(ep, &settings, spec.examples.num_pos())
        } else if spec.repartition {
            run_master_repartition(ep, &settings, &spec.examples, spec.seed)
        } else {
            run_master(ep, &settings, spec.examples.num_pos())
        }),
        JobKind::BaselineLearn { granularity } => {
            let partition = partition
                .as_ref()
                .expect("baseline jobs partition statically");
            // `baseline_master` saturates and refines master-side with the
            // job's settings; rebuild the engine only when overridden.
            let holder;
            let master_engine = if spec.settings.is_some() {
                holder = IlpEngine {
                    kb: engine.kb.clone(),
                    modes: engine.modes.clone(),
                    settings: settings.clone(),
                };
                &holder
            } else {
                engine
            };
            let (theory, epochs, set_aside) =
                baseline_master(ep, master_engine, &spec.examples, partition, *granularity);
            JobOutput::BaselineLearned {
                theory,
                epochs,
                set_aside,
            }
        }
    };

    job.advance(JobState::Draining);
    event!(
        ep.tracer(),
        "job_state",
        ep.now(),
        job = id.0,
        state = "draining",
    );
    let mut worker_steps = vec![0u64; p];
    for k in 1..=p {
        let msg = Msg::recv(ep, k, "a JobResult");
        let Msg::JobResult {
            id: finished,
            steps,
        } = msg
        else {
            panic!("scheduler: expected JobResult from rank {k}, got {msg:?}");
        };
        assert_eq!(finished, id.0, "rank {k} drained the wrong job");
        worker_steps[k - 1] = steps;
    }

    job.advance(JobState::Done);
    event!(
        ep.tracer(),
        "job_state",
        ep.now(),
        job = id.0,
        state = "done",
    );
    JobOutcome {
        id,
        state: job.state,
        output: Some(output),
        error: None,
        accounting: JobAccounting {
            vtime: ep.now() - t0,
            master_steps: ep.compute_steps() - steps0,
            worker_steps,
            bytes: ep.stats().total_bytes() - bytes0,
            messages: ep.stats().total_messages() - messages0,
        },
    }
}

/// One pipelined rule-search epoch as a job (Fig. 5 steps 6–11): start the
/// `p` pipelines, pool the survivors, score the bag globally, and return
/// it best-first without consuming it.
fn rule_search_master<T: Transport>(
    ep: &mut Endpoint<T>,
    settings: &Settings,
) -> Vec<(Clause, u32, u32)> {
    let p = ep.workers();
    ep.broadcast(&Msg::LoadExamples);
    for k in 1..=p {
        ep.send(k, &Msg::StartPipeline { epoch: 1 });
    }
    let mut bag = RuleBag::new();
    for k in 1..=p {
        let msg = Msg::recv(ep, k, "RulesFound");
        let Msg::RulesFound { origin, rules, .. } = msg else {
            panic!("rule-search master: expected RulesFound from rank {k}, got {msg:?}");
        };
        for (clause, _, _) in rules {
            bag.insert(clause, origin);
        }
    }
    if !bag.is_empty() {
        evaluate_bag(ep, p, &mut bag);
    }
    ep.broadcast(&Msg::Stop);
    let mut out = Vec::with_capacity(bag.len());
    while let Some(rule) = bag.pick_best(settings.score) {
        let (pos, neg) = (rule.global_pos(), rule.global_neg());
        out.push((rule.clause, pos, neg));
    }
    out
}

/// The resident worker's idle loop: park between jobs with the adopted KB
/// loaded, run each [`Msg::SubmitJob`] on a pristine clone of it, return
/// to idle. `Stop` *at idle* is mesh shutdown (inside a job it merely ends
/// the job — the nested role loop consumes it); a closed master link at
/// idle is the [`WorkerExit::IdleDisconnect`] the worker binary maps to
/// its distinct exit code.
pub(crate) fn run_resident_worker<T: Transport>(
    ep: &mut Endpoint<T>,
    base: &mut KnowledgeBase,
) -> WorkerExit {
    let me = ep.rank();
    loop {
        let bytes = match ep.recv_from(0) {
            Ok(bytes) => bytes,
            Err(err) if matches!(err.fault, LinkFault::Closed) => {
                return WorkerExit::IdleDisconnect
            }
            Err(err) => std::panic::panic_any(CommFailure {
                rank: me,
                from: 0,
                expected: "a job-control frame".to_owned(),
                error: CommError::Closed(err),
            }),
        };
        let msg: Msg = match from_bytes(bytes) {
            Ok(msg) => msg,
            Err(error) => std::panic::panic_any(CommFailure {
                rank: me,
                from: 0,
                expected: "a job-control frame".to_owned(),
                error: CommError::Decode(error),
            }),
        };
        match msg {
            Msg::KbSnapshot(snap) => {
                let syms = base.symbols().clone();
                *base = KnowledgeBase::from_snapshot(*snap, syms)
                    .unwrap_or_else(|e| panic!("rank {me}: rejected KB snapshot: {e}"));
            }
            Msg::SubmitJob {
                id,
                config,
                pos,
                neg,
            } => run_submitted_job(ep, base, id, *config, pos, neg),
            // Advisory: the cancelled job never reached this rank.
            Msg::CancelJob { .. } => {}
            // Introspection: always answered, even with sampling and
            // tracing off — the endpoint facts in the snapshot are
            // maintained unconditionally.
            Msg::MetricsQuery => report_worker_metrics(ep),
            Msg::Stop => return WorkerExit::Finished,
            other => panic!("worker {me}: unexpected idle-loop message {other:?}"),
        }
    }
}

/// One job on a resident worker: accept, run the role's legacy protocol
/// loop on a pristine KB clone until the job's `Stop`, report the step
/// delta. Crate-visible so the remote bootstrap can run the job that
/// switched it into resident mode.
pub(crate) fn run_submitted_job<T: Transport>(
    ep: &mut Endpoint<T>,
    base: &KnowledgeBase,
    id: u64,
    config: WorkerConfig,
    pos: Vec<Literal>,
    neg: Vec<Literal>,
) {
    ep.send(0, &Msg::JobAccepted { id, queue_free: 0 });
    let steps0 = ep.compute_steps();
    // A pristine clone per job: `MarkCovered` asserts accepted rules into
    // the engine's KB, and those must die with the job.
    let engine = IlpEngine {
        kb: base.clone(),
        modes: config.modes,
        settings: config.settings,
    };
    let local = Examples::new(pos, neg);
    match config.role {
        WorkerRole::Pipeline { width, repartition } => {
            if config.strategy != Strategy::DataPipeline {
                // Strategy jobs replicate: `local` is the full example set.
                run_strategy_worker(
                    ep,
                    StrategyWorkerContext::new(
                        engine,
                        local,
                        width,
                        config.strategy,
                        config.strategy_seed,
                    ),
                );
            } else {
                let mut ctx = WorkerContext::new(engine, local, width);
                ctx.repartition = repartition;
                run_worker(ep, ctx);
            }
        }
        WorkerRole::Coverage => run_baseline_worker(ep, engine, local),
    }
    ep.send(
        0,
        &Msg::JobResult {
            id,
            steps: ep.compute_steps() - steps0,
        },
    );
}

// ---------------------------------------------------------------------------
// Ephemeral dispatch: the one-shot entry points as single-job services.
// ---------------------------------------------------------------------------

/// The id every ephemeral (single-job) dispatch uses.
pub(crate) const EPHEMERAL_JOB: JobId = JobId(1);

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

/// [`crate::driver::run_parallel`]'s in-process engine room: build a fresh
/// mesh, walk one learning job through the lifecycle using the legacy wire
/// framing, tear the mesh down. Bit-identical to the pre-service
/// implementation (same messages, same clocks, same traffic).
pub(crate) fn one_shot_parallel(
    engine: &IlpEngine,
    examples: &Examples,
    cfg: &ParallelConfig,
) -> Result<ParallelReport, ClusterError> {
    if cfg.strategy != Strategy::DataPipeline {
        return crate::strategy::one_shot_strategy(engine, examples, cfg);
    }
    let started = Instant::now();
    let mut job = Lifecycle::new(EPHEMERAL_JOB);
    job.advance(JobState::Dispatching);
    // Static mode partitions up front; repartition mode starts workers
    // empty (the master deals examples at every epoch). The recovering
    // master additionally needs the global-index map of the static deal.
    let (subsets, partition) = if cfg.repartition {
        (vec![Examples::default(); cfg.workers], None)
    } else {
        let (subsets, part) = partition_examples(examples, cfg.workers, cfg.seed);
        (subsets, Some(part))
    };
    // Simulated ranks run on real threads; split the physical cores among
    // them so each rank's coverage evaluation (see
    // `p2mdie_ilp::coverage::evaluate_rule_threads`) exploits its share
    // without oversubscribing the machine. An explicit `eval_threads` in
    // the caller's settings wins.
    let threads_per_rank = threads_per_worker(engine.settings.eval_threads, cfg.workers);
    let contexts: Vec<Mutex<Option<WorkerContext>>> = subsets
        .into_iter()
        .map(|local| {
            // With KB shipping the worker starts *empty* (the multi-process
            // deployment shape) and adopts the master's snapshot on its
            // first message; otherwise it clones the shared engine.
            let mut worker_engine = if cfg.ship_kb {
                engine.with_empty_kb()
            } else {
                engine.clone()
            };
            worker_engine.settings.eval_threads = threads_per_rank;
            let mut ctx = WorkerContext::new(worker_engine, local, cfg.width);
            ctx.repartition = cfg.repartition;
            Mutex::new(Some(ctx))
        })
        .collect();

    let settings = engine.settings.clone();
    let total_pos = examples.num_pos();

    fn take_ctx(contexts: &[Mutex<Option<WorkerContext>>], rank: usize) -> WorkerContext {
        contexts[rank - 1]
            .lock()
            .unwrap_or_else(|_| {
                panic!("rank {rank}: worker-context lock poisoned by an earlier panic")
            })
            .take()
            .expect("each worker context is taken exactly once")
    }

    job.advance(JobState::Running);
    let run = match &cfg.recovery {
        RecoveryPolicy::Abort => run_cluster(
            cfg.workers,
            cfg.model,
            |ep| {
                if cfg.ship_kb {
                    ship_kb(ep, &engine.kb);
                }
                if cfg.repartition {
                    run_master_repartition(ep, &settings, examples, cfg.seed)
                } else {
                    run_master(ep, &settings, total_pos)
                }
            },
            |ep| run_worker(ep, take_ctx(&contexts, ep.rank())),
        ),
        RecoveryPolicy::Repartition { max_rank_losses } => {
            for (rank, _) in &cfg.chaos {
                assert!(
                    (1..=cfg.workers).contains(rank),
                    "chaos injection targets a worker rank (got {rank})"
                );
            }
            run_cluster_with(
                cfg.workers,
                cfg.model,
                true,
                |rank, t| {
                    let chaos = cfg
                        .chaos
                        .iter()
                        .find(|(target, _)| *target == rank)
                        .map(|(_, c)| c.clone());
                    maybe_chaos(t, chaos)
                },
                |ep| {
                    if cfg.ship_kb {
                        ship_kb(ep, &engine.kb);
                    }
                    run_master_recovering(
                        ep,
                        &settings,
                        examples,
                        partition.as_ref(),
                        cfg.seed,
                        *max_rank_losses,
                    )
                },
                |ep| run_worker(ep, take_ctx(&contexts, ep.rank())),
            )
        }
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            job.advance(JobState::Failed);
            return Err(e);
        }
    };

    job.advance(JobState::Draining);
    let master = outcome.result;
    let report = ParallelReport {
        workers: cfg.workers,
        theory: master.theory,
        epochs: master.epochs,
        set_aside: master.set_aside,
        vtime: outcome.master_vtime,
        worker_vtimes: outcome.worker_vtimes,
        total_bytes: outcome.stats.total_bytes(),
        total_messages: outcome.stats.total_messages(),
        worker_steps: outcome.worker_steps,
        dropped_sends: outcome.dropped_sends,
        wall: started.elapsed(),
        traces: master.traces,
        stalled: master.stalled,
        rank_losses: master.rank_losses,
        recovery_bytes: outcome.stats.recovery_bytes(),
        recovery_messages: outcome.stats.recovery_messages(),
        constraint_bytes: outcome.stats.constraint_bytes(),
        constraint_messages: outcome.stats.constraint_messages(),
    };
    warn_rank_losses(&report.rank_losses, report.vtime);
    job.advance(JobState::Done);
    Ok(report)
}

/// [`crate::baselines::run_coverage_parallel_opts`]'s engine room: one
/// baseline learning job on a fresh ephemeral mesh, legacy framing.
pub(crate) fn one_shot_coverage(
    engine: &IlpEngine,
    examples: &Examples,
    workers: usize,
    granularity: EvalGranularity,
    model: CostModel,
    seed: u64,
    ship: bool,
) -> Result<BaselineReport, ClusterError> {
    let started = Instant::now();
    let mut job = Lifecycle::new(EPHEMERAL_JOB);
    job.advance(JobState::Dispatching);
    let (subsets, partition) = partition_examples(examples, workers, seed);
    let threads_per_rank = threads_per_worker(engine.settings.eval_threads, workers);
    let contexts: Vec<Mutex<Option<(IlpEngine, Examples)>>> = subsets
        .into_iter()
        .map(|local| {
            let mut worker_engine = if ship {
                engine.with_empty_kb()
            } else {
                engine.clone()
            };
            worker_engine.settings.eval_threads = threads_per_rank;
            Mutex::new(Some((worker_engine, local)))
        })
        .collect();

    job.advance(JobState::Running);
    let run = run_cluster(
        workers,
        model,
        |ep| {
            if ship {
                ship_kb(ep, &engine.kb);
            }
            baseline_master(ep, engine, examples, &partition, granularity)
        },
        |ep| {
            let (eng, local) = contexts[ep.rank() - 1]
                .lock()
                .unwrap_or_else(|_| {
                    panic!(
                        "rank {}: worker-context lock poisoned by an earlier panic",
                        ep.rank()
                    )
                })
                .take()
                .expect("taken once");
            run_baseline_worker(ep, eng, local);
        },
    );
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            job.advance(JobState::Failed);
            return Err(e);
        }
    };

    job.advance(JobState::Draining);
    let (theory, epochs, set_aside) = outcome.result;
    let report = BaselineReport {
        theory,
        epochs,
        set_aside,
        vtime: outcome.master_vtime,
        total_bytes: outcome.stats.total_bytes(),
        total_messages: outcome.stats.total_messages(),
        dropped_sends: outcome.dropped_sends,
        wall: started.elapsed(),
    };
    job.advance(JobState::Done);
    Ok(report)
}

/// [`crate::remote::run_parallel_tcp`]'s engine room: one learning job on
/// a fresh mesh of worker OS processes, legacy bootstrap framing.
pub(crate) fn one_shot_parallel_tcp(
    engine: &IlpEngine,
    examples: &Examples,
    cfg: &ParallelConfig,
    tcp: &TcpConfig,
) -> Result<ParallelReport, ClusterError> {
    if cfg.strategy != Strategy::DataPipeline {
        return crate::strategy::one_shot_strategy_tcp(engine, examples, cfg, tcp);
    }
    let started = Instant::now();
    let mut job = Lifecycle::new(EPHEMERAL_JOB);
    job.advance(JobState::Dispatching);
    let bin = tcp.resolve_worker_bin()?;
    let (subsets, partition) = if cfg.repartition {
        (vec![Examples::default(); cfg.workers], None)
    } else {
        let (subsets, part) = partition_examples(examples, cfg.workers, cfg.seed);
        (subsets, Some(part))
    };
    let mut worker_settings = engine.settings.clone();
    worker_settings.eval_threads = threads_per_worker(engine.settings.eval_threads, cfg.workers);
    let config = WorkerConfig {
        role: WorkerRole::Pipeline {
            width: cfg.width,
            repartition: cfg.repartition,
        },
        modes: engine.modes.clone(),
        settings: worker_settings,
        strategy: Strategy::DataPipeline,
        strategy_seed: cfg.seed,
    };
    let settings = engine.settings.clone();
    let total_pos = examples.num_pos();

    job.advance(JobState::Running);
    let run = run_cluster_tcp(
        cfg.workers,
        cfg.model,
        tcp.timeout,
        |rank, addr| spawn_worker(&bin, rank, addr, tcp),
        |ep| {
            bootstrap_workers(ep, engine, &config, &subsets);
            match &cfg.recovery {
                RecoveryPolicy::Abort => {
                    if cfg.repartition {
                        run_master_repartition(ep, &settings, examples, cfg.seed)
                    } else {
                        run_master(ep, &settings, total_pos)
                    }
                }
                RecoveryPolicy::Repartition { max_rank_losses } => run_master_recovering(
                    ep,
                    &settings,
                    examples,
                    partition.as_ref(),
                    cfg.seed,
                    *max_rank_losses,
                ),
            }
        },
    );
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            job.advance(JobState::Failed);
            return Err(e);
        }
    };

    job.advance(JobState::Draining);
    let master = outcome.result;
    let report = ParallelReport {
        workers: cfg.workers,
        theory: master.theory,
        epochs: master.epochs,
        set_aside: master.set_aside,
        vtime: outcome.master_vtime,
        worker_vtimes: outcome.worker_vtimes,
        total_bytes: outcome.stats.total_bytes(),
        total_messages: outcome.stats.total_messages(),
        worker_steps: outcome.worker_steps,
        dropped_sends: outcome.dropped_sends,
        wall: started.elapsed(),
        traces: master.traces,
        stalled: master.stalled,
        rank_losses: master.rank_losses,
        recovery_bytes: outcome.stats.recovery_bytes(),
        recovery_messages: outcome.stats.recovery_messages(),
        constraint_bytes: outcome.stats.constraint_bytes(),
        constraint_messages: outcome.stats.constraint_messages(),
    };
    warn_rank_losses(&report.rank_losses, report.vtime);
    job.advance(JobState::Done);
    Ok(report)
}

/// [`crate::remote::run_coverage_parallel_tcp`]'s engine room.
pub(crate) fn one_shot_coverage_tcp(
    engine: &IlpEngine,
    examples: &Examples,
    workers: usize,
    granularity: EvalGranularity,
    model: CostModel,
    seed: u64,
    tcp: &TcpConfig,
) -> Result<BaselineReport, ClusterError> {
    let started = Instant::now();
    let mut job = Lifecycle::new(EPHEMERAL_JOB);
    job.advance(JobState::Dispatching);
    let bin = tcp.resolve_worker_bin()?;
    let (subsets, partition) = partition_examples(examples, workers, seed);
    let mut worker_settings = engine.settings.clone();
    worker_settings.eval_threads = threads_per_worker(engine.settings.eval_threads, workers);

    job.advance(JobState::Running);
    let run = run_cluster_tcp(
        workers,
        model,
        tcp.timeout,
        |rank, addr| spawn_worker(&bin, rank, addr, tcp),
        |ep| {
            bootstrap_workers(
                ep,
                engine,
                &WorkerConfig {
                    role: WorkerRole::Coverage,
                    modes: engine.modes.clone(),
                    settings: worker_settings.clone(),
                    strategy: Strategy::DataPipeline,
                    strategy_seed: seed,
                },
                &subsets,
            );
            baseline_master(ep, engine, examples, &partition, granularity)
        },
    );
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            job.advance(JobState::Failed);
            return Err(e);
        }
    };

    job.advance(JobState::Draining);
    let (theory, epochs, set_aside) = outcome.result;
    let report = BaselineReport {
        theory,
        epochs,
        set_aside,
        vtime: outcome.master_vtime,
        total_bytes: outcome.stats.total_bytes(),
        total_messages: outcome.stats.total_messages(),
        dropped_sends: outcome.dropped_sends,
        wall: started.elapsed(),
    };
    job.advance(JobState::Done);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_ilp::modes::ModeSet;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// Multiples of 6 among 1..=n, with even/div3 background.
    fn problem(n: i64) -> (IlpEngine, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=n {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(t.intern("even"), vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(t.intern("div3"), vec![Term::Int(i)]));
            }
        }
        let modes =
            ModeSet::parse(&t, "div6(+num)", &[(1, "even(+num)"), (1, "div3(+num)")]).unwrap();
        let tgt = t.intern("div6");
        let ex = Examples::new(
            (1..=n)
                .filter(|i| i % 6 == 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
            (1..=n)
                .filter(|i| i % 6 != 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
        );
        let engine = IlpEngine::new(
            kb,
            modes,
            Settings {
                min_pos: 1,
                noise: 0,
                ..Settings::default()
            },
        );
        (engine, ex)
    }

    fn free_service(engine: &IlpEngine, workers: usize) -> Service {
        Service::new(
            engine,
            ServiceConfig::new(workers).with_model(CostModel::free()),
        )
    }

    #[test]
    fn coverage_job_counts_match_direct_evaluation() {
        let (engine, ex) = problem(60);
        let rep = crate::driver::run_parallel(
            &engine,
            &ex,
            &crate::driver::ParallelConfig::new(2, p2mdie_ilp::settings::Width::Unlimited, 42),
        )
        .unwrap();
        let rules = rep.clauses();
        assert!(!rules.is_empty());

        let service = free_service(&engine, 2);
        let outcome = service
            .submit(JobSpec::coverage(ex.clone(), rules.clone()))
            .unwrap()
            .wait();
        assert_eq!(outcome.state, JobState::Done);
        for (rule, counts) in rules.iter().zip(outcome.coverage()) {
            let cov = engine.evaluate(rule, &ex, None, None);
            assert_eq!(
                (cov.pos_count(), cov.neg_count()),
                *counts,
                "partitioned counts must sum to the global ones"
            );
        }
        assert!(outcome.accounting.bytes > 0);
        assert!(outcome.accounting.messages > 0);
        assert_eq!(outcome.accounting.worker_steps.len(), 2);
        let report = service.shutdown().unwrap();
        assert_eq!(report.jobs_run, 1);
        assert!(
            report.total_bytes > outcome.accounting.bytes,
            "the KB ship is mesh overhead, not job cost"
        );
    }

    #[test]
    fn learn_job_matches_one_shot_run() {
        let (engine, ex) = problem(90);
        let one_shot = crate::driver::run_parallel(
            &engine,
            &ex,
            &crate::driver::ParallelConfig::new(2, p2mdie_ilp::settings::Width::Unlimited, 7),
        )
        .unwrap();

        let service = free_service(&engine, 2);
        let outcome = service
            .submit(JobSpec::learn(ex.clone()).with_seed(7))
            .unwrap()
            .wait();
        assert_eq!(outcome.state, JobState::Done);
        let learned = outcome.learned();
        assert_eq!(
            learned.theory, one_shot.theory,
            "a resident learn job must induce the one-shot theory"
        );
        assert_eq!(learned.epochs, one_shot.epochs);
        assert_eq!(
            outcome.accounting.worker_steps, one_shot.worker_steps,
            "per-job worker steps must match the fresh-mesh run"
        );
        service.shutdown().unwrap();
    }

    #[test]
    fn rule_search_job_returns_a_scored_bag() {
        let (engine, ex) = problem(60);
        let service = free_service(&engine, 2);
        let outcome = service
            .submit(JobSpec::rule_search(ex.clone()).with_seed(3))
            .unwrap()
            .wait();
        assert_eq!(outcome.state, JobState::Done);
        let Some(JobOutput::Rules(rules)) = &outcome.output else {
            panic!("expected a rule bag, got {:?}", outcome.output);
        };
        assert!(!rules.is_empty());
        // Best-first: the top rule covers every positive, no negative.
        let (best, pos, neg) = &rules[0];
        let cov = engine.evaluate(best, &ex, None, None);
        assert_eq!((cov.pos_count(), cov.neg_count()), (*pos, *neg));
        assert_eq!(*neg, 0);
        service.shutdown().unwrap();
    }

    #[test]
    fn fairness_runs_a_coverage_query_before_queued_learns() {
        let (engine, ex) = problem(90);
        let rule = {
            let rep = crate::driver::run_parallel(
                &engine,
                &ex,
                &crate::driver::ParallelConfig::new(2, p2mdie_ilp::settings::Width::Unlimited, 42),
            )
            .unwrap();
            rep.clauses()[0].clone()
        };
        let service = free_service(&engine, 2);
        // Three learning runs queued first, then a coverage query. With one
        // FIFO it would wait behind all three; class round-robin runs it
        // second.
        let learns: Vec<JobHandle> = (0..3)
            .map(|i| {
                service
                    .submit(JobSpec::learn(ex.clone()).with_seed(i))
                    .unwrap()
            })
            .collect();
        let query = service
            .submit(JobSpec::coverage(ex.clone(), vec![rule]))
            .unwrap();
        let query_id = query.id();
        let outcome = query.wait();
        assert_eq!(outcome.state, JobState::Done);
        // All jobs still finish.
        for handle in learns {
            assert_eq!(handle.wait().state, JobState::Done);
        }
        let report = service.shutdown().unwrap();
        assert_eq!(report.jobs_run, 4);
        assert_eq!(query_id, JobId(4));
    }

    #[test]
    fn backpressure_rejects_when_the_queue_is_full() {
        let (engine, ex) = problem(90);
        let service = Service::new(
            &engine,
            ServiceConfig::new(1)
                .with_model(CostModel::free())
                .with_queue_cap(1),
        );
        // Saturate: the scheduler may have dequeued some, so keep pushing
        // until a submission bounces.
        let mut handles = Vec::new();
        let mut saw_backpressure = false;
        for i in 0..64 {
            match service.submit(JobSpec::learn(ex.clone()).with_seed(i)) {
                Ok(h) => handles.push(h),
                Err(SubmitError::Backpressure) => {
                    saw_backpressure = true;
                    break;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(
            saw_backpressure,
            "a capacity-1 queue must bounce a burst of submissions"
        );
        for h in handles {
            assert_eq!(h.wait().state, JobState::Done);
        }
        service.shutdown().unwrap();
    }

    #[test]
    fn cancelled_job_fails_cleanly_and_skips_dispatch() {
        let (engine, ex) = problem(90);
        let service = free_service(&engine, 2);
        // Park a learn in front so the victim is still queued when the
        // cancellation lands.
        let first = service
            .submit(JobSpec::learn(ex.clone()).with_seed(1))
            .unwrap();
        let victim = service
            .submit(JobSpec::learn(ex.clone()).with_seed(2))
            .unwrap();
        victim.cancel();
        let outcome = victim.wait();
        assert_eq!(outcome.state, JobState::Failed);
        assert!(outcome.error.as_deref().unwrap().contains("cancelled"));
        assert!(outcome.output.is_none());
        assert_eq!(first.wait().state, JobState::Done);
        let report = service.shutdown().unwrap();
        assert_eq!(report.jobs_run, 1, "the cancelled job must not dispatch");
    }

    #[test]
    fn submit_after_shutdown_reports_service_down() {
        let (engine, _ex) = problem(30);
        let service = free_service(&engine, 1);
        let tx = service.tx.clone();
        service.shutdown().unwrap();
        // The original channel is gone; a clone of the sender sees the
        // disconnect the way a late `submit` would.
        assert!(tx.send(Request::Shutdown).is_err());
    }

    /// A master that vanishes while the worker sits idle between jobs must
    /// surface as [`WorkerExit::IdleDisconnect`] — the signal the
    /// `p2mdie-worker` binary maps to its distinct exit code — not as a
    /// panic or a hang. Driven on a raw two-rank mesh with the runtime's
    /// own death-notification mechanism (`DownHandle`, what the supervisor
    /// injects when a rank's thread dies, and the in-process analogue of a
    /// broken TCP stream), because `run_cluster` keeps the master endpoint
    /// alive until the workers join and a full mesh's channels never close
    /// on their own.
    #[test]
    fn resident_worker_reports_idle_disconnect_when_the_master_vanishes() {
        use p2mdie_cluster::{MeshTransport, TrafficStats};
        let (engine, _ex) = problem(30);
        let mut meshes = MeshTransport::mesh(2);
        let worker_t = meshes.pop().expect("rank 1");
        let master_t = meshes.pop().expect("rank 0");
        let master_down = master_t.down_handle(1);
        let stats = TrafficStats::new(2);
        let mut master_ep = Endpoint::from_parts(0, 2, master_t, CostModel::free(), stats.clone());
        let kb = engine.kb.clone();
        let handle = std::thread::spawn(move || {
            let mut ep = Endpoint::from_parts(1, 2, worker_t, CostModel::free(), stats);
            let mut base = kb;
            run_resident_worker(&mut ep, &mut base)
        });
        // An advisory frame the idle loop ignores, then the master is gone:
        // its endpoint drops and the supervisor notifies the worker.
        master_ep.broadcast(&Msg::CancelJob { id: 1 });
        drop(master_ep);
        assert!(master_down.notify(0), "worker must still be receiving");
        assert_eq!(
            handle.join().expect("worker thread"),
            WorkerExit::IdleDisconnect,
            "an idle worker must classify a vanished master as IdleDisconnect"
        );
    }

    #[test]
    fn per_job_accounting_splits_the_mesh_totals() {
        let (engine, ex) = problem(90);
        // The free cost model would leave every clock at zero; price the
        // mesh so the per-job vtime deltas are observable.
        let service = Service::new(&engine, ServiceConfig::new(2));
        let a = service
            .submit(JobSpec::learn(ex.clone()).with_seed(1))
            .unwrap()
            .wait();
        let b = service
            .submit(JobSpec::learn(ex.clone()).with_seed(2))
            .unwrap()
            .wait();
        let report = service.shutdown().unwrap();
        let job_bytes = a.accounting.bytes + b.accounting.bytes;
        assert!(job_bytes > 0);
        assert!(
            report.total_bytes > job_bytes,
            "mesh totals also carry the KB ship and shutdown framing"
        );
        assert!(a.accounting.vtime > 0.0 && b.accounting.vtime > 0.0);
        assert!(
            report.master_vtime >= a.accounting.vtime + b.accounting.vtime,
            "per-job clock deltas cannot exceed the mesh clock"
        );
    }
}
