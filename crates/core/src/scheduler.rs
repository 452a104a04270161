//! ILP-as-a-service: a resident cluster that runs many [`JobSpec`]s over
//! one standing mesh.
//!
//! # The resident service
//!
//! [`Service::new`] builds the mesh **once** — spawn the ranks, ship the
//! compiled KB snapshot once — and keeps the workers resident: between
//! jobs each worker parks in an idle loop (`run_resident_worker`) with
//! the adopted KB still loaded. The expensive part of a cold start — mesh
//! construction and the KB transfer — is paid once per service instead of
//! once per run. The same loop serves a TCP mesh of real `p2mdie-worker`
//! processes ([`Service::new_tcp`]): a worker process adopts the snapshot
//! and then runs the identical resident loop
//! ([`crate::remote::run_remote_worker`]).
//!
//! # What a rank keeps
//!
//! The paper's premise (Figs. 5–7) is that example partitions live on the
//! workers and only rules move, and a resident rank holds to it across
//! jobs. It keeps three things, none of them configurable:
//!
//! * **The base KB.** A job runs on it, moved in and handed back, not on a
//!   copy. Accepted rules assert into it (`MarkCovered`) and must die with
//!   the job, so the worker loop marks where the rules stood at the job's
//!   first assert and, at the job's `Stop`, undoes every assert since — the
//!   rules and the predicate entries they created. Nothing is copied, and
//!   concurrent clients still cannot contaminate each other's background
//!   theory (any interleaving of submissions is bit-identical to each job
//!   run alone on a fresh mesh, pinned by `crates/core/tests/service.rs`).
//! * **The example subset of its last job.** [`Msg::SubmitJob`] carries the
//!   subset only when the rank does not hold it. The master keeps no
//!   subsets, only what the ranks were dealt *from*: the last job's whole
//!   set (a shared [`Examples`], so keeping it copies nothing), the number
//!   of ranks and how it was dealt — statically with its seed and
//!   partition, or replicated. The next job's set is compared with it
//!   whole: the **same allocation** first, at once, then **by value**. When
//!   it matches and is dealt the same way, every rank holds its subset: the
//!   kept partition serves, nothing is dealt or shipped, and every rank's
//!   frame is the same — role, bias and settings only, encoded once. Any
//!   other job is dealt afresh and ships *every* rank its subset, built for
//!   the frame and gone with it, and what is kept becomes this job's. One
//!   set and an exact comparison — no content hash to collide, no LRU, no
//!   count — because no caller alternates sets (a count is a private
//!   constant to add when a workload does), and memory stays bounded by
//!   construction. Both ends forget the set when a job may have replaced it
//!   on the rank (a re-dealing job's `NewPartition`, which no later job
//!   matches; a recovery's `AdoptExamples`, on a one-shot mesh with no later
//!   job) or ended in failure; the first job of a mesh always ships. A
//!   frame naming a set on a rank that holds none fails that rank with a
//!   typed error.
//! * **The coverage memo** (`p2mdie_ilp::CoverageMemo`, 128 KiB): every
//!   search and every `Evaluate` / `MarkCovered` / `ReplayTheory` of every
//!   job on the rank goes through it, so the hundredth query of a clause on
//!   the same examples proves nothing. Its validity rule is literal at the
//!   job boundary: cleared when a subset is shipped, when the job's
//!   `ProofLimits` differ from the previous job's, on a new KB snapshot,
//!   and at the end of a job that asserted a rule candidate bodies can call
//!   (what was stored since saw `B ∪ {R}`). Asserts no body can call — every
//!   dataset here — leave it valid, so a second learning run on the same
//!   examples is served as well.
//!
//! Results never depend on what a rank kept: every [`JobOutput`] and every
//! step count of a [`JobAccounting`] equals what a fresh one-job service
//! returns (steps are charged as if proved). Only a job's `bytes` and
//! `vtime` say whether its subset was already there — which is the point.
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
//! 2. **Master → worker**: a worker runs one job at a time, and the
//!    [`Msg::JobResult`] drain is the contract: the master never sends a
//!    rank another [`Msg::SubmitJob`] before that job's `JobResult`
//!    drained. Nothing acknowledges a submission — the job's own frames
//!    follow it on the same link at once — so a job costs one round trip
//!    per rank, not three. Dispatch is serialized over the mesh;
//!    concurrency lives in the queue, not in interleaved wire traffic.
//!
//! Cancellation is advisory and queue-side: [`JobHandle::cancel`] marks
//! the id and the scheduler fails the job at dequeue time, before any
//! dispatch — nothing travels over the mesh. A job already on the mesh
//! runs to completion; a cancel that arrives too late only has its mark
//! consumed.
//!
//! # Introspection
//!
//! [`Service::metrics`] is the metrics readout: the scheduler broadcasts
//! the protocol-v6 [`Msg::MetricsQuery`] between jobs (when every worker is
//! idle) and each rank answers [`Msg::MetricsReport`] with a
//! [`MetricsSnapshot`] built from its endpoint state, its coverage memo,
//! and the prover hot counters. The same dump is taken once more right
//! before shutdown and returned in [`ServiceReport::worker_metrics`]. Job
//! lifecycle transitions emit `job_state` trace events onto the flight
//! recorder's timeline; the scheduler keeps no metrics of its own.
//!
//! # One-shot runs
//!
//! [`crate::driver::run_parallel`] and the coverage-parallel baseline
//! ([`crate::baselines::run_coverage_parallel`]), over either transport,
//! are one job each, which does not queue here: each builds its
//! [`JobSpec`] and runs it with `dispatch_job` on a fresh mesh,
//! opened by `crate::driver::open_mesh` — the function a [`Service`] stands
//! on too, over either transport — and stopped at idle afterwards. So a
//! one-shot run is a service job from the bootstrap on (KB shipped or
//! shared, `SubmitJob`, the master function, the resident worker, the
//! `JobResult` drain), its result bit-identical to the same job on a
//! service (pinned by `crates/core/tests/service.rs`), and over TCP equal
//! to its in-process twin to the byte and the tick (pinned by
//! `crates/core/tests/tcp_cluster.rs`). What a one-shot run adds is its
//! own: the `RecoveryPolicy` it hands `dispatch_job` (a service passes
//! `Abort`) and the chaos of its mesh. Its three job-control frames per
//! rank — `SubmitJob`, `JobResult`, the idle `Stop` — are charged on the
//! virtual clock like any frame, but tallied apart at the master's end of
//! each (`TrafficStats::record_control`) and left out of the report's
//! totals, which are Table 4's.

use crate::baselines::baseline_master;
use crate::driver::{
    open_mesh, worker_config, MeshMaster, ParallelConfig, RecoveryPolicy, TransportKind,
};
use crate::job::{JobId, JobKind, JobOutcome, JobOutput, JobSpec, JobState, JOB_CLASSES};
use crate::master::{evaluate_all, run_master, run_search_epoch, Dealing, Dealt};
use crate::protocol::{Msg, WorkerConfig, WorkerRole};
use crate::remote::{TcpConfig, WorkerExit};
use crate::report::JobAccounting;
use crate::strategy::Strategy;
use crate::worker::{restore_kb, run_role};
use bytes::Bytes;
use p2mdie_cluster::codec::{from_bytes, to_bytes};
use p2mdie_cluster::comm::{CommError, CommFailure, Endpoint, LinkFault};
use p2mdie_cluster::panic_message;
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::{ClusterError, CostModel};
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::Width;
use p2mdie_ilp::CoverageMemo;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_obs::{event, metrics, MetricEntry, MetricValue, MetricsSnapshot};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

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
            // invariant: no holder of this lock runs code that can panic.
            .expect("cancellation set lock poisoned")
            .insert(self.id.0);
    }

    /// Blocks until the job reaches a terminal state. A service that dies
    /// (mesh failure or shutdown) before the job finishes yields a
    /// `Failed` outcome rather than a hang.
    pub fn wait(self) -> JobOutcome {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| {
            JobOutcome::failed(id, "service terminated before the job finished")
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
        Service::start(engine, cfg, TransportKind::InProcess)
    }

    /// Builds a resident mesh of real `p2mdie-worker` OS processes over
    /// localhost TCP. The KB is always shipped (worker processes have no
    /// shared memory to inherit it from).
    ///
    /// The worker processes record trace events only if a trace session is
    /// active as the mesh forms: start it before this call and keep it
    /// open. Their records reach that session at [`Service::shutdown`],
    /// when each worker's shutdown report arrives.
    pub fn new_tcp(engine: &IlpEngine, cfg: ServiceConfig, tcp: &TcpConfig) -> Self {
        Service::start(engine, cfg, TransportKind::Tcp(tcp.clone()))
    }

    fn start(engine: &IlpEngine, cfg: ServiceConfig, transport: TransportKind) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Request>(cfg.queue_cap.max(1));
        let cancelled = Arc::new(Mutex::new(HashSet::new()));
        let scheduler = Scheduler {
            rx,
            cancelled: Arc::clone(&cancelled),
        };
        let engine = engine.clone();
        // The mesh settings of a run's configuration: no chaos, no recovery.
        let mesh = ParallelConfig {
            model: cfg.model,
            ship_kb: cfg.ship_kb,
            transport,
            ..ParallelConfig::new(cfg.workers, Width::Unlimited, 0)
        };
        let handle = std::thread::spawn(move || -> Result<ServiceReport, ClusterError> {
            let outcome = open_mesh(&engine, &mesh, scheduler)?;
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
            Err(mpsc::TrySendError::Full(_)) => Err(SubmitError::Backpressure),
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
                message: format!("service thread panicked: {}", panic_message(&*payload)),
            })
        })
    }
}

/// The master side of the resident service: refill the class queues from
/// the submission channel, round-robin across classes, dispatch one job at
/// a time, return when told to shut down and the queues are dry. Its output
/// is the dispatch count and the shutdown metrics dump.
struct Scheduler {
    rx: mpsc::Receiver<Request>,
    cancelled: Arc<Mutex<HashSet<u64>>>,
}

impl MeshMaster for Scheduler {
    type Out = (u32, Vec<MetricsSnapshot>);

    fn run<T: Transport>(
        self,
        ep: &mut Endpoint<T>,
        engine: &IlpEngine,
        cores: usize,
    ) -> Result<Self::Out, CommFailure> {
        let mut queues: Vec<VecDeque<QueuedJob>> =
            (0..JOB_CLASSES).map(|_| VecDeque::new()).collect();
        let mut next_class = 0usize;
        let mut jobs_run = 0u32;
        let mut open = true;
        // What the ranks were dealt from by the last job (see "What a rank
        // keeps" in the module docs); dropped with this loop if a job fails.
        let mut kept = None;
        'serve: loop {
            // Refill: drain everything already submitted without blocking;
            // block only when there is nothing to run.
            loop {
                let pending: usize = queues.iter().map(VecDeque::len).sum();
                if !open && pending == 0 {
                    break 'serve;
                }
                let req = if pending == 0 {
                    match self.rx.recv() {
                        Ok(req) => req,
                        Err(_) => {
                            open = false;
                            continue;
                        }
                    }
                } else {
                    match self.rx.try_recv() {
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
                        job_state(ep, job.id, "queued");
                        queues[job.spec.kind.class()].push_back(job);
                    }
                    Request::Metrics(reply) => {
                        // Served here, between jobs, so every worker is parked
                        // in its idle loop and the query cannot interleave
                        // with a job's own frames.
                        let _ = reply.send(collect_worker_metrics(ep)?);
                    }
                    Request::Shutdown => open = false,
                }
            }

            // FIFO within a class, round-robin across non-empty classes.
            let class = (0..JOB_CLASSES)
                .map(|i| (next_class + i) % JOB_CLASSES)
                .find(|&c| !queues[c].is_empty())
                // invariant: the refill loop only falls through with work pending.
                .expect("a class with a queued job");
            next_class = (class + 1) % JOB_CLASSES;
            // invariant: `class` was picked for its non-empty queue.
            let job = queues[class].pop_front().expect("class just checked");

            let was_cancelled = self
                .cancelled
                .lock()
                .map(|mut set| set.remove(&job.id.0))
                .unwrap_or(false);
            let outcome = if was_cancelled {
                job_state(ep, job.id, "failed");
                JobOutcome::failed(job.id, "cancelled before dispatch")
            } else {
                jobs_run += 1;
                let abort = &RecoveryPolicy::Abort;
                let (id, spec) = (job.id, &job.spec);
                let (output, accounting) =
                    match dispatch_job(ep, engine, cores, id, spec, &mut kept, abort) {
                        Ok(done) => done,
                        // The mesh goes down with the job; its handle hears why.
                        Err(failure) => {
                            let _ = job
                                .reply
                                .send(JobOutcome::failed(job.id, failure.to_string()));
                            return Err(failure);
                        }
                    };
                // A cancel that raced the running job arrived too late to stop
                // it — the job completed legally. Consume the mark so it can
                // never leak onto a later dequeue pass.
                if let Ok(mut set) = self.cancelled.lock() {
                    set.remove(&job.id.0);
                }
                JobOutcome {
                    id: job.id,
                    state: JobState::Done,
                    output: Some(output),
                    error: None,
                    accounting,
                }
            };
            // A dropped handle is fine; the job still ran to completion.
            let _ = job.reply.send(outcome);
        }
        // The shutdown metrics dump: one last introspection round while the
        // mesh is still up, returned through [`ServiceReport`].
        Ok((jobs_run, collect_worker_metrics(ep)?))
    }
}

/// One introspection round: broadcast [`Msg::MetricsQuery`] to every
/// (idle) worker and gather the [`Msg::MetricsReport`]s in rank order.
pub(crate) fn collect_worker_metrics<T: Transport>(
    ep: &mut Endpoint<T>,
) -> Result<Vec<MetricsSnapshot>, CommFailure> {
    let p = ep.workers();
    ep.broadcast(&Msg::MetricsQuery);
    let report = |k| {
        Msg::expect(ep, k, "a MetricsReport", |msg| match msg {
            Msg::MetricsReport { snapshot } => Ok(snapshot),
            _ => Err("reply to MetricsQuery: not a MetricsReport"),
        })
    };
    (1..=p).map(report).collect()
}

/// A worker's answer to [`Msg::MetricsQuery`]: endpoint-level facts that
/// are always valid (virtual clock, inference steps, this rank's send
/// totals), what the rank's resident `memo` holds and did (its accounted
/// bytes and record count; the rules and search nodes it answered without a
/// proof, by a difference proof and by a full one; the entries it evicted
/// and the results it had no room for; and the inference steps its proofs
/// really ran — `worker_inference_steps_total` is what was *charged*), and
/// the process-wide prover hot counters. The endpoint facts make the snapshot
/// consistent with [`crate::report::JobAccounting`] deltas whether or not
/// sampling is on. In-process meshes share one address space, so the prover
/// hot counters repeat across ranks there; over TCP they are genuinely
/// per-worker.
fn worker_metrics_snapshot<T: Transport>(ep: &Endpoint<T>, memo: &CoverageMemo) -> MetricsSnapshot {
    let (bytes, msgs) = sent(ep);
    let entry = |name: &str, value| MetricEntry {
        name: name.to_owned(),
        value,
    };
    let counter = |name, n| entry(name, MetricValue::Counter(n));
    let gauge = |name, x| entry(name, MetricValue::Gauge(x));
    let memo_did = memo.stats();
    let mut entries = vec![
        gauge("worker_vtime_seconds", ep.now()),
        counter("worker_inference_steps_total", ep.compute_steps()),
        counter("worker_sent_bytes_total", bytes),
        counter("worker_sent_messages_total", msgs),
        gauge("worker_memo_bytes", memo.bytes() as f64),
        gauge("worker_memo_records", memo.records() as f64),
        counter("worker_memo_served_total", memo_did.served),
        counter("worker_memo_partial_total", memo_did.partial),
        counter("worker_memo_proved_total", memo_did.proved),
        counter("worker_memo_evicted_total", memo_did.evicted),
        counter("worker_memo_unstored_total", memo_did.unstored),
        counter("worker_steps_run_total", memo_did.steps_run),
    ];
    entries.extend(metrics::hot::entries());
    MetricsSnapshot::from_entries(entries)
}

/// The bytes and messages this endpoint's rank has sent so far, on every
/// link. Only the rank's own sends: over TCP its statistics hold nothing
/// else, and in process they hold every rank's.
fn sent<T: Transport>(ep: &Endpoint<T>) -> (u64, u64) {
    ep.stats()
        .send_row(ep.rank())
        .iter()
        .fold((0, 0), |(b, m), (rb, rm, _)| (b + rb, m + rm))
}

/// Runs one job over the resident mesh: per-rank [`Msg::SubmitJob`], the
/// kind's master protocol right behind it (which ends with the job's own
/// `Stop`, returning every worker to the idle loop), drain the
/// [`Msg::JobResult`]s, and account the deltas. Nothing acknowledges a
/// submission: the `JobResult` is the job's only acknowledgement, and a
/// rank that refused its `SubmitJob` fails the job at the master's next
/// receive from it. A job whose settings leave `eval_threads` at 0 splits
/// `cores` — the machine's core count, read once per mesh — among its
/// ranks. `kept` is what the ranks were dealt from: by the previous job
/// going in, by this one coming out. A learning job meets a rank's death as `recovery` says, and its
/// workers arm their side of the recovery protocol for the whole job unless
/// it is [`RecoveryPolicy::Abort`]. The job's `job_state` events mark each
/// phase.
pub(crate) fn dispatch_job<T: Transport>(
    ep: &mut Endpoint<T>,
    engine: &IlpEngine,
    cores: usize,
    id: JobId,
    spec: &JobSpec,
    kept: &mut Option<Dealt>,
    recovery: &RecoveryPolicy,
) -> Result<(JobOutput, JobAccounting), CommFailure> {
    let p = ep.workers();
    let examples = &spec.examples;
    let (t0, steps0, (bytes0, messages0)) = (ep.now(), ep.compute_steps(), sent(ep));

    job_state(ep, id, "dispatching");
    let settings = spec
        .settings
        .clone()
        .unwrap_or_else(|| engine.settings.clone());
    // Strategies apply to full learning runs only: a `RuleSearch` job's
    // global scoring sums per-rank counts (which full replication would
    // multiply by `p`) over one epoch (which nothing re-deals), and
    // coverage/baseline jobs have no search to parallelize differently nor
    // epochs to re-deal. Every other kind is dealt statically.
    let strategy = match &spec.kind {
        JobKind::Learn => spec.strategy,
        _ => Strategy::DataPipeline,
    };
    let (dealing, ship) = Dealing::plan(examples, p, spec.seed, strategy, kept);
    let role = match &spec.kind {
        JobKind::Coverage { .. } | JobKind::BaselineLearn { .. } => WorkerRole::Coverage,
        JobKind::RuleSearch | JobKind::Learn => WorkerRole::Pipeline {
            width: spec.width,
            recovery: *recovery != RecoveryPolicy::Abort,
        },
    };
    let config = worker_config(engine, &settings, p, cores, role, strategy, spec.seed);
    submit_job(ep, id.0, &config, ship.then_some((dealing, examples)));

    job_state(ep, id, "running");
    let output = match &spec.kind {
        // Every frame of a coverage job goes out before its first count
        // comes back.
        JobKind::Coverage { rules } => {
            ep.broadcast(&Msg::LoadExamples);
            let owed = evaluate_all(ep, rules.clone());
            ep.broadcast(&Msg::Stop);
            JobOutput::Coverage(owed.summed(ep)?)
        }
        JobKind::RuleSearch => JobOutput::Rules(run_search_epoch(ep, &settings)?),
        JobKind::Learn => JobOutput::Learned(run_master(
            ep, &settings, examples, dealing, spec.seed, recovery,
        )?),
        JobKind::BaselineLearn { granularity } => JobOutput::Learned(baseline_master(
            ep,
            engine,
            &settings,
            examples,
            dealing,
            *granularity,
        )?),
    };

    job_state(ep, id, "draining");
    let (worker_steps, (worker_bytes, worker_messages)) = drain_job(ep, id.0)?;

    job_state(ep, id, "done");
    let (bytes, messages) = sent(ep);
    let accounting = JobAccounting {
        vtime: ep.now() - t0,
        master_steps: ep.compute_steps() - steps0,
        worker_steps,
        bytes: bytes - bytes0 + worker_bytes,
        messages: messages - messages0 + worker_messages,
    };
    Ok((output, accounting))
}

/// Says on the trace that job `id` entered `state`.
fn job_state<T: Transport>(ep: &Endpoint<T>, id: JobId, state: &'static str) {
    event!(
        ep.tracer(),
        "job_state",
        ep.now(),
        job = id.0,
        state = state
    );
}

/// The worker ranks not acknowledged dead, ascending: everyone, unless the
/// run recovered around a death.
pub(crate) fn live_workers<T: Transport>(ep: &Endpoint<T>) -> Vec<usize> {
    let down = ep.downed();
    (1..=ep.workers()).filter(|k| !down.contains(k)).collect()
}

/// Hands job `id` to the idle workers: one [`Msg::SubmitJob`] per live
/// rank, and nothing to wait for — the job's frames follow it on the same
/// links, and its [`Msg::JobResult`] is the only answer. With `ship`, rank
/// `k`'s frame carries its [`Dealing::subset`] of the examples, built for
/// the frame and gone with it; without, every rank holds its subset from
/// the previous job, every frame is the same, and it is encoded once for
/// all of them.
pub(crate) fn submit_job<T: Transport>(
    ep: &mut Endpoint<T>,
    id: u64,
    config: &WorkerConfig,
    ship: Option<(&Dealing, &Examples)>,
) {
    let frame = |examples| {
        let config = Box::new(config.clone());
        to_bytes(&Msg::SubmitJob {
            id,
            config,
            examples,
        })
    };
    let mut shared = None;
    for k in live_workers(ep) {
        let bytes = match ship {
            Some((dealing, examples)) => frame(Some(dealing.subset(examples, k - 1))),
            None => shared.get_or_insert_with(|| frame(None)).clone(),
        };
        send_control_bytes(ep, k, bytes);
    }
}

/// Collects job `id`'s [`Msg::JobResult`] from every live worker once the
/// job's master protocol has sent its `Stop`, and returns the compute steps
/// each rank spent on it, and the bytes and messages the ranks sent for
/// it — what each reported, its `JobResult` frame included. A rank that
/// died during the job (and was recovered around) has nothing to report
/// and counts 0. Each `JobResult` is tallied as control at this end.
pub(crate) fn drain_job<T: Transport>(
    ep: &mut Endpoint<T>,
    id: u64,
) -> Result<(Vec<u64>, (u64, u64)), CommFailure> {
    let mut worker_steps = vec![0u64; ep.workers()];
    let mut sent = (0, 0);
    for k in live_workers(ep) {
        let (steps, bytes, messages) =
            expect_control(ep, k, "a JobResult", |msg, len| match msg {
                Msg::JobResult { id: finished, .. } if finished != id => {
                    Err("JobResult: the id of another job")
                }
                Msg::JobResult {
                    steps,
                    bytes,
                    messages,
                    ..
                } => Ok((steps, bytes + len as u64, messages + 1)),
                _ => Err("end of the job: not a JobResult"),
            })?;
        worker_steps[k - 1] = steps;
        sent = (sent.0 + bytes, sent.1 + messages);
    }
    Ok((worker_steps, sent))
}

/// Sends rank `k` a job-control frame, tallied as one at this end
/// (`TrafficStats::record_control`).
pub(crate) fn send_control<T: Transport>(ep: &mut Endpoint<T>, k: usize, msg: &Msg) {
    send_control_bytes(ep, k, to_bytes(msg));
}

/// [`send_control`] of a frame already encoded.
fn send_control_bytes<T: Transport>(ep: &mut Endpoint<T>, k: usize, frame: Bytes) {
    ep.stats().record_control(frame.len());
    ep.send_bytes(k, frame);
}

/// [`Msg::expect`] for a job-control frame from rank `k`, tallied as one at
/// this end; `pick` is handed the frame's length too.
fn expect_control<T: Transport, R>(
    ep: &mut Endpoint<T>,
    k: usize,
    expected: &str,
    pick: impl FnOnce(Msg, usize) -> Result<R, &'static str>,
) -> Result<R, CommFailure> {
    let frame = ep.recv_from(k).map_err(|e| ep.failure(k, expected, e))?;
    let len = frame.len();
    ep.stats().record_control(len);
    let msg = from_bytes(frame).map_err(|e| ep.failure(k, expected, e))?;
    pick(msg, len).map_err(|why| ep.refusal(k, expected, why))
}

/// The resident worker's idle loop: park between jobs holding what the
/// module docs list under "What a rank keeps" — the adopted KB, the example
/// subset of the last job, the coverage memo — run each [`Msg::SubmitJob`]
/// on them, return to idle. `Stop` *at idle* is mesh shutdown (inside a job
/// it merely ends the job — the nested role loop consumes it); a closed
/// master link at idle is the [`WorkerExit::IdleDisconnect`] the worker
/// binary maps to its distinct exit code. `Err` is the failure of a receive
/// the rank could not go on from, at idle or inside a job: any other death
/// of the master link, a frame that is no job-control frame, a job naming
/// kept examples on a rank that keeps none.
pub fn run_resident_worker<T: Transport>(
    ep: &mut Endpoint<T>,
    mut base: KnowledgeBase,
) -> Result<WorkerExit, CommFailure> {
    let expected = "a job-control frame";
    let mut kept: Option<Examples> = None;
    // Valid for `kept`, for `base` and for the proof limits of the last job.
    let mut memo = CoverageMemo::new();
    let mut proof = None;
    loop {
        let msg: Msg = match ep.recv_msg(0) {
            Ok(msg) => msg,
            Err(CommError::Closed(err)) if matches!(err.fault, LinkFault::Closed) => {
                return Ok(WorkerExit::IdleDisconnect)
            }
            Err(error) => return Err(ep.failure(0, expected, error)),
        };
        match msg {
            // The kept examples survive a new KB; what was proved on the old
            // one does not.
            Msg::KbSnapshot(snap) => {
                base = restore_kb(ep, *snap, base.symbols().clone())?;
                memo.clear();
            }
            Msg::SubmitJob {
                id,
                config,
                examples,
            } => {
                let local = match examples {
                    Some(shipped) => {
                        memo.clear();
                        shipped
                    }
                    // Never a job on an empty or a stale subset.
                    None => kept.take().ok_or_else(|| {
                        let why = "SubmitJob: names kept examples, and this rank keeps none";
                        ep.refusal(0, "a SubmitJob with its examples", why)
                    })?,
                };
                if proof.replace(config.settings.proof) != Some(config.settings.proof) {
                    memo.clear();
                }
                let (steps0, (bytes0, messages0)) = (ep.compute_steps(), sent(ep));
                (base, kept) = run_role(ep, base, *config, local, &mut memo)?;
                let (bytes, messages) = sent(ep);
                let result = Msg::JobResult {
                    id,
                    steps: ep.compute_steps() - steps0,
                    bytes: bytes - bytes0,
                    messages: messages - messages0,
                };
                ep.send(0, &result);
            }
            // Introspection: always answered, even with sampling and
            // tracing off — the endpoint facts in the snapshot are
            // maintained unconditionally.
            Msg::MetricsQuery => {
                let snapshot = worker_metrics_snapshot(ep, &memo);
                ep.send(0, &Msg::MetricsReport { snapshot });
            }
            Msg::Stop => return Ok(WorkerExit::Finished),
            _ => return Err(ep.refusal(0, expected, "not a frame an idle worker takes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::problem;
    use p2mdie_cluster::run_cluster;
    use p2mdie_logic::clause::{Clause, Literal};
    use p2mdie_logic::term::Term;

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
            run_resident_worker(&mut ep, kb)
        });
        // A frame the idle loop answers, then the master is gone: its
        // endpoint drops and the supervisor notifies the worker.
        master_ep.broadcast(&Msg::MetricsQuery);
        Msg::recv(&mut master_ep, 1, "a MetricsReport").unwrap();
        drop(master_ep);
        assert!(master_down.notify(0), "worker must still be receiving");
        assert_eq!(
            handle.join().expect("worker thread").unwrap(),
            WorkerExit::IdleDisconnect,
            "an idle worker must classify a vanished master as IdleDisconnect"
        );
    }

    fn coverage_config(engine: &IlpEngine) -> WorkerConfig {
        let role = WorkerRole::Coverage;
        worker_config(
            engine,
            &engine.settings,
            1,
            1,
            role,
            Strategy::DataPipeline,
            0,
        )
    }

    /// A worker that ends a job with a well-formed frame of the wrong kind,
    /// or with another job's id, is reported as a `ClusterError` naming it,
    /// not as the text of an assertion.
    #[test]
    fn a_wrong_answer_to_a_job_frame_is_a_rank_tagged_error() {
        let (engine, ex) = problem(30);
        let config = coverage_config(&engine);
        // What the scripted worker says at the end of job 7.
        let scripts = [
            (Msg::Stop, "not a JobResult"),
            (
                Msg::JobResult {
                    id: 9,
                    steps: 0,
                    bytes: 0,
                    messages: 0,
                },
                "JobResult: the id of another job",
            ),
        ];
        for (reply, why) in scripts {
            let err = run_cluster(
                1,
                CostModel::free(),
                |ep| {
                    submit_job(ep, 7, &config, Some((&Dealing::Replicated, &ex)));
                    drain_job(ep, 7)
                },
                |ep| {
                    let _ = ep.recv_from(0);
                    ep.send(0, &reply);
                    Ok(())
                },
            )
            .unwrap_err();
            match &err {
                ClusterError::Comm { rank: 1, message } => {
                    assert!(message.contains("from rank 1"), "{err}");
                    assert!(message.contains(why), "{err}");
                }
                other => panic!("{why}: expected rank 1 to be named, got {other}"),
            }
        }
    }

    /// A coverage job puts every frame a rank needs on the wire before it
    /// waits for any: the scripted rank reads `SubmitJob`, `LoadExamples`,
    /// `Evaluate` and `Stop` before it sends anything, then answers with
    /// its counts and the `JobResult`. A master that waited for an answer
    /// in between would leave both ends waiting; a watchdog then tells each
    /// end that the other is gone, so the test fails instead of hanging.
    #[test]
    fn a_coverage_job_sends_every_frame_before_it_waits() {
        use p2mdie_cluster::{MeshTransport, TrafficStats};
        use std::time::Duration;
        let (engine, ex) = problem(30);
        let syms = engine.kb.symbols();
        let lit = |name: &str| Literal::new(syms.intern(name), vec![Term::Var(0)]);
        let rule = Clause::new(lit("special"), vec![lit("even"), lit("div3")]);
        let spec = JobSpec::coverage(ex, vec![rule]);
        let mut meshes = MeshTransport::mesh(2);
        let worker_t = meshes.pop().expect("rank 1");
        let master_t = meshes.pop().expect("rank 0");
        let (wake_master, wake_worker) = (worker_t.down_handle(0), master_t.down_handle(1));
        let stats = TrafficStats::new(2);
        let mut worker = Endpoint::from_parts(1, 2, worker_t, CostModel::free(), stats.clone());
        let master = std::thread::spawn(move || {
            let mut ep = Endpoint::from_parts(0, 2, master_t, CostModel::free(), stats);
            let abort = &RecoveryPolicy::Abort;
            dispatch_job(&mut ep, &engine, 1, JobId(7), &spec, &mut None, abort)
        });
        let (heard_all, watchdog) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            let waited = Duration::from_secs(20);
            if let Err(mpsc::RecvTimeoutError::Timeout) = watchdog.recv_timeout(waited) {
                wake_worker.notify(0);
                wake_master.notify(1);
            }
        });
        let mut heard = Vec::new();
        while heard.len() < 4 {
            let kind = match worker.recv_msg(0) {
                Ok(Msg::SubmitJob { id: 7, .. }) => "SubmitJob",
                Ok(Msg::LoadExamples) => "LoadExamples",
                Ok(Msg::Evaluate { .. }) => "Evaluate",
                Ok(Msg::Stop) => "Stop",
                Ok(_) => "another frame",
                Err(_) => "nothing: the master waited for an answer",
            };
            heard.push(kind);
            if kind.starts_with("nothing") {
                break;
            }
        }
        let _ = heard_all.send(());
        let in_order = ["SubmitJob", "LoadExamples", "Evaluate", "Stop"];
        if heard == in_order {
            let counts = vec![(3, 1)];
            worker.send(0, &Msg::EvalResult { counts });
            worker.send(
                0,
                &Msg::JobResult {
                    id: 7,
                    steps: 0,
                    bytes: 0,
                    messages: 0,
                },
            );
        }
        let output = master.join().expect("the master thread");
        assert_eq!(heard, in_order, "what rank 1 heard before it answered");
        match output {
            Ok((JobOutput::Coverage(counts), _)) => assert_eq!(counts, [(3, 1)]),
            other => panic!("expected the rank's counts, got {other:?}"),
        }
    }

    /// What a resident rank keeps and what drops it, driven frame by frame:
    /// a second job naming the kept examples runs on them, across a new KB
    /// snapshot too; a rank that was never sent any, or whose job replaced
    /// them (`NewPartition`), refuses such a job with a typed error instead
    /// of running it on nothing or on the wrong subset.
    #[test]
    fn a_job_naming_kept_examples_runs_on_them_or_fails_the_rank() {
        let (engine, ex) = problem(60);
        let syms = engine.kb.symbols();
        let lit = |name: &str| Literal::new(syms.intern(name), vec![Term::Var(0)]);
        let rule = Clause::new(lit("special"), vec![lit("even"), lit("div3")]);
        let direct = engine.evaluate(&rule, &ex, None, None);
        let config = coverage_config(&engine);
        let submit = |id, config: &WorkerConfig, examples| Msg::SubmitJob {
            id,
            config: Box::new(config.clone()),
            examples,
        };
        // One coverage job on rank 1, by hand.
        let query = |ep: &mut Endpoint, id, examples| {
            ep.send(1, &submit(id, &config, examples));
            ep.send(
                1,
                &Msg::Evaluate {
                    rules: vec![rule.clone()],
                },
            );
            let Ok(Msg::EvalResult { counts }) = Msg::recv(ep, 1, "an EvalResult") else {
                panic!("expected an EvalResult");
            };
            ep.send(1, &Msg::Stop);
            Msg::recv(ep, 1, "a JobResult").unwrap();
            counts
        };
        let resident = |ep: &mut Endpoint| run_resident_worker(ep, engine.kb.clone()).map(drop);
        run_cluster(
            1,
            CostModel::free(),
            |ep| {
                let shipped = query(ep, 1, Some(ex.clone()));
                assert_eq!(shipped, [(direct.pos_count(), direct.neg_count())]);
                assert_eq!(query(ep, 2, None), shipped);
                ep.send(1, &Msg::KbSnapshot(Box::new(engine.kb.to_snapshot())));
                assert_eq!(query(ep, 3, None), shipped, "the examples outlive a KB");
                ep.send(1, &Msg::Stop);
                Ok(())
            },
            resident,
        )
        .unwrap();

        let mut repartitioning = config.clone();
        repartitioning.role = WorkerRole::Pipeline {
            width: p2mdie_ilp::settings::Width::Unlimited,
            recovery: false,
        };
        repartitioning.strategy = Strategy::Redeal;
        let never_sent_any = |_: &mut Endpoint| {};
        let replaced_by_a_new_partition = |ep: &mut Endpoint| {
            ep.send(1, &submit(1, &repartitioning, Some(ex.clone())));
            ep.send(
                1,
                &Msg::NewPartition {
                    pos: ex.pos[..3].to_vec(),
                    neg: ex.neg[..3].to_vec(),
                },
            );
            ep.send(1, &Msg::Stop);
            Msg::recv(ep, 1, "a JobResult").unwrap();
        };
        let histories: [&(dyn Fn(&mut Endpoint) + Sync); 2] =
            [&never_sent_any, &replaced_by_a_new_partition];
        for history in histories {
            let err = run_cluster(
                1,
                CostModel::free(),
                |ep| {
                    history(ep);
                    // The refusal surfaces at the master's next receive.
                    submit_job(ep, 9, &config, None);
                    drain_job(ep, 9).map(drop)
                },
                resident,
            )
            .unwrap_err();
            match &err {
                ClusterError::WorkerFailed { rank: 1, message } => {
                    assert!(
                        message.contains("rank 1: failed receiving a SubmitJob"),
                        "{err}"
                    );
                    assert!(message.contains("this rank keeps none"), "{err}");
                }
                other => panic!("expected rank 1 to refuse the job, got {other}"),
            }
        }
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
