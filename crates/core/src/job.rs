//! First-class jobs: *what* runs on the cluster, separated from *where*
//! it runs.
//!
//! A [`JobSpec`] describes the work alone — a coverage query, a one-epoch
//! rule search, or a full learning run (p²-mdie's or the coverage-parallel
//! baseline's), each with its own examples, settings, seed, and pipeline
//! width — and every run on the cluster is one: the [`crate::scheduler`]
//! multiplexes jobs over a resident [`Service`](crate::scheduler::Service),
//! and the two one-shot entry points, [`crate::driver::run_parallel`] and
//! [`crate::baselines::run_coverage_parallel`], each build one job and run
//! it the same way on a mesh of its own, opened by the same function, into
//! the same [`ParallelReport`](crate::report::ParallelReport). (A one-shot
//! job has no queue, so it skips `Queued`'s wait but not the walk below.)
//!
//! # Lifecycle
//!
//! Every job walks the same state machine:
//!
//! ```text
//!             submit            per-rank SubmitJob        all JobAccepted
//!   Queued ────────► Dispatching ──────────────► Running ───────────────┐
//!      │                  │                         │                   │
//!      │                  │                         │ job protocol ran  │
//!      │                  │                         ▼                   │
//!      │                  │                     Draining ◄──────────────┘
//!      │                  │                         │  all JobResult in
//!      │                  │                         ▼
//!      │                  └──────────► Failed     Done
//!      └─ cancel ─────────────────────►  ▲
//!                                        └─ any non-terminal state may fail
//! ```
//!
//! Transitions are checked ([`JobState::may_transition_to`]); an illegal
//! hop is a scheduler bug and panics rather than mis-reporting a job.
//! `Done` and `Failed` are terminal.

use crate::baselines::EvalGranularity;
use crate::master::MasterOutcome;
use crate::report::JobAccounting;
use crate::strategy::Strategy;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::{Settings, Width};
use p2mdie_logic::clause::Clause;

/// Identifier of one job, unique within its submitting service (ids are
/// assigned in submission order, starting at 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// What kind of work a job is.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// A coverage query: evaluate the given rules against the job's
    /// examples in one distributed round and return the global
    /// `(pos, neg)` counts, in rule order.
    Coverage {
        /// The rules to score.
        rules: Vec<Clause>,
    },
    /// One pipelined rule-search epoch (Fig. 5 steps 6–11 as a job): run
    /// `p` pipelines over the partitioned examples, pool the surviving
    /// rules, score them globally, and return the scored bag —
    /// best-first — without consuming it.
    RuleSearch,
    /// A full p²-mdie learning run ([`crate::master::run_master`]).
    Learn,
    /// A full coverage-parallel baseline learning run
    /// ([`crate::baselines`], the §6 related-work algorithm); its output is
    /// a [`JobOutput::Learned`] like a p²-mdie run's.
    BaselineLearn {
        /// Clauses shipped per evaluation round.
        granularity: EvalGranularity,
    },
}

impl JobKind {
    /// The scheduling class this kind belongs to (see
    /// [`crate::scheduler`]'s fairness rules): quick queries and full runs
    /// queue separately so a stream of learning runs cannot starve a
    /// coverage query.
    pub(crate) fn class(&self) -> usize {
        match self {
            JobKind::Coverage { .. } => 0,
            JobKind::RuleSearch => 1,
            JobKind::Learn | JobKind::BaselineLearn { .. } => 2,
        }
    }

    /// Short human-readable tag for logs and errors.
    pub fn tag(&self) -> &'static str {
        match self {
            JobKind::Coverage { .. } => "coverage",
            JobKind::RuleSearch => "rule-search",
            JobKind::Learn => "learn",
            JobKind::BaselineLearn { .. } => "baseline-learn",
        }
    }
}

/// Number of distinct scheduling classes (see [`JobKind::class`]).
pub(crate) const JOB_CLASSES: usize = 3;

/// Metric-label names of the scheduling classes, indexed by
/// [`JobKind::class`].
pub(crate) const CLASS_NAMES: [&str; JOB_CLASSES] = ["coverage", "rule-search", "learn"];

/// A complete description of one unit of cluster work.
///
/// Every job carries its *own* examples, settings, partition seed, and
/// width — two jobs multiplexed over the same mesh may differ in all of
/// them. `settings: None` inherits the service engine's settings. The
/// examples are shared, not copied: building a spec on `examples.clone()`
/// costs a reference count per list, and so does dropping it (see
/// [`Examples`]); on the wire they are two `Vec<Literal>`s.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// The examples this job runs over (partitioned over the workers with
    /// `seed` at dispatch time). A job on the set the ranks were dealt from
    /// last — the same lists, or equal ones — dealt the same way ships none
    /// of it.
    pub examples: Examples,
    /// Pipeline width `W` for rule-search and learning jobs.
    pub width: Width,
    /// Seed for the example partitioning.
    pub seed: u64,
    /// Per-epoch repartitioning (§4.1 variant) for [`JobKind::Learn`].
    /// Ignored by every other kind, which is dealt statically.
    pub repartition: bool,
    /// Per-job settings override; `None` uses the service engine's.
    pub settings: Option<Settings>,
    /// Parallelization strategy for [`JobKind::Learn`] jobs (see
    /// [`crate::strategy`]). Ignored by every other kind: a `RuleSearch`
    /// job's global scoring sums per-rank counts, which
    /// [`Strategy::SearchPartition`]'s full example replication would
    /// multiply by `p`, and
    /// coverage/baseline jobs have no rule search to re-parallelize. One
    /// resident mesh freely multiplexes jobs of different strategies.
    pub strategy: Strategy,
}

impl JobSpec {
    fn new(kind: JobKind, examples: Examples) -> Self {
        JobSpec {
            kind,
            examples,
            width: Width::Unlimited,
            seed: 42,
            repartition: false,
            settings: None,
            strategy: Strategy::default(),
        }
    }

    /// A coverage query over `rules`.
    pub fn coverage(examples: Examples, rules: Vec<Clause>) -> Self {
        JobSpec::new(JobKind::Coverage { rules }, examples)
    }

    /// A one-epoch pipelined rule search.
    pub fn rule_search(examples: Examples) -> Self {
        JobSpec::new(JobKind::RuleSearch, examples)
    }

    /// A full p²-mdie learning run.
    pub fn learn(examples: Examples) -> Self {
        JobSpec::new(JobKind::Learn, examples)
    }

    /// A full coverage-parallel baseline run.
    pub fn baseline(examples: Examples, granularity: EvalGranularity) -> Self {
        JobSpec::new(JobKind::BaselineLearn { granularity }, examples)
    }

    /// Sets the partition seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pipeline width.
    pub fn with_width(mut self, width: Width) -> Self {
        self.width = width;
        self
    }

    /// Overrides the service engine's settings for this job.
    pub fn with_settings(mut self, settings: Settings) -> Self {
        self.settings = Some(settings);
        self
    }

    /// Enables per-epoch repartitioning (learning jobs only).
    pub fn with_repartition(mut self) -> Self {
        self.repartition = true;
        self
    }

    /// Selects the parallelization strategy (learning jobs only; see the
    /// `strategy` field for why other kinds ignore it).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Where a job is in its lifecycle (diagram in the [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted into the service queue; not yet on the mesh.
    Queued,
    /// Being shipped to the workers (per-rank
    /// [`Msg::SubmitJob`](crate::protocol::Msg::SubmitJob) frames out,
    /// acceptances pending).
    Dispatching,
    /// All workers accepted; the job's protocol is running.
    Running,
    /// The protocol finished; per-worker results are being collected.
    Draining,
    /// Finished with a result. Terminal.
    Done,
    /// Cancelled, rejected, or aborted by an error. Terminal.
    Failed,
}

impl JobState {
    /// Whether the lifecycle permits moving from `self` to `next`.
    /// Forward progress only; any non-terminal state may move to
    /// [`JobState::Failed`].
    pub fn may_transition_to(self, next: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, next),
            (Queued, Dispatching)
                | (Dispatching, Running)
                | (Running, Draining)
                | (Draining, Done)
                | (Queued | Dispatching | Running | Draining, Failed)
        )
    }

    /// True for `Done` and `Failed`.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    /// Short lowercase tag for trace events and logs.
    pub fn tag(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Dispatching => "dispatching",
            JobState::Running => "running",
            JobState::Draining => "draining",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// The scheduler's in-flight view of one job: its id plus a
/// transition-checked [`JobState`].
#[derive(Debug)]
pub(crate) struct Lifecycle {
    pub id: JobId,
    pub state: JobState,
}

impl Lifecycle {
    /// A freshly queued job.
    pub fn new(id: JobId) -> Self {
        Lifecycle {
            id,
            state: JobState::Queued,
        }
    }

    /// Moves to `next`, panicking on an illegal transition (a scheduler
    /// bug, not a user error).
    pub fn advance(&mut self, next: JobState) {
        // invariant: the scheduler walks the states in order; no input
        // picks a transition.
        assert!(
            self.state.may_transition_to(next),
            "{}: illegal lifecycle transition {:?} -> {next:?}",
            self.id,
            self.state
        );
        self.state = next;
    }
}

/// What a finished job produced, by kind.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// Global `(pos, neg)` counts, in the order of the submitted rules.
    Coverage(Vec<(u32, u32)>),
    /// The scored bag of one rule-search epoch, best rule first:
    /// `(clause, global_pos, global_neg)`.
    Rules(Vec<(Clause, u32, u32)>),
    /// The full outcome of a learning run, p²-mdie's or the baseline's. A
    /// baseline run's epochs are its covering iterations, its rules have
    /// `origin` 0, and it has no `traces`, `stalled` or `rank_losses`.
    Learned(MasterOutcome),
}

/// The terminal record of one job: its final state, its output (present
/// exactly when the state is [`JobState::Done`]), and what it cost.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's id.
    pub id: JobId,
    /// Terminal state: `Done` or `Failed`.
    pub state: JobState,
    /// The result (`Some` iff `state == Done`).
    pub output: Option<JobOutput>,
    /// Failure description (`Some` iff `state == Failed`).
    pub error: Option<String>,
    /// Per-job resource accounting.
    pub accounting: JobAccounting,
}

impl JobOutcome {
    /// The outcome of a job that failed for `error`, with nothing accounted.
    pub(crate) fn failed(id: JobId, error: impl Into<String>) -> Self {
        JobOutcome {
            id,
            state: JobState::Failed,
            output: None,
            error: Some(error.into()),
            accounting: JobAccounting::default(),
        }
    }

    /// The coverage counts, panicking if the job was not a completed
    /// coverage query.
    pub fn coverage(&self) -> &[(u32, u32)] {
        match &self.output {
            Some(JobOutput::Coverage(counts)) => counts,
            // invariant: the caller's claim about the job it submitted.
            other => panic!("{}: expected a coverage output, got {other:?}", self.id),
        }
    }

    /// The learned outcome, panicking if the job was not a completed
    /// learning run (p²-mdie's or the baseline's).
    pub fn learned(&self) -> &MasterOutcome {
        match &self.output {
            Some(JobOutput::Learned(out)) => out,
            // invariant: the caller's claim about the job it submitted.
            other => panic!("{}: expected a learned output, got {other:?}", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_happy_path() {
        let mut job = Lifecycle::new(JobId(7));
        for next in [
            JobState::Dispatching,
            JobState::Running,
            JobState::Draining,
            JobState::Done,
        ] {
            job.advance(next);
        }
        assert!(job.state.is_terminal());
    }

    #[test]
    fn any_non_terminal_state_may_fail() {
        for reach in 0..4usize {
            let mut job = Lifecycle::new(JobId(1));
            let path = [JobState::Dispatching, JobState::Running, JobState::Draining];
            for next in path.iter().take(reach) {
                job.advance(*next);
            }
            job.advance(JobState::Failed);
            assert_eq!(job.state, JobState::Failed);
        }
    }

    #[test]
    #[should_panic(expected = "illegal lifecycle transition")]
    fn cannot_skip_dispatch() {
        Lifecycle::new(JobId(1)).advance(JobState::Running);
    }

    #[test]
    #[should_panic(expected = "illegal lifecycle transition")]
    fn terminal_states_are_final() {
        let mut job = Lifecycle::new(JobId(1));
        job.advance(JobState::Failed);
        job.advance(JobState::Dispatching);
    }

    #[test]
    fn classes_partition_the_kinds() {
        let ex = Examples::default();
        assert_eq!(JobSpec::coverage(ex.clone(), vec![]).kind.class(), 0);
        assert_eq!(JobSpec::rule_search(ex.clone()).kind.class(), 1);
        assert_eq!(JobSpec::learn(ex.clone()).kind.class(), 2);
        assert_eq!(
            JobSpec::baseline(ex, EvalGranularity::PerLevel)
                .kind
                .class(),
            2
        );
        // Every class index above must be a valid queue index.
        for spec in [
            JobSpec::coverage(Examples::default(), vec![]),
            JobSpec::rule_search(Examples::default()),
            JobSpec::learn(Examples::default()),
        ] {
            assert!(spec.kind.class() < JOB_CLASSES);
        }
    }
}
