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
//! the same [`ParallelReport`](crate::report::ParallelReport).
//!
//! # Lifecycle
//!
//! A job's lifecycle is its trace: the scheduler emits a `job_state` event
//! as a job is `queued` (a service job only), `dispatching` (per-rank
//! `SubmitJob` frames out), `running` (its protocol's frames right behind
//! them, unacknowledged), `draining` (its protocol ran, the `JobResult`s
//! are due) and `done` — or `failed`, for a job cancelled before dispatch. It walks them in straight-line code, so
//! nothing checks the order at run time; what a caller keeps is the
//! terminal [`JobState`] of its [`JobOutcome`].

use crate::baselines::EvalGranularity;
use crate::master::{MasterOutcome, Strategy};
use crate::report::JobAccounting;
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
    /// Per-job settings override; `None` uses the service engine's.
    pub settings: Option<Settings>,
    /// How a [`JobKind::Learn`] job deals its examples (see
    /// [`Strategy`]). Ignored by every other kind, which is dealt
    /// once, statically: a `RuleSearch` job's global scoring sums per-rank
    /// counts, which [`Strategy::SearchPartition`]'s full example
    /// replication would multiply by `p`, over one epoch, which nothing
    /// re-deals; coverage/baseline jobs have no rule search to
    /// re-parallelize. One resident mesh freely multiplexes jobs of
    /// different strategies.
    pub strategy: Strategy,
}

impl JobSpec {
    fn new(kind: JobKind, examples: Examples) -> Self {
        JobSpec {
            kind,
            examples,
            width: Width::Unlimited,
            seed: 42,
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

    /// Selects how the job deals its examples (learning jobs only; see the
    /// `strategy` field for why other kinds ignore it).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// How a job ended (see "Lifecycle" in the [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Finished with a result.
    Done,
    /// Cancelled, rejected, or aborted by an error.
    Failed,
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
