//! Run reports: the numbers the paper's tables are made of, plus the
//! pipeline trace rendering that reproduces Figures 3–4 as ASCII Gantt
//! charts of real executions.

use crate::job::JobOutput;
use crate::master::{AcceptedRule, EpochTrace};
use p2mdie_cluster::ClusterOutcome;
use p2mdie_logic::clause::Clause;
use p2mdie_logic::symbol::SymbolTable;
use std::fmt::Write as _;
use std::time::Duration;

/// Report of one parallel run: p²-mdie ([`crate::driver::run_parallel`]) or
/// the coverage-parallel baseline
/// ([`crate::baselines::run_coverage_parallel`]). The baseline's master
/// finds every rule itself, so its `theory` has `origin` 0 throughout, its
/// `epochs` are covering iterations, and its `traces` are empty.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// Workers used (`p`).
    pub workers: usize,
    /// The induced theory.
    pub theory: Vec<AcceptedRule>,
    /// Epochs executed (Table 5).
    pub epochs: u32,
    /// Positive examples set aside without a covering rule.
    pub set_aside: u32,
    /// Virtual execution time at the master, in seconds — `T(p)` of
    /// Tables 2–3.
    pub vtime: f64,
    /// Final virtual clocks of the workers.
    pub worker_vtimes: Vec<f64>,
    /// Total communication in bytes (Table 4 is `megabytes()`), job-control
    /// frames aside.
    pub total_bytes: u64,
    /// Total messages exchanged, job-control frames aside.
    pub total_messages: u64,
    /// Bytes of the job-control frames: per rank its `SubmitJob` and
    /// `JobResult` and the idle `Stop`, as the master tallied them. Outside `total_bytes`, which the paper's runs, handed
    /// their work by a distributed file system, never paid; the virtual
    /// clock charges them.
    pub control_bytes: u64,
    /// Job-control messages, outside `total_messages`.
    pub control_messages: u64,
    /// Metered inference steps per worker.
    pub worker_steps: Vec<u64>,
    /// Sends the transport could not deliver (receiver already gone).
    /// Always 0 on a clean run; non-zero makes a lost-message bug visible
    /// in the report instead of silently skewing the traffic numbers.
    pub dropped_sends: u64,
    /// Wall-clock time of the simulation itself (not a paper quantity).
    pub wall: Duration,
    /// Per-epoch pipeline traces.
    pub traces: Vec<EpochTrace>,
    /// True when the master bailed out of an inconsistent state.
    pub stalled: bool,
    /// Ranks that died mid-run and were recovered from, in death order
    /// (empty unless the run used `RecoveryPolicy::Repartition`).
    pub rank_losses: Vec<u32>,
    /// Bytes spent on the recovery protocol itself — a labelled subset of
    /// `total_bytes`, so reports can state what the fault added.
    pub recovery_bytes: u64,
    /// Messages spent on the recovery protocol (subset of
    /// `total_messages`).
    pub recovery_messages: u64,
}

impl ParallelReport {
    /// The report of a finished mesh whose one job was a learning run,
    /// p²-mdie's or the baseline's.
    pub(crate) fn from_outcome(
        workers: usize,
        wall: Duration,
        outcome: ClusterOutcome<JobOutput>,
    ) -> Self {
        let JobOutput::Learned(master) = outcome.result else {
            // invariant: `run_one_job` runs a learning or a baseline job,
            // whose output this is.
            unreachable!("a learning job's output")
        };
        let stats = outcome.stats;
        ParallelReport {
            workers,
            theory: master.theory,
            epochs: master.epochs,
            set_aside: master.set_aside,
            vtime: outcome.master_vtime,
            worker_vtimes: outcome.worker_vtimes,
            total_bytes: stats.total_bytes() - stats.control_bytes(),
            total_messages: stats.total_messages() - stats.control_messages(),
            control_bytes: stats.control_bytes(),
            control_messages: stats.control_messages(),
            worker_steps: outcome.worker_steps,
            dropped_sends: outcome.dropped_sends,
            wall,
            traces: master.traces,
            stalled: master.stalled,
            rank_losses: master.rank_losses,
            recovery_bytes: stats.recovery_bytes(),
            recovery_messages: stats.recovery_messages(),
        }
    }

    /// Communication volume in MBytes (decimal, as the paper reports).
    pub fn megabytes(&self) -> f64 {
        self.total_bytes as f64 / 1.0e6
    }

    /// The learned clauses.
    pub fn clauses(&self) -> Vec<Clause> {
        self.theory.iter().map(|r| r.clause.clone()).collect()
    }
}

/// Per-job resource accounting, split out of the global run report.
///
/// A resident [`Service`](crate::scheduler::Service) multiplexes many jobs
/// over one standing mesh, so the mesh-lifetime totals (the numbers
/// [`ParallelReport`] carries) stop being attributable to any single
/// request. The scheduler instead snapshots the master's clock, step
/// counter and own sends around each job and reports the deltas here; each
/// worker's steps and sends for the job arrive in its
/// [`Msg::JobResult`](crate::protocol::Msg::JobResult).
///
/// `bytes` and `messages` are the whole mesh's traffic for the job, the
/// same on either transport: what the master sent, what every live worker
/// reported sending (to the master and to other workers), and the
/// `JobResult` frames themselves. A rank that died during the job reports
/// nothing.
///
/// The step counts are those of the job run alone on a fresh service,
/// whatever the ranks kept from the jobs before it: steps are charged as if
/// every rule were proved, and `LoadExamples` charges the subset's size
/// whether or not the subset travelled. `bytes` and `vtime` are not: a job
/// whose example subsets the ranks already held ships none, and says so
/// here — a few hundred bytes and the clock that goes with them where the
/// first job on those examples moved the examples themselves.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobAccounting {
    /// Virtual time the job occupied the master, in seconds (clock delta
    /// from dispatch to the end of the drain).
    pub vtime: f64,
    /// Master-side inference steps metered to this job.
    pub master_steps: u64,
    /// Per-worker inference steps, indexed by rank − 1 (from the
    /// `JobResult` replies).
    pub worker_steps: Vec<u64>,
    /// Bytes every rank sent for the job, job-control frames included.
    pub bytes: u64,
    /// Messages every rank sent for the job, job-control frames included.
    pub messages: u64,
}

/// Report of one sequential (Figure 1) run.
#[derive(Clone, Debug)]
pub struct SequentialReport {
    /// The induced theory.
    pub theory: Vec<Clause>,
    /// Epochs (= rules attempted).
    pub epochs: u32,
    /// Examples set aside.
    pub set_aside: u32,
    /// Virtual execution time, `T(1) = steps × t_step`.
    pub vtime: f64,
    /// Total metered inference steps.
    pub steps: u64,
    /// Wall-clock time of the simulation itself.
    pub wall: Duration,
}

/// Renders one epoch's pipeline activity as an ASCII Gantt chart — the
/// reproduction of the paper's Figures 3–4, generated from a real run
/// instead of drawn by hand.
///
/// Each row is a pipeline (by origin); each segment shows the worker that
/// executed the stage and the number of rules flowing out of it.
pub fn render_pipeline_trace(trace: &EpochTrace, _syms: &SymbolTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "epoch {} — {} pipelines, bag {} rules, {} accepted",
        trace.epoch,
        trace.pipelines.len(),
        trace.bag_size,
        trace.accepted
    );

    // Time scale across all stages of the epoch.
    let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in &trace.pipelines {
        for s in p {
            t0 = t0.min(s.start);
            t1 = t1.max(s.end);
        }
    }
    if !t0.is_finite() || t1 <= t0 {
        let _ = writeln!(out, "  (no stage activity)");
        return out;
    }
    const COLS: usize = 60;
    let scale = COLS as f64 / (t1 - t0);

    for (i, stages) in trace.pipelines.iter().enumerate() {
        let mut row = [b' '; COLS + 1];
        for s in stages {
            let a = ((s.start - t0) * scale).floor() as usize;
            let b = (((s.end - t0) * scale).ceil() as usize).clamp(a + 1, COLS);
            let ch = b'0' + (s.worker % 10);
            for c in row.iter_mut().take(b).skip(a) {
                *c = ch;
            }
        }
        let _ = writeln!(
            out,
            "  pipeline {:>2} |{}| {}",
            i + 1,
            String::from_utf8_lossy(&row[..COLS]),
            stages
                .iter()
                .map(|s| format!("w{}:{}→{}", s.worker, s.rules_in, s.rules_out))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    let _ = writeln!(
        out,
        "  (digits = worker executing the stage; span {:.3}s..{:.3}s virtual)",
        t0, t1
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StageTrace;

    fn trace() -> EpochTrace {
        EpochTrace {
            epoch: 1,
            pipelines: vec![
                vec![
                    StageTrace {
                        worker: 1,
                        step: 1,
                        start: 0.0,
                        end: 1.0,
                        rules_in: 0,
                        rules_out: 3,
                    },
                    StageTrace {
                        worker: 2,
                        step: 2,
                        start: 1.2,
                        end: 2.0,
                        rules_in: 3,
                        rules_out: 2,
                    },
                ],
                vec![
                    StageTrace {
                        worker: 2,
                        step: 1,
                        start: 0.0,
                        end: 0.8,
                        rules_in: 0,
                        rules_out: 1,
                    },
                    StageTrace {
                        worker: 1,
                        step: 2,
                        start: 1.0,
                        end: 1.7,
                        rules_in: 1,
                        rules_out: 1,
                    },
                ],
            ],
            bag_size: 3,
            accepted: 2,
        }
    }

    #[test]
    fn gantt_renders_every_pipeline() {
        let s = render_pipeline_trace(&trace(), &SymbolTable::new());
        assert!(s.contains("pipeline  1"));
        assert!(s.contains("pipeline  2"));
        assert!(s.contains("w1:0→3"));
        assert!(s.contains("w2:3→2"));
        // Worker digits appear in the chart body.
        assert!(s.contains('1') && s.contains('2'));
    }

    #[test]
    fn empty_trace_does_not_panic() {
        let t = EpochTrace {
            epoch: 3,
            pipelines: vec![vec![], vec![]],
            bag_size: 0,
            accepted: 0,
        };
        let s = render_pipeline_trace(&t, &SymbolTable::new());
        assert!(s.contains("no stage activity"));
    }

    #[test]
    fn megabytes_conversion() {
        let r = ParallelReport {
            workers: 2,
            theory: vec![],
            epochs: 0,
            set_aside: 0,
            vtime: 0.0,
            worker_vtimes: vec![],
            total_bytes: 3_000_000,
            total_messages: 10,
            control_bytes: 0,
            control_messages: 0,
            worker_steps: vec![],
            dropped_sends: 0,
            wall: Duration::ZERO,
            traces: vec![],
            stalled: false,
            rank_losses: vec![],
            recovery_bytes: 0,
            recovery_messages: 0,
        };
        assert!((r.megabytes() - 3.0).abs() < 1e-12);
    }
}
