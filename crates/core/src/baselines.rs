//! The related-work baseline (paper §6): *data-parallel coverage testing*.
//!
//! Konstantopoulos (2003) and Graham, Page & Kamal (2003) parallelized ILP
//! differently from p²-mdie: a single master runs the ordinary MDIE search,
//! and only *coverage evaluation* is distributed — the candidate clause(s)
//! are broadcast, every worker scores them on its local example subset, and
//! the master sums the counts. Konstantopoulos shipped one clause per round
//! ([`EvalGranularity::PerClause`]); Graham et al. shipped a batch
//! ([`EvalGranularity::PerLevel`], one breadth-first level here). The paper
//! attributes Konstantopoulos' "poor results" to the smaller granularity —
//! implementing both lets this reproduction *measure* that explanation
//! against p²-mdie on the same virtual cluster.

use crate::driver::{run_one_job, ParallelConfig};
use crate::job::{JobOutput, JobSpec};
use crate::partition::Partition;
use crate::protocol::Msg;
use p2mdie_cluster::comm::{CommFailure, Endpoint};
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::{ClusterError, CostModel};
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::refine::RuleShape;
use p2mdie_ilp::settings::Width;
use p2mdie_logic::clause::Clause;
use std::collections::HashSet;
use std::time::Instant;

/// How many candidate clauses one evaluation round ships.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalGranularity {
    /// One clause per round (Konstantopoulos' design — latency-bound).
    PerClause,
    /// One breadth-first level per round (Graham et al.'s design).
    PerLevel,
}

/// Report of a coverage-parallel baseline run.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// The induced theory.
    pub theory: Vec<Clause>,
    /// Covering iterations (one rule or one set-aside each, like Fig. 1).
    pub epochs: u32,
    /// Positives set aside without a covering rule.
    pub set_aside: u32,
    /// Virtual time at the master — the baseline's `T(p)`.
    pub vtime: f64,
    /// Total communication in bytes, job-control frames aside.
    pub total_bytes: u64,
    /// Total messages, job-control frames aside.
    pub total_messages: u64,
    /// Bytes of the job-control frames (see [`ParallelReport`]'s), outside
    /// `total_bytes`.
    ///
    /// [`ParallelReport`]: crate::report::ParallelReport
    pub control_bytes: u64,
    /// Job-control messages, outside `total_messages`.
    pub control_messages: u64,
    /// Sends the transport could not deliver (0 on a clean run).
    pub dropped_sends: u64,
    /// Wall-clock time of the simulation.
    pub wall: std::time::Duration,
}

impl BaselineReport {
    /// Communication volume in MBytes.
    pub fn megabytes(&self) -> f64 {
        self.total_bytes as f64 / 1.0e6
    }
}

/// Runs the coverage-parallel baseline on `workers` workers.
///
/// The master owns the search (saturation and refinement run on rank 0,
/// metered on its clock); only rule evaluation is distributed. Examples are
/// partitioned exactly as in p²-mdie so the comparison is like for like.
pub fn run_coverage_parallel(
    engine: &IlpEngine,
    examples: &Examples,
    workers: usize,
    granularity: EvalGranularity,
    model: CostModel,
    seed: u64,
) -> Result<BaselineReport, ClusterError> {
    run_coverage_parallel_opts(engine, examples, workers, granularity, model, seed, false)
}

/// [`run_coverage_parallel`] with snapshot-based KB shipping: when
/// `ship_kb` is set, workers start with an empty KB and the master ships
/// its compiled background theory once as a `Msg::KbSnapshot` (the same
/// wiring as `ParallelConfig::with_kb_shipping`).
pub fn run_coverage_parallel_opts(
    engine: &IlpEngine,
    examples: &Examples,
    workers: usize,
    granularity: EvalGranularity,
    model: CostModel,
    seed: u64,
    ship_kb: bool,
) -> Result<BaselineReport, ClusterError> {
    let mut cfg = ParallelConfig::new(workers, Width::Unlimited, seed);
    cfg.model = model;
    cfg.ship_kb = ship_kb;
    coverage_parallel(engine, examples, &cfg, granularity)
}

/// One baseline learning run: a baseline job on a fresh mesh. Of `cfg`, the
/// mesh settings apply (`workers`, `model`, `ship_kb`, `transport`) and
/// `seed`; the workers run [`crate::worker::run_worker`] in its
/// [`WorkerRole::Coverage`](crate::protocol::WorkerRole::Coverage) shape:
/// evaluate and mark-covered, no pipeline ever starts.
pub(crate) fn coverage_parallel(
    engine: &IlpEngine,
    examples: &Examples,
    cfg: &ParallelConfig,
    granularity: EvalGranularity,
) -> Result<BaselineReport, ClusterError> {
    let started = Instant::now();
    let spec = JobSpec::baseline(examples.clone(), granularity).with_seed(cfg.seed);
    let outcome = run_one_job(engine, cfg, &spec)?;
    let JobOutput::BaselineLearned {
        theory,
        epochs,
        set_aside,
    } = outcome.result
    else {
        // invariant: the output of the baseline job just run.
        unreachable!("a baseline job's output")
    };
    let stats = outcome.stats;
    Ok(BaselineReport {
        theory,
        epochs,
        set_aside,
        vtime: outcome.master_vtime,
        total_bytes: stats.total_bytes() - stats.control_bytes(),
        total_messages: stats.total_messages() - stats.control_messages(),
        control_bytes: stats.control_bytes(),
        control_messages: stats.control_messages(),
        dropped_sends: outcome.dropped_sends,
        wall: started.elapsed(),
    })
}

/// One distributed evaluation round: broadcast, gather, sum. Crate-visible
/// so the scheduler's coverage-query jobs run the identical round. A reply
/// that is no `EvalResult`, or not one count per clause, is refused.
pub(crate) fn eval_round<T: Transport>(
    ep: &mut Endpoint<T>,
    clauses: &[Clause],
) -> Result<Vec<(u32, u32)>, CommFailure> {
    let p = ep.workers();
    ep.broadcast(&Msg::Evaluate {
        rules: clauses.to_vec(),
    });
    let mut totals = vec![(0u32, 0u32); clauses.len()];
    for k in 1..=p {
        let counts = Msg::expect(ep, k, "EvalResult", |msg| match msg {
            Msg::EvalResult { counts } if counts.len() == clauses.len() => Ok(counts),
            Msg::EvalResult { .. } => Err("EvalResult: not one count per clause"),
            _ => Err("reply to Evaluate: not an EvalResult"),
        })?;
        for (t, c) in totals.iter_mut().zip(counts) {
            t.0 += c.0;
            t.1 += c.1;
        }
    }
    Ok(totals)
}

/// The master side: the ordinary sequential covering loop of Figure 1,
/// with every `evalOnExamples` replaced by a distributed round — what a
/// baseline job runs (`crate::scheduler`).
pub(crate) fn baseline_master<T: Transport>(
    ep: &mut Endpoint<T>,
    engine: &IlpEngine,
    examples: &Examples,
    partition: &Partition,
    granularity: EvalGranularity,
) -> Result<(Vec<Clause>, u32, u32), CommFailure> {
    let settings = &engine.settings;
    let mut live = examples.full_pos_live();
    let mut theory = Vec::new();
    let mut epochs = 0u32;
    let mut set_aside = 0u32;
    let mut cursor: Option<usize> = None;

    ep.broadcast(&Msg::LoadExamples);

    while live.any() {
        epochs += 1;
        // invariant: the loop runs while `live.any()`.
        let seed_idx = live.next_after(cursor).expect("live set non-empty");
        cursor = Some(seed_idx);

        let Some(bottom) = engine.saturate(&examples.pos[seed_idx]) else {
            live.clear(seed_idx);
            set_aside += 1;
            continue;
        };
        ep.advance_steps(bottom.steps);

        // Breadth-first search; evaluation is the only distributed part.
        let mut frontier: Vec<RuleShape> = vec![RuleShape::empty()];
        let mut visited: HashSet<RuleShape> = HashSet::new();
        let mut nodes = 0usize;
        let mut best: Option<(RuleShape, u32, u32, i64)> = None;

        while !frontier.is_empty() && nodes < settings.max_nodes {
            let budget = settings.max_nodes - nodes;
            let batch_len = match granularity {
                EvalGranularity::PerClause => 1,
                EvalGranularity::PerLevel => frontier.len().min(budget),
            };
            let batch: Vec<RuleShape> = frontier.drain(..batch_len).collect();
            let clauses: Vec<Clause> = batch.iter().map(|s| s.to_clause(&bottom)).collect();
            let counts = eval_round(ep, &clauses)?;
            nodes += batch.len();
            ep.advance_steps(batch.len() as u64); // orchestration bookkeeping

            for (shape, (pos, neg)) in batch.into_iter().zip(counts) {
                let score = settings.score.score(pos, neg, shape.body_len());
                if settings.is_good(pos, neg)
                    && best.as_ref().is_none_or(|(bs, _, _, bsc)| {
                        (score, -(shape.body_len() as i64), &shape.lits)
                            > (*bsc, -(bs.body_len() as i64), &bs.lits)
                    })
                {
                    // NOTE: strictly-better comparison keeps determinism.
                    best = Some((shape.clone(), pos, neg, score));
                }
                if pos >= settings.min_pos {
                    for succ in shape.successors(&bottom, settings.max_body) {
                        if visited.insert(succ.clone()) {
                            frontier.push(succ);
                        }
                    }
                }
            }
        }

        match best {
            None => {
                live.clear(seed_idx);
                set_aside += 1;
            }
            Some((shape, _, _, _)) => {
                let clause = shape.to_clause(&bottom);
                ep.broadcast(&Msg::MarkCovered {
                    rule: clause.clone(),
                });
                let p = ep.workers();
                for k in 1..=p {
                    let dealt = &partition.pos[k - 1];
                    Msg::expect(ep, k, "CoveredIdx", |msg| match msg {
                        Msg::CoveredIdx { pos } => pos.iter().try_for_each(|&local| {
                            let global = dealt.get(local as usize);
                            live.clear(
                                *global.ok_or("CoveredIdx: an index past the rank's examples")?,
                            );
                            Ok(())
                        }),
                        _ => Err("reply to MarkCovered: not a CoveredIdx"),
                    })?;
                }
                if live.get(seed_idx) {
                    // Proof bounds can make a rule miss its own seed on the
                    // worker holding it; guarantee progress anyway.
                    live.clear(seed_idx);
                    set_aside += 1;
                }
                theory.push(clause);
            }
        }
    }

    ep.broadcast(&Msg::Stop);
    Ok((theory, epochs, set_aside))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::check_complete_and_consistent;

    #[test]
    fn baseline_learns_the_trains_concept() {
        let ds = p2mdie_datasets::trains(20, 5);
        for gran in [EvalGranularity::PerLevel, EvalGranularity::PerClause] {
            let rep =
                run_coverage_parallel(&ds.engine, &ds.examples, 2, gran, CostModel::free(), 5)
                    .unwrap();
            assert!(!rep.theory.is_empty(), "{gran:?} must learn");
            // Theory must cover every positive, no negative (noise-free).
            check_complete_and_consistent(&ds.engine, &ds.examples, &rep.theory);
        }
    }

    #[test]
    fn per_clause_granularity_pays_in_messages_and_time() {
        let ds = p2mdie_datasets::trains(20, 5);
        let model = CostModel::beowulf_2005();
        let level = run_coverage_parallel(
            &ds.engine,
            &ds.examples,
            4,
            EvalGranularity::PerLevel,
            model,
            5,
        )
        .unwrap();
        let clause = run_coverage_parallel(
            &ds.engine,
            &ds.examples,
            4,
            EvalGranularity::PerClause,
            model,
            5,
        )
        .unwrap();
        assert!(
            clause.total_messages > 2 * level.total_messages,
            "per-clause rounds must send far more messages ({} vs {})",
            clause.total_messages,
            level.total_messages
        );
        assert!(
            clause.vtime > level.vtime,
            "latency-bound per-clause evaluation must be slower ({} vs {})",
            clause.vtime,
            level.vtime
        );
    }

    /// The snapshot-shipped baseline must induce the identical theory while
    /// accounting the KB transfer in the traffic statistics.
    #[test]
    fn baseline_kb_shipping_matches_shared_data() {
        let ds = p2mdie_datasets::trains(20, 5);
        let shared = run_coverage_parallel(
            &ds.engine,
            &ds.examples,
            2,
            EvalGranularity::PerLevel,
            CostModel::free(),
            5,
        )
        .unwrap();
        let shipped = run_coverage_parallel_opts(
            &ds.engine,
            &ds.examples,
            2,
            EvalGranularity::PerLevel,
            CostModel::free(),
            5,
            true,
        )
        .unwrap();
        assert_eq!(shared.theory, shipped.theory);
        assert_eq!(shared.epochs, shipped.epochs);
        assert!(
            shipped.total_bytes > shared.total_bytes,
            "the snapshot transfer must be byte-accounted"
        );
    }

    #[test]
    fn baseline_is_deterministic() {
        let ds = p2mdie_datasets::carcinogenesis(0.1, 3);
        let model = CostModel::beowulf_2005();
        let a = run_coverage_parallel(
            &ds.engine,
            &ds.examples,
            3,
            EvalGranularity::PerLevel,
            model,
            3,
        )
        .unwrap();
        let b = run_coverage_parallel(
            &ds.engine,
            &ds.examples,
            3,
            EvalGranularity::PerLevel,
            model,
            3,
        )
        .unwrap();
        assert_eq!(a.theory, b.theory);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert!((a.vtime - b.vtime).abs() < 1e-12);
    }

    #[test]
    fn baseline_matches_sequential_theory_quality() {
        // With the same settings, the distributed-evaluation search visits
        // the same lattice as the sequential one, so coverage of the final
        // theory should match the sequential run's.
        let ds = p2mdie_datasets::trains(20, 5);
        let seq = ds.engine.run_sequential(&ds.examples);
        let par = run_coverage_parallel(
            &ds.engine,
            &ds.examples,
            2,
            EvalGranularity::PerLevel,
            CostModel::free(),
            5,
        )
        .unwrap();
        assert_eq!(seq.theory.len(), par.theory.len());
    }
}
