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
//!
//! Only the search is the baseline's own. Its rounds are p²-mdie's: the
//! master's evaluation round scores each batch, and an accepted rule is
//! marked covered through the master's live set ([`crate::master`]). A run
//! is a baseline job on a mesh of its own ([`run_coverage_parallel`], the
//! one entry point, over either transport), and reports like any parallel
//! run: a [`ParallelReport`] whose `traces` are empty and whose rules have
//! `origin` 0.

use crate::driver::{run_one_job, ParallelConfig};
use crate::job::JobSpec;
use crate::master::{evaluate_summed, AcceptedRule, Dealing, LiveSet, MasterOutcome};
use crate::protocol::Msg;
use crate::report::ParallelReport;
use p2mdie_cluster::comm::{CommFailure, Endpoint};
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::ClusterError;
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::refine::RuleShape;
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::Clause;
use std::collections::HashSet;

/// How many candidate clauses one evaluation round ships.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalGranularity {
    /// One clause per round (Konstantopoulos' design — latency-bound).
    PerClause,
    /// One breadth-first level per round (Graham et al.'s design).
    PerLevel,
}

/// Runs the coverage-parallel baseline: one baseline job on a fresh mesh.
///
/// The master owns the search (saturation and refinement run on rank 0,
/// metered on its clock); only rule evaluation is distributed, to workers
/// that hold the examples partitioned exactly as in p²-mdie, so the
/// comparison is like for like. Of `cfg`, `workers`, `model`, `seed`,
/// `ship_kb` and `transport` apply; a `cfg` asking for repartitioning, a
/// strategy, recovery or chaos is refused with a [`ClusterError::Net`] —
/// the baseline has no epochs to re-deal or recover.
pub fn run_coverage_parallel(
    engine: &IlpEngine,
    examples: &Examples,
    cfg: &ParallelConfig,
    granularity: EvalGranularity,
) -> Result<ParallelReport, ClusterError> {
    let spec = JobSpec::baseline(examples.clone(), granularity).with_seed(cfg.seed);
    run_one_job(engine, cfg, &spec)
}

/// The master side: the ordinary sequential covering loop of Figure 1 with
/// the job's `settings`, every `evalOnExamples` replaced by the master's
/// evaluation round, and every acceptance by its accept round over a live
/// set tracked by index over the static `dealing` — what a baseline job
/// runs (`crate::scheduler`).
pub(crate) fn baseline_master<T: Transport>(
    ep: &mut Endpoint<T>,
    engine: &IlpEngine,
    settings: &Settings,
    examples: &Examples,
    dealing: &Dealing,
    granularity: EvalGranularity,
) -> Result<MasterOutcome, CommFailure> {
    let mut live = LiveSet::new(ep.workers(), examples, dealing, false, true);
    let mut out = MasterOutcome::default();
    let mut cursor: Option<usize> = None;

    ep.broadcast(&Msg::LoadExamples);

    while let Some(seed_idx) = live.positives().next_after(cursor) {
        out.epochs += 1;
        cursor = Some(seed_idx);

        let seed = &examples.pos[seed_idx];
        let Some(bottom) = p2mdie_ilp::saturate(&engine.kb, &engine.modes, settings, seed) else {
            live.positives().clear(seed_idx);
            out.set_aside += 1;
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
            let counts = evaluate_summed(ep, clauses)?;
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
                live.positives().clear(seed_idx);
                out.set_aside += 1;
            }
            Some((shape, pos, neg, _)) => {
                let rule = AcceptedRule {
                    clause: shape.to_clause(&bottom),
                    pos,
                    neg,
                    epoch: out.epochs,
                    origin: 0,
                };
                live.accept(ep, rule, &mut out.theory)?;
                if live.positives().get(seed_idx) {
                    // Proof bounds can make a rule miss its own seed on the
                    // worker holding it; guarantee progress anyway.
                    live.positives().clear(seed_idx);
                    out.set_aside += 1;
                }
            }
        }
    }

    ep.broadcast(&Msg::Stop);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::check_complete_and_consistent;
    use p2mdie_cluster::CostModel;
    use p2mdie_ilp::settings::Width;

    fn cfg(workers: usize, model: CostModel, seed: u64) -> ParallelConfig {
        ParallelConfig {
            model,
            ..ParallelConfig::new(workers, Width::Unlimited, seed)
        }
    }

    #[test]
    fn baseline_learns_the_trains_concept() {
        let ds = p2mdie_datasets::trains(20, 5);
        for gran in [EvalGranularity::PerLevel, EvalGranularity::PerClause] {
            let rep = run_coverage_parallel(
                &ds.engine,
                &ds.examples,
                &cfg(2, CostModel::free(), 5),
                gran,
            )
            .unwrap();
            assert!(!rep.theory.is_empty(), "{gran:?} must learn");
            assert!(rep.theory.iter().all(|r| r.origin == 0), "{gran:?}");
            assert!(rep.traces.is_empty(), "{gran:?}");
            // Theory must cover every positive, no negative (noise-free).
            check_complete_and_consistent(&ds.engine, &ds.examples, &rep.clauses());
        }
    }

    #[test]
    fn per_clause_granularity_pays_in_messages_and_time() {
        let ds = p2mdie_datasets::trains(20, 5);
        let cfg = cfg(4, CostModel::beowulf_2005(), 5);
        let run = |gran| run_coverage_parallel(&ds.engine, &ds.examples, &cfg, gran).unwrap();
        let level = run(EvalGranularity::PerLevel);
        let clause = run(EvalGranularity::PerClause);
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
        let per_level = EvalGranularity::PerLevel;
        let cfg = cfg(2, CostModel::free(), 5);
        let shared = run_coverage_parallel(&ds.engine, &ds.examples, &cfg, per_level).unwrap();
        let cfg = cfg.with_kb_shipping();
        let shipped = run_coverage_parallel(&ds.engine, &ds.examples, &cfg, per_level).unwrap();
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
        let cfg = cfg(3, CostModel::beowulf_2005(), 3);
        let run = || {
            run_coverage_parallel(&ds.engine, &ds.examples, &cfg, EvalGranularity::PerLevel)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.theory, b.theory);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.worker_steps, b.worker_steps);
        assert!((a.vtime - b.vtime).abs() < 1e-12);
    }

    #[test]
    fn baseline_matches_sequential_theory_quality() {
        // With the same settings, the distributed-evaluation search visits
        // the same lattice as the sequential one, so coverage of the final
        // theory should match the sequential run's.
        let ds = p2mdie_datasets::trains(20, 5);
        let seq = ds.engine.run_sequential(&ds.examples);
        let cfg = cfg(2, CostModel::free(), 5);
        let par = run_coverage_parallel(&ds.engine, &ds.examples, &cfg, EvalGranularity::PerLevel)
            .unwrap();
        assert_eq!(seq.theory.len(), par.theory.len());
    }
}
