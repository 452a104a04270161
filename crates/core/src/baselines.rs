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
//! Only its evaluator is the baseline's own. The search is the sequential
//! learn's ([`Search`], Figure 2's one breadth-first loop) with the batched
//! evaluator, whose rounds are p²-mdie's: the master's evaluation round
//! scores each batch on every rank, and an accepted rule is marked covered
//! through the master's live set ([`crate::master`]). A run
//! is a baseline job on a mesh of its own ([`run_coverage_parallel`], the
//! one entry point, over either transport), and reports like any parallel
//! run: a [`ParallelReport`] whose `traces` are empty and whose rules have
//! `origin` 0.

use crate::driver::{run_one_job, ParallelConfig};
use crate::job::JobSpec;
use crate::master::{evaluate_all, AcceptedRule, Dealing, LiveSet, MasterOutcome};
use crate::protocol::Msg;
use crate::report::ParallelReport;
use p2mdie_cluster::comm::{CommFailure, Endpoint};
use p2mdie_cluster::transport::Transport;
use p2mdie_cluster::ClusterError;
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::search::Search;
use p2mdie_ilp::settings::Settings;

/// How many candidate clauses one evaluation round ships.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalGranularity {
    /// One clause per round (Konstantopoulos' design — latency-bound).
    PerClause,
    /// One breadth-first level per round (Graham et al.'s design).
    PerLevel,
}

impl EvalGranularity {
    /// The most nodes one round scores: one, or all the search's frontier
    /// yields within the node budget before any of them is queued — one
    /// breadth-first level ([`Search::run_batched`]).
    fn batch(self) -> usize {
        match self {
            EvalGranularity::PerClause => 1,
            EvalGranularity::PerLevel => usize::MAX,
        }
    }
}

/// Runs the coverage-parallel baseline: one baseline job on a fresh mesh.
///
/// The master owns the search (saturation and refinement run on rank 0,
/// metered on its clock); only rule evaluation is distributed, to workers
/// that hold the examples partitioned exactly as in p²-mdie, so the
/// comparison is like for like. Of `cfg`, `workers`, `model`, `seed`,
/// `ship_kb` and `transport` apply; a `cfg` asking for any strategy but
/// the default, recovery or chaos is refused with a [`ClusterError::Net`] —
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

        // Figure 2's search, with every node evaluated by the workers: a
        // round's clauses scored on every rank and summed.
        let search = Search {
            keep: 1,
            ..Search::new(&engine.kb, settings, &bottom, examples)
        };
        let found = search.run_batched(granularity.batch(), |clauses| {
            let counts = evaluate_all(ep, clauses).summed(ep)?;
            ep.advance_steps(counts.len() as u64); // orchestration bookkeeping
            Ok(counts)
        })?;

        match found.best() {
            None => {
                live.positives().clear(seed_idx);
                out.set_aside += 1;
            }
            Some(best) => {
                let rule = AcceptedRule {
                    clause: best.shape.to_clause(&bottom),
                    pos: best.pos,
                    neg: best.neg,
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
