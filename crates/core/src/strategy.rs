//! The strategy seam: how one learning run deals its examples to the
//! ranks, over the same mesh, protocol, and virtual-time accounting.
//!
//! p²-mdie as published is **data-parallel**: examples are partitioned,
//! every rank searches the full refinement lattice of its own seed, and
//! rules travel a pipeline so each is scored against every subset (Figure
//! 7). One [`Strategy`] value names the dealing, and each maps one to one
//! onto the master's [`crate::master::Dealing`]:
//!
//! * [`Strategy::DataPipeline`] — the paper's algorithm: examples dealt
//!   once (Figure 5, steps 1–2), [`crate::worker::run_worker`] on every
//!   rank, and the bag reduce of [`crate::master::run_master`].
//! * [`Strategy::Redeal`] — §4.1's rejected alternative: the same pipeline
//!   and reduce, but the master re-deals the live examples before every
//!   epoch ([`Msg::NewPartition`]), so its communication cost can be
//!   measured.
//! * [`Strategy::SearchPartition`] — **hypothesis-parallel**: every rank
//!   holds the *full* example set and the ranks split the refinement
//!   lattice itself. The split rides on a structural fact of
//!   [`p2mdie_ilp::refine::RuleShape`]: successors only ever append
//!   strictly larger literal indices, so every non-empty shape keeps its
//!   first literal forever and hashing that first literal
//!   ([`p2mdie_ilp::LatticeSlice`]) yields disjoint, subtree-closed,
//!   collectively exhaustive slices — no shape is searched twice, none is
//!   lost (pinned in `crates/ilp`'s `sliced_searches_union_to_the_full_search`).
//!
//! # Determinism contracts
//!
//! Every strategy is deterministic for a fixed (`workers`, `seed`,
//! strategy) triple, in-process and over TCP: every receive names its
//! source rank, the lattice slices are salted by the strategy seed alone,
//! and the master breaks rule ties by pool order, which is itself
//! rank-ordered. `SearchPartition` replicates the full example set on every
//! rank ([`crate::master::Dealing::Replicated`]), so local coverage counts
//! *are* global counts and the master's epoch loop needs no separate
//! evaluation round: it pools the per-rank rules, accepts the single best
//! acceptable one per epoch (ties broken by pool order, which is
//! rank-then-rule order) and broadcasts it as [`Msg::MarkCovered`], which
//! keeps every rank's live set bit-identical. An epoch with no acceptable
//! rule retires the shared seed example ([`Msg::RetireSeed`]; rank 1
//! answers for the mesh, since every rank retires the same example).
//! Neither side has a loop of its own: the worker loop is
//! [`crate::worker::run_worker`] too, whose `StartPipeline` arm runs the
//! replicated epoch of this module (`run_strategy_epoch`) instead of the
//! ring of pipelines.
//!
//! [`Msg::MarkCovered`]: crate::protocol::Msg::MarkCovered
//! [`Msg::NewPartition`]: crate::protocol::Msg::NewPartition
//! [`Msg::RetireSeed`]: crate::protocol::Msg::RetireSeed

use crate::protocol::StageTrace;
use crate::worker::WorkerContext;
use p2mdie_cluster::comm::Endpoint;
use p2mdie_cluster::transport::Transport;
use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::{CoverageMemo, LatticeSlice, Search};
use p2mdie_logic::clause::Clause;
use p2mdie_obs::span;

/// How a learning run deals its examples to the ranks.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Strategy {
    /// The paper's data-parallel pipelined algorithm (Figure 7): examples
    /// partitioned, full lattice per rank, rules scored by travelling the
    /// pipeline. The default.
    #[default]
    DataPipeline,
    /// Hypothesis-parallel: full example replication, the refinement
    /// lattice split into disjoint per-rank slices by first-literal hash.
    SearchPartition,
    /// The data pipeline with the live examples re-dealt before every
    /// epoch (§4.1's rejected alternative).
    Redeal,
}
// Tag 2 is retired and, like any unknown strategy tag, refused.
p2mdie_logic::wire_enum!(Strategy, "strategy tag" {
    0 => DataPipeline,
    1 => SearchPartition,
    3 => Redeal,
});

impl Strategy {
    /// Every strategy, in wire-tag order (the eval sweep's axis).
    pub const ALL: [Strategy; 3] = [
        Strategy::DataPipeline,
        Strategy::SearchPartition,
        Strategy::Redeal,
    ];

    /// Table/CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::DataPipeline => "data-pipeline",
            Strategy::SearchPartition => "search-partition",
            Strategy::Redeal => "redeal",
        }
    }

    /// Whether every rank holds the full example set instead of a share of
    /// it.
    pub(crate) fn replicates(self) -> bool {
        self == Strategy::SearchPartition
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a replicated epoch yields: the rules as clauses with their counts,
/// the search's stage trace, and whether there was a seed.
pub(crate) type Harvest = (Vec<(Clause, u32, u32)>, Vec<StageTrace>, bool);

/// One replicated epoch on one rank — what `StartPipeline` means to a
/// worker of [`Strategy::SearchPartition`], which holds the **full** example
/// set: saturate the shared seed, search this rank's slice of its lattice,
/// return the width-capped harvest as materialized clauses, the search's
/// stage trace, and whether there was a seed.
///
/// The shared-seed invariant: every rank holds identical examples, applies
/// every `MarkCovered`/`RetireSeed` identically, and picks its epoch seed
/// as the *first* live positive — so all ranks saturate the same example
/// into the same bottom clause, which is what makes the ranks' lattice
/// slices parts of one lattice.
pub(crate) fn run_strategy_epoch<T: Transport>(
    ep: &mut Endpoint<T>,
    ctx: &WorkerContext,
    live: &Bitset,
    seed_idx: Option<usize>,
    memo: &mut CoverageMemo,
) -> Harvest {
    let me = ep.rank();
    let Some(idx) = seed_idx else {
        return (Vec::new(), Vec::new(), false);
    };
    let Some(bottom) = ctx.engine.saturate(&ctx.local.pos[idx]) else {
        return (Vec::new(), Vec::new(), true);
    };
    ep.advance_steps(bottom.steps);

    let slice = LatticeSlice {
        rank: (me - 1) as u64,
        of: ep.workers() as u64,
        salt: ctx.strategy_seed,
    };
    let start = ep.now();
    let stage_span = span!(ep.tracer(), "stage", start, origin = me as u8, step = 1u8);
    let out = Search {
        live_pos: Some(live),
        slice: Some(&slice),
        ..Search::new(&ctx.engine.kb, &ctx.engine.settings, &bottom, &ctx.local)
    }
    .run(memo);
    ep.advance_steps(out.steps);
    stage_span.end_with(ep.now(), &[("rules_out", (out.good.len() as u64).into())]);
    let trace = StageTrace {
        worker: me as u8,
        step: 1,
        start,
        end: ep.now(),
        rules_in: 0,
        rules_out: out.good.len() as u32,
    };
    // The harvest: the search's good rules, best first, cut to the width.
    let mut good = out.good;
    good.truncate(ctx.width().cap());
    let rules = good
        .iter()
        .map(|r| (r.shape.to_clause(&bottom), r.pos, r.neg))
        .collect();
    (rules, vec![trace], true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_parallel, ParallelConfig};
    use crate::fixtures::{check_complete_and_consistent, problem};
    use p2mdie_cluster::CostModel;
    use p2mdie_ilp::settings::Width;

    fn cfg(workers: usize, strategy: Strategy) -> ParallelConfig {
        let mut cfg = ParallelConfig::new(workers, Width::Unlimited, 42).with_strategy(strategy);
        cfg.model = CostModel::free();
        cfg
    }

    /// The non-default strategies learn a complete, consistent theory on
    /// the two-rule problem, at several mesh widths.
    #[test]
    fn nondefault_strategies_learn_correct_theories() {
        let (engine, ex) = problem(120);
        for strategy in [Strategy::SearchPartition, Strategy::Redeal] {
            for workers in [1, 2, 3] {
                let rep = run_parallel(&engine, &ex, &cfg(workers, strategy)).unwrap();
                assert!(!rep.stalled, "{strategy} with {workers} workers stalled");
                check_complete_and_consistent(&engine, &ex, &rep.clauses());
            }
        }
    }

    /// The same (strategy, workers, seed) triple is deterministic:
    /// identical theory, epochs, traffic, and steps across runs.
    #[test]
    fn strategy_runs_are_deterministic() {
        let (engine, ex) = problem(120);
        let strategy = Strategy::SearchPartition;
        let a = run_parallel(&engine, &ex, &cfg(3, strategy)).unwrap();
        let b = run_parallel(&engine, &ex, &cfg(3, strategy)).unwrap();
        assert_eq!(a.theory, b.theory);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.worker_steps, b.worker_steps);
    }
}
