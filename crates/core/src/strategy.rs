//! The strategy seam: three ways to parallelize one ILP run over the same
//! mesh, protocol, and virtual-time accounting.
//!
//! p²-mdie as published is **data-parallel**: examples are partitioned,
//! every rank searches the full refinement lattice of its own seed, and
//! rules travel a pipeline so each is scored against every subset (Figure
//! 7). That is one point in a design space the cluster-ILP literature maps
//! out more broadly, and this module hosts the other two classic points
//! behind one [`Strategy`] switch:
//!
//! * [`Strategy::DataPipeline`] — the paper's algorithm: partitioned
//!   examples, [`crate::worker::run_worker`] on every rank, and the bag
//!   reduce of [`crate::master::run_master`].
//! * [`Strategy::SearchPartition`] — **hypothesis-parallel**: every rank
//!   holds the *full* example set and the ranks split the refinement
//!   lattice itself. The split rides on a structural fact of
//!   [`p2mdie_ilp::refine::RuleShape`]: successors only ever append
//!   strictly larger literal indices, so every non-empty shape keeps its
//!   first literal forever and hashing that first literal
//!   ([`p2mdie_ilp::LatticeSlice`]) yields disjoint, subtree-closed,
//!   collectively exhaustive slices — no shape is searched twice, none is
//!   lost (pinned in `crates/ilp`'s `sliced_searches_union_to_the_full_search`).
//! * [`Strategy::ConstraintDriven`] — **constraint-parallel**: ranks run
//!   independently seeded searches over the shared seed's lattice and
//!   broadcast the *dead* regions they prove (shapes whose positive cover
//!   already fell below `min_pos` — coverage is anti-monotone under
//!   specialization, so the whole subtree under such a shape is dead).
//!   Each epoch runs two search rounds with a constraint exchange between
//!   them: round one explores in a rank-specific deterministic order and
//!   collects dead shapes, the ranks swap them as [`Msg::Constraint`]
//!   broadcasts, and round two searches with the merged
//!   [`p2mdie_ilp::ConstraintStore`] cutting the proven-dead subtrees.
//!   Constraints are bottom-clause relative, so the store is keyed to the
//!   seed example and cleared the moment the seed changes; forgetting
//!   constraints is always sound (a cut is an optimization, never a
//!   correctness requirement).
//!
//! # Determinism contracts
//!
//! All three strategies are deterministic for a fixed
//! (`workers`, `seed`, strategy) triple, in-process and over TCP: every
//! receive names its source rank, exploration orders derive from
//! [`splitmix64`] chains seeded by (strategy seed, epoch, rank, round), and
//! the master breaks rule ties by pool order, which is itself rank-ordered.
//! The non-default strategies replicate the full example set on every rank
//! ([`crate::master::Dealing::Replicated`]), so local coverage counts *are*
//! global counts and the master's epoch loop needs no separate evaluation
//! round: it pools the per-rank rules, accepts the single best acceptable
//! one per epoch (ties broken by pool order, which is rank-then-rule
//! order) and broadcasts it as [`Msg::MarkCovered`], which keeps every
//! rank's live set bit-identical. An epoch with no acceptable rule retires
//! the shared seed example ([`Msg::RetireSeed`]; rank 1 answers for the
//! mesh, since every rank retires the same example). Neither side is
//! their own: the worker loop is [`crate::worker::run_worker`] too, whose
//! `StartPipeline` arm runs the replicated epoch of this module
//! (`run_strategy_epoch`) instead of the ring of pipelines.
//!
//! # Traffic accounting
//!
//! Constraint broadcasts are metered in a dedicated
//! [`p2mdie_cluster::TrafficStats`] row (`constraint_bytes` /
//! `constraint_messages`), exactly like the recovery row of the
//! self-healing protocol: total traffic still includes them, but reports
//! can say how much of the bill was pruning gossip (surfaced as
//! [`crate::report::ParallelReport::constraint_bytes`]). Over TCP the workers return their
//! constraint counters in the shutdown report and the master absorbs them.

use crate::protocol::{Msg, StageTrace};
use crate::worker::WorkerContext;
use p2mdie_cluster::comm::{CommFailure, Endpoint};
use p2mdie_cluster::transport::Transport;
use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::refine::splitmix64;
use p2mdie_ilp::{
    search_rules_guided, take_top, ConstraintStore, CoverageMemo, LatticeSlice, ScoredRule,
    SearchGuide,
};
use p2mdie_logic::clause::Clause;
use p2mdie_obs::span;

/// How the ranks divide one learning run among themselves.
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
    /// Constraint-parallel: full example replication, independently seeded
    /// searches exchanging proven-dead subtrees as lattice cuts.
    ConstraintDriven,
}
// Stable wire tags (protocol v7).
p2mdie_logic::wire_enum!(Strategy, "strategy tag" {
    0 => DataPipeline,
    1 => SearchPartition,
    2 => ConstraintDriven,
});

impl Strategy {
    /// Every strategy, in wire-tag order (the eval sweep's axis).
    pub const ALL: [Strategy; 3] = [
        Strategy::DataPipeline,
        Strategy::SearchPartition,
        Strategy::ConstraintDriven,
    ];

    /// Table/CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::DataPipeline => "data-pipeline",
            Strategy::SearchPartition => "search-partition",
            Strategy::ConstraintDriven => "constraint-driven",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Dead shapes a rank offers its peers per exchange. A cap, not a budget:
/// the search may prove more subtrees dead than this, and dropping the
/// excess only costs pruning opportunity, never correctness.
const DEAD_SHAPE_CAP: usize = 64;

/// The dead shapes a constraint-driven rank holds. They are bottom-clause
/// relative, so the store is keyed to the seed index that produced it and
/// cleared whenever the seed moves.
#[derive(Default)]
pub(crate) struct SeedConstraints {
    seed: Option<usize>,
    store: ConstraintStore,
}

/// The per-(epoch, rank, round) exploration seed: a [`splitmix64`] chain
/// over the strategy seed, so different ranks (and the two rounds of the
/// constraint-driven epoch) walk the lattice in different — but fully
/// deterministic — orders.
fn explore_seed(strategy_seed: u64, epoch: u32, rank: usize, round: u32) -> u64 {
    let mut x = splitmix64(strategy_seed ^ u64::from(epoch));
    x = splitmix64(x ^ (rank as u64) << 32);
    splitmix64(x ^ u64::from(round))
}

/// What a replicated epoch yields: the rules as clauses with their counts,
/// a stage trace per search round, and whether there was a seed.
pub(crate) type Harvest = (Vec<(Clause, u32, u32)>, Vec<StageTrace>, bool);

/// One replicated epoch on one rank — what `StartPipeline` means to a
/// worker of either non-default strategy, which holds the **full** example
/// set: saturate the shared seed, search under the strategy's guide, return
/// the width-capped harvest as materialized clauses, a stage trace per
/// search round, and whether there was a seed. `Err` is the failure of a
/// constraint exchange: a peer's dead link, or a frame that is no
/// `Constraint`.
///
/// The shared-seed invariant: every rank holds identical examples, applies
/// every `MarkCovered`/`RetireSeed` identically, and picks its epoch seed
/// as the *first* live positive — so all ranks saturate the same example
/// into the same bottom clause, which is what makes lattice slices and
/// exchanged constraints commensurable across ranks.
pub(crate) fn run_strategy_epoch<T: Transport>(
    ep: &mut Endpoint<T>,
    ctx: &WorkerContext,
    live: &Bitset,
    seed_idx: Option<usize>,
    epoch: u32,
    constraints: &mut SeedConstraints,
    memo: &mut CoverageMemo,
) -> Result<Harvest, CommFailure> {
    let me = ep.rank();
    if constraints.seed != seed_idx {
        constraints.store.clear();
        constraints.seed = seed_idx;
    }
    let store = &mut constraints.store;
    // The seed (and whether its saturation succeeds) is identical on every
    // rank, so the skip below is rank-uniform and nobody blocks waiting for
    // a peer that bailed out.
    let Some(idx) = seed_idx else {
        return Ok((Vec::new(), Vec::new(), false));
    };
    let Some(bottom) = ctx.engine.saturate(&ctx.local.pos[idx]) else {
        return Ok((Vec::new(), Vec::new(), true));
    };
    ep.advance_steps(bottom.steps);

    let mut traces = Vec::new();
    let mut round = |ep: &mut Endpoint<T>,
                     ctx: &WorkerContext,
                     guide: &SearchGuide,
                     constraints: Option<&ConstraintStore>,
                     step: u8,
                     rules_in: u32|
     -> (Vec<ScoredRule>, Vec<p2mdie_ilp::RuleShape>) {
        let start = ep.now();
        let stage_span = span!(ep.tracer(), "stage", start, origin = me as u8, step = step);
        let out = search_rules_guided(
            &ctx.engine.kb,
            &ctx.engine.settings,
            &bottom,
            &ctx.local,
            Some(live),
            &[],
            guide,
            constraints,
            memo,
        );
        ep.advance_steps(out.steps);
        stage_span.end_with(
            ep.now(),
            &[
                ("rules_out", (out.good.len() as u64).into()),
                ("cut", (out.cut as u64).into()),
            ],
        );
        traces.push(StageTrace {
            worker: me as u8,
            step,
            start,
            end: ep.now(),
            rules_in,
            rules_out: out.good.len() as u32,
        });
        (out.good, out.dead)
    };

    let good = match ctx.strategy {
        Strategy::SearchPartition => {
            let guide = SearchGuide {
                slice: Some(LatticeSlice {
                    rank: (me - 1) as u64,
                    of: ep.workers() as u64,
                    salt: ctx.strategy_seed,
                }),
                ..SearchGuide::default()
            };
            round(ep, ctx, &guide, None, 1, 0).0
        }
        Strategy::ConstraintDriven => {
            let p = ep.workers();
            let guide1 = SearchGuide {
                explore_seed: Some(explore_seed(ctx.strategy_seed, epoch, me, 1)),
                collect_dead: true,
                dead_cap: DEAD_SHAPE_CAP,
                ..SearchGuide::default()
            };
            let (good1, dead1) = round(ep, ctx, &guide1, Some(store), 1, 0);

            // Exchange: broadcast my dead shapes, then gather each peer's
            // in rank order. Sends are buffered, so every rank sending
            // before receiving cannot deadlock; the traffic lands in the
            // dedicated constraint row of the stats.
            if p > 1 {
                ep.set_constraint_phase(true);
                for k in (1..=p).filter(|&k| k != me) {
                    ep.send(
                        k,
                        &Msg::Constraint {
                            origin: me as u8,
                            epoch,
                            shapes: dead1.clone(),
                        },
                    );
                }
                ep.set_constraint_phase(false);
                for k in (1..=p).filter(|&k| k != me) {
                    let shapes = Msg::expect(ep, k, "a Constraint broadcast", |msg| match msg {
                        Msg::Constraint { shapes, .. } => Ok(shapes),
                        _ => Err("not a Constraint"),
                    })?;
                    store.merge(&shapes);
                }
            }
            store.merge(&dead1);

            let guide2 = SearchGuide {
                explore_seed: Some(explore_seed(ctx.strategy_seed, epoch, me, 2)),
                collect_dead: true,
                dead_cap: DEAD_SHAPE_CAP,
                ..SearchGuide::default()
            };
            let (good2, dead2) = round(ep, ctx, &guide2, Some(store), 2, store.len() as u32);
            store.merge(&dead2);

            let mut good = good1;
            good.extend(good2);
            good
        }
        // invariant: `run_worker` comes here for the replicating strategies
        // only.
        Strategy::DataPipeline => unreachable!("the data pipeline runs the ring epoch"),
    };

    // Deterministic harvest: best-first by rank key, duplicates (a shape
    // found in both rounds) collapsed, width cap applied.
    let mut good = take_top(good, usize::MAX);
    good.dedup_by(|a, b| a.shape == b.shape);
    good.truncate(ctx.width.cap());
    let rules = good
        .iter()
        .map(|r| (r.shape.to_clause(&bottom), r.pos, r.neg))
        .collect();
    Ok((rules, traces, true))
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

    /// Both non-default strategies learn a complete, consistent theory on
    /// the two-rule problem, at several mesh widths.
    #[test]
    fn nondefault_strategies_learn_correct_theories() {
        let (engine, ex) = problem(120);
        for strategy in [Strategy::SearchPartition, Strategy::ConstraintDriven] {
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
        for strategy in [Strategy::SearchPartition, Strategy::ConstraintDriven] {
            let a = run_parallel(&engine, &ex, &cfg(3, strategy)).unwrap();
            let b = run_parallel(&engine, &ex, &cfg(3, strategy)).unwrap();
            assert_eq!(a.theory, b.theory, "{strategy}");
            assert_eq!(a.epochs, b.epochs, "{strategy}");
            assert_eq!(a.total_bytes, b.total_bytes, "{strategy}");
            assert_eq!(a.worker_steps, b.worker_steps, "{strategy}");
        }
    }

    /// Constraint gossip is metered in its dedicated row: present under
    /// `ConstraintDriven` with p ≥ 2, absent everywhere else, and always a
    /// subset of the total.
    #[test]
    fn constraint_traffic_is_metered_separately() {
        let (engine, ex) = problem(120);
        let driven = run_parallel(&engine, &ex, &cfg(3, Strategy::ConstraintDriven)).unwrap();
        assert!(
            driven.constraint_messages > 0,
            "a 3-rank constraint-driven run must gossip"
        );
        assert!(driven.constraint_bytes > 0);
        assert!(driven.constraint_bytes <= driven.total_bytes);
        assert!(driven.constraint_messages <= driven.total_messages);

        let sliced = run_parallel(&engine, &ex, &cfg(3, Strategy::SearchPartition)).unwrap();
        assert_eq!(sliced.constraint_bytes, 0);
        assert_eq!(sliced.constraint_messages, 0);

        let solo = run_parallel(&engine, &ex, &cfg(1, Strategy::ConstraintDriven)).unwrap();
        assert_eq!(
            solo.constraint_messages, 0,
            "a single rank has nobody to gossip with"
        );
    }

    /// The default strategy never gossips: its report shows no constraint
    /// traffic.
    #[test]
    fn data_pipeline_reports_no_constraint_traffic() {
        let (engine, ex) = problem(120);
        let rep = run_parallel(&engine, &ex, &cfg(2, Strategy::DataPipeline)).unwrap();
        assert!(!rep.theory.is_empty());
        assert_eq!(rep.constraint_bytes, 0);
        assert_eq!(rep.constraint_messages, 0);
    }
}
