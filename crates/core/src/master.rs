//! The master rank (paper Figure 5): one epoch driver for every way a
//! learning run is dealt and supervised.
//!
//! Epochs repeat until every positive example is covered or set aside.
//! Each one starts a pipeline on every live rank, gathers the rules that
//! survive them, *reduces* the harvest to the rules it accepts, broadcasts
//! each acceptance as `MarkCovered`, and — when nothing was acceptable —
//! retires the seeds the pipelines started from, so a run always makes
//! progress. [`run_master`] is that loop; what varies is plain data:
//!
//! * the [`Dealing`], one to one with the run's [`Strategy`] — examples
//!   dealt once before the run ([`Strategy::DataPipeline`], the paper's
//!   algorithm), re-dealt before every epoch ([`Strategy::Redeal`], §4.1's
//!   rejected alternative, implemented so its communication cost can be
//!   measured), or replicated on every rank
//!   ([`Strategy::SearchPartition`]);
//! * the [`RecoveryPolicy`] — whether a dead rank fails the run or is
//!   recovered around (below);
//! * the reduce step, which follows from the dealing. Partitioned examples
//!   need the bag of Fig. 5 steps 10–22: all workers score the pooled rules,
//!   the master picks the globally best, marks it covered, re-evaluates what
//!   is left and drops what is no longer good, accepting *several* rules per
//!   epoch (the key difference from the sequential algorithm, and the source
//!   of the epoch reduction in Table 5). On replicated examples a rank's
//!   counts already are global, so the single best rule of the pool is
//!   accepted without an evaluation round.
//!
//! Two rounds here are the crate's only ones of their kind: `evaluate`
//! (every rank scores a list of rules and answers one count per rule; the
//! bag keeps the per-rank rows, a coverage job and the coverage-parallel
//! baseline of [`crate::baselines`] sum them) and `LiveSet::accept` (every
//! live rank marks an accepted rule's cover). The baseline's master is a
//! sequential search of its own, but evaluates and accepts through these.
//!
//! The worker side tells the master about coverage in one of two ways, and
//! `LiveSet` hides which: a count (`SeedRetired`, and the accepted rule's
//! own global cover) when examples were dealt statically and nobody can
//! die, local indices (`CoveredIdx`) mapped back to global ones whenever
//! the master must know *which* examples are left — to re-deal them, to
//! hand a dead rank's share to the survivors, or to pick the baseline's
//! next seed.
//!
//! One deliberate deviation from the letter of Figure 5: the bag is
//! filtered with `notGood` *before* every pick, including the first, so a
//! globally-bad rule is never accepted; the figure only filters after the
//! first acceptance. This matches its stated intent of "emulating MDIE as
//! closely as possible".
//!
//! # Strategies
//!
//! p²-mdie as published is **data-parallel**: examples are partitioned,
//! every rank searches the full refinement lattice of its own seed, and
//! rules travel a pipeline so each is scored against every subset (Figure
//! 7). [`Strategy::SearchPartition`] is **hypothesis-parallel**: every rank
//! holds the *full* example set and the ranks split the refinement lattice
//! itself. The split rides on a structural fact of
//! [`p2mdie_ilp::refine::RuleShape`]: successors only ever append strictly
//! larger literal indices, so every non-empty shape keeps its first literal
//! forever and hashing that first literal ([`p2mdie_ilp::LatticeSlice`])
//! yields disjoint, subtree-closed, collectively exhaustive slices — no
//! shape is searched twice, none is lost (pinned in `crates/ilp`'s
//! `sliced_searches_union_to_the_full_search`). Every strategy runs the same
//! pipeline stage on the worker ([`crate::worker`]); a replicated rank's
//! pipeline is a ring of itself, its one stage searching its own slice.
//!
//! # Determinism contracts
//!
//! Every strategy is deterministic for a fixed (`workers`, `seed`,
//! strategy) triple, in-process and over TCP: every receive names its
//! source rank, the lattice slices are salted by the strategy seed alone,
//! and the master breaks rule ties by pool order, which is itself
//! rank-ordered. On replicated examples local coverage counts *are* global
//! counts, so the epoch needs no separate evaluation round: the master pools
//! the per-rank rules, accepts the single best acceptable one (ties broken
//! by pool order, which is rank-then-rule order) and broadcasts it as
//! [`Msg::MarkCovered`], which keeps every rank's live set bit-identical.
//! Every rank seeds its epoch with its *first* live positive, so all ranks
//! saturate the same example into the same bottom clause, which is what
//! makes their slices parts of one lattice. An epoch with no acceptable rule
//! retires that shared seed ([`Msg::RetireSeed`]; rank 1 answers for the
//! mesh, since every rank retires the same example).
//!
//! # Progress
//!
//! An epoch that accepts nothing retires the seeds its pipelines started
//! from and sets them aside — a seed whose search found nothing good and a
//! seed that did not saturate (no head mode matches it) alike. That
//! retirement is the run's one stall guard: an epoch that accepts nothing
//! and retires nothing ends the run `stalled`, which only a count that
//! drifted from what the workers hold can cause. A run with nothing left to
//! retire still ends, after one `RetireSeed` round.
//!
//! # Worker-death recovery
//!
//! Under [`RecoveryPolicy::Repartition`] a dead rank is a *membership
//! event*, not an error. Every receive watches all links
//! ([`Endpoint::recv_from_watching`]); the moment one dies the epoch is
//! abandoned — the receive's failure names the dead rank, and travels up
//! to [`run_master`] like any other — and the master runs the recovery
//! protocol instead of returning it:
//!
//! 1. **Abort** — send [`Msg::AbortEpoch`] to every survivor, then drain
//!    each survivor's stream up to its [`Msg::AbortAck`], *processing* any
//!    in-flight `CoveredIdx` replies (coverage already applied on the
//!    worker side must not be lost) and discarding stale pipeline results.
//! 2. **Redistribute** — deal the dead rank's still-live positives and its
//!    negatives over the survivors ([`Msg::AdoptExamples`]), extending the
//!    master's global-index bookkeeping in sent order (static dealing; a
//!    re-dealing run simply deals over the survivors next epoch).
//! 3. **Resync** — broadcast the accepted theory ([`Msg::ReplayTheory`]);
//!    each survivor reports everything it covers among its live examples,
//!    which restores the exact global live set even if the death raced a
//!    `MarkCovered` round.
//!
//! The aborted epoch restarts over the shrunk ring. Rules accepted before
//! the abort stay accepted (per-channel FIFO order guarantees every
//! survivor processed the `MarkCovered` before the `AbortEpoch`). Recovery
//! traffic is tallied separately in the traffic statistics
//! (`TrafficStats::recovery_bytes`), so reports stay honest about what the
//! fault added. A *second* death while a recovery is quiescing exceeds the
//! protocol and is returned as a clean rank-tagged error — never a hang or a
//! partial theory (pinned by `crates/core/tests/recovery.rs`).
//!
//! # Failures
//!
//! Every function here that receives returns `Result<_, CommFailure>` and
//! passes a failure up with `?`: a dead link, a frame that will not decode,
//! a well-formed frame the state must refuse (another kind, an index or a
//! count no honest worker sends), another rank's poison marker. Every
//! receive of the pipeline, evaluation, accept, retirement and replay
//! rounds goes through one `gather`, which refuses what its round does not
//! take. The one place a failure is *handled* is [`run_master`]'s epoch
//! loop, which recovers from a death under a watching receive while the
//! policy's budget lasts and returns everything else; the baseline's master
//! never watches and returns every failure.

use crate::bag::RuleBag;
use crate::driver::RecoveryPolicy;
use crate::partition::Partition;
use crate::protocol::{Msg, StageTrace};
use p2mdie_cluster::codec::{from_bytes, to_bytes};
use p2mdie_cluster::comm::{CommError, CommFailure, Endpoint, LinkFault};
use p2mdie_cluster::transport::Transport;
use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::Clause;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_obs::span;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A rule accepted into the global theory.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AcceptedRule {
    /// The clause.
    pub clause: Clause,
    /// Global positive cover at acceptance time (over live examples).
    pub pos: u32,
    /// Global negative cover at acceptance time.
    pub neg: u32,
    /// Epoch in which it was accepted (1-based); the covering iteration for
    /// a rule of the coverage-parallel baseline.
    pub epoch: u32,
    /// Pipeline origin the rule came from (worker rank); 0 for a rule the
    /// master found itself (the coverage-parallel baseline).
    pub origin: u8,
}

/// Trace of one epoch's `p` pipelines (raw material for Figures 3–4).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochTrace {
    /// Epoch number (1-based).
    pub epoch: u32,
    /// Stage traces, one vector per pipeline origin (index 0 = origin 1).
    pub pipelines: Vec<Vec<StageTrace>>,
    /// Pipelines that started from a seed that saturated (each
    /// `RulesFound`'s `had_seed`).
    pub seeded: u32,
    /// Rules gathered into the bag this epoch (after dedup).
    pub bag_size: u32,
    /// Rules accepted this epoch.
    pub accepted: u32,
}

impl EpochTrace {
    fn new(epoch: u32, p: usize) -> Self {
        EpochTrace {
            epoch,
            pipelines: vec![Vec::new(); p],
            seeded: 0,
            bag_size: 0,
            accepted: 0,
        }
    }
}

/// What the master reports when the run finishes.
#[derive(Clone, Debug, Default)]
pub struct MasterOutcome {
    /// The induced theory in acceptance order.
    pub theory: Vec<AcceptedRule>,
    /// Number of epochs executed.
    pub epochs: u32,
    /// Positive examples retired without a covering rule.
    pub set_aside: u32,
    /// Per-epoch pipeline traces.
    pub traces: Vec<EpochTrace>,
    /// True when the run had to bail out of an inconsistent state (no
    /// progress possible but `remaining > 0`); should never happen.
    pub stalled: bool,
    /// Ranks that died mid-run and were recovered from, in death order
    /// (always empty under [`RecoveryPolicy::Abort`]).
    pub rank_losses: Vec<u32>,
}

/// Builds the compiled-KB snapshot *once* at the master and ships it to
/// every worker as a [`Msg::KbSnapshot`], before any other message.
///
/// This replaces the paper's distributed-file-system assumption (every node
/// reads and rebuilds the background theory itself) with an explicit,
/// byte-accounted transfer: the master is charged one pass over the stored
/// facts for the build, the per-link bytes land in the traffic statistics,
/// and each worker's startup cost in virtual time is the transfer alone —
/// adoption on the worker side needs no re-interning and no re-indexing
/// (see [`p2mdie_logic::snapshot`]).
pub fn ship_kb<T: Transport>(ep: &mut Endpoint<T>, kb: &KnowledgeBase) {
    ep.advance_steps(kb.num_facts() as u64);
    ep.broadcast(&Msg::KbSnapshot(Box::new(kb.to_snapshot())));
}

/// How a learning run deals its examples to the ranks: each maps one to
/// one onto a [`Dealing`] (see "Strategies" in the module docs).
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Strategy {
    /// The paper's data-parallel pipelined algorithm (Figure 7): examples
    /// dealt once, full lattice per rank, rules scored by travelling the
    /// pipeline. The default.
    #[default]
    DataPipeline,
    /// Hypothesis-parallel: full example replication, the refinement
    /// lattice split into disjoint per-rank slices by first-literal hash.
    SearchPartition,
    /// The data pipeline with the live examples re-dealt before every
    /// epoch (§4.1's rejected alternative, implemented so its communication
    /// cost can be measured).
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

/// How a learning run's examples reach the ranks.
#[derive(Clone, Debug)]
pub enum Dealing {
    /// Dealt once, before the run (Fig. 5 steps 1–2;
    /// [`Strategy::DataPipeline`]). The partition maps every rank's local
    /// example indices back to global ones.
    Static(Partition),
    /// §4.1's rejected alternative ([`Strategy::Redeal`]): the master
    /// re-deals the live examples before every epoch, shipping the literals
    /// in full.
    Redeal,
    /// Every rank holds the full set ([`Strategy::SearchPartition`]), so a
    /// rule's counts on any rank are global and all ranks stay in lockstep.
    Replicated,
}

/// What the ranks were dealt from by the last job of a mesh: the job's set
/// (shared, not copied), the number of ranks, and how it was dealt — with
/// the seed of a static dealing. See "What a rank keeps" in
/// [`crate::scheduler`].
pub(crate) struct Dealt {
    examples: Examples,
    p: usize,
    seed: u64,
    dealing: Dealing,
}

impl Dealing {
    /// The dealing of a job on `examples` over `p` ranks — the one
    /// `strategy` names — and whether each rank must be shipped its
    /// [`Dealing::subset`]. `kept` comes in as what
    /// the ranks were dealt from by their previous job (`None`: nothing) and
    /// leaves as this job's. A job on the kept set — the same allocation, or
    /// else equal by value — dealt the same way finds every rank holding its
    /// subset: the kept dealing serves, and nothing is dealt, compared rank
    /// by rank, or shipped. Any other job is dealt afresh, ships every rank
    /// and replaces what is kept.
    pub(crate) fn plan<'k>(
        examples: &Examples,
        p: usize,
        seed: u64,
        strategy: Strategy,
        kept: &'k mut Option<Dealt>,
    ) -> (&'k Dealing, bool) {
        let same_way = |dealt: &Dealt| match dealt.dealing {
            Dealing::Static(_) => strategy == Strategy::DataPipeline && dealt.seed == seed,
            Dealing::Replicated => strategy.replicates(),
            // A re-dealing job left every rank a deal nobody remembers.
            Dealing::Redeal => false,
        };
        let held = kept
            .as_ref()
            .is_some_and(|dealt| dealt.p == p && same_way(dealt) && dealt.examples == *examples);
        if !held {
            *kept = None;
        }
        let dealt = kept.get_or_insert_with(|| Dealt {
            examples: examples.clone(),
            p,
            seed,
            dealing: match strategy {
                Strategy::DataPipeline => Dealing::Static(Partition::deal(
                    examples.num_pos(),
                    examples.num_neg(),
                    p,
                    seed,
                )),
                Strategy::Redeal => Dealing::Redeal,
                Strategy::SearchPartition => Dealing::Replicated,
            },
        });
        (&dealt.dealing, !held)
    }

    /// The subset of `examples` the `k`-th worker (from 0) is shipped: built
    /// to travel in its frame, not kept.
    pub(crate) fn subset(&self, examples: &Examples, k: usize) -> Examples {
        match self {
            Dealing::Static(part) => examples.subset(&part.pos[k], &part.neg[k]),
            Dealing::Replicated => examples.clone(),
            // Workers start empty; the first deal arrives with epoch 1.
            Dealing::Redeal => Examples::default(),
        }
    }
}

/// Sends `msg` to each of `ranks` in order. With every worker alive this
/// is [`Endpoint::broadcast`] — the same frames, in the same order, at the
/// same clock readings.
fn send_all<T: Transport>(ep: &mut Endpoint<T>, ranks: &[usize], msg: &Msg) {
    let payload = to_bytes(msg);
    for &k in ranks {
        ep.send_bytes(k, payload.clone());
    }
}

/// Receives one message from each of `ranks`, in order — every receive
/// names its source, which is what makes whole runs reproducible — and
/// hands it to `take`, whose `Err` says why the frame must be refused.
/// Returns the [`CommFailure`] of the first receive that yields nothing
/// usable. When `watching`, that includes the death of *any* rank not yet
/// acknowledged: the failure's `from` then names the dead rank, which need
/// not be the one waited on, and [`run_master`] may recover from it.
fn gather<T: Transport>(
    ep: &mut Endpoint<T>,
    ranks: &[usize],
    watching: bool,
    expected: &str,
    mut take: impl FnMut(usize, Msg) -> Result<(), &'static str>,
) -> Result<(), CommFailure> {
    for &k in ranks {
        let bytes = match watching {
            true => ep.recv_from_watching(k),
            false => ep.recv_from(k),
        };
        let bytes = bytes.map_err(|e| ep.failure(e.from, expected, e))?;
        let msg = from_bytes(bytes).map_err(|e| ep.failure(k, expected, e))?;
        take(k, msg).map_err(|why| ep.refusal(k, expected, why))?;
    }
    Ok(())
}

/// A rule that survived a pipeline: the clause, its final stage's local
/// `(pos, neg)` counts, and the pipeline's origin.
type Found = (Clause, u32, u32, u8);

/// Fig. 5 steps 6–9: starts a pipeline on each of `ranks` and gathers the
/// rules that survive all stages, in rank order, counting the pipelines that
/// had a seed into `trace.seeded`. The pipeline of origin `k` delivers from
/// its last stage, the ring predecessor of `k` (`k` itself when its ring is
/// one rank), so receiving from the ranks in order collects all of them
/// deterministically.
fn run_pipelines<T: Transport>(
    ep: &mut Endpoint<T>,
    ranks: &[usize],
    watching: bool,
    trace: &mut EpochTrace,
) -> Result<Vec<Found>, CommFailure> {
    for &k in ranks {
        ep.send(k, &Msg::StartPipeline { epoch: trace.epoch });
    }
    let mut found = Vec::new();
    gather(ep, ranks, watching, "RulesFound", |_, msg| {
        let Msg::RulesFound {
            origin,
            rules,
            had_seed,
            trace: stages,
        } = msg
        else {
            return Err("reply to StartPipeline: not a RulesFound");
        };
        let pipeline = (origin as usize)
            .checked_sub(1)
            .and_then(|i| trace.pipelines.get_mut(i));
        *pipeline.ok_or("RulesFound: an origin that is no worker rank")? = stages;
        trace.seeded += u32::from(had_seed);
        found.extend(rules.into_iter().map(|(c, pos, neg)| (c, pos, neg, origin)));
        Ok(())
    })?;
    Ok(found)
}

/// Pools pipeline harvests into a bag, one entry per α-variant.
fn bag_of(found: Vec<Found>) -> RuleBag {
    let mut bag = RuleBag::new();
    for (clause, _, _, origin) in found {
        bag.insert(clause, origin);
    }
    bag
}

/// One global evaluation round (Fig. 5 steps 10–11 / 18–19), the only one
/// in the crate: every rank of `ranks` is sent `rules` to score on its live
/// subset. This is the send half; the round's counts are [`Owed`] until
/// gathered, so a job may put more frames on the wire first.
fn evaluate<T: Transport>(ep: &mut Endpoint<T>, ranks: &[usize], rules: Vec<Clause>) -> Owed {
    let owed = Owed { rules: rules.len() };
    send_all(ep, ranks, &Msg::Evaluate { rules });
    owed
}

/// The counts an [`evaluate`] round's ranks owe: one per rule.
#[must_use = "an evaluation round's counts must be gathered"]
pub(crate) struct Owed {
    rules: usize,
}

impl Owed {
    /// The gather half of [`evaluate`]: one row of counts per rank, in rank
    /// order; a reply that is no `EvalResult`, or not one count per rule,
    /// is refused. The bag keeps the rows ([`RuleBag::set_results`]); a
    /// coverage job and the baseline sum them ([`Owed::summed`]).
    fn gather<T: Transport>(
        self,
        ep: &mut Endpoint<T>,
        ranks: &[usize],
        watching: bool,
    ) -> Result<Vec<Vec<(u32, u32)>>, CommFailure> {
        let mut rows = Vec::with_capacity(ranks.len());
        gather(ep, ranks, watching, "EvalResult", |_, msg| match msg {
            Msg::EvalResult { counts } if counts.len() == self.rules => {
                rows.push(counts);
                Ok(())
            }
            Msg::EvalResult { .. } => Err("EvalResult: not one count per rule"),
            _ => Err("reply to Evaluate: not an EvalResult"),
        })?;
        Ok(rows)
    }

    /// [`Owed::gather`] of an [`evaluate_all`] round, summed over the
    /// ranks: each rule's global `(pos, neg)` counts, in rule order.
    pub(crate) fn summed<T: Transport>(
        self,
        ep: &mut Endpoint<T>,
    ) -> Result<Vec<(u32, u32)>, CommFailure> {
        let mut totals = vec![(0u32, 0u32); self.rules];
        let ranks: Vec<usize> = (1..=ep.workers()).collect();
        for row in self.gather(ep, &ranks, false)? {
            for (t, c) in totals.iter_mut().zip(row) {
                t.0 += c.0;
                t.1 += c.1;
            }
        }
        Ok(totals)
    }
}

/// [`evaluate`] on every worker rank: a coverage job's round and each of
/// the baseline's.
pub(crate) fn evaluate_all<T: Transport>(ep: &mut Endpoint<T>, rules: Vec<Clause>) -> Owed {
    let ranks: Vec<usize> = (1..=ep.workers()).collect();
    evaluate(ep, &ranks, rules)
}

/// One pipelined rule-search epoch without the reduce step (Fig. 5 steps
/// 6–11, a `RuleSearch` job): start the `p` pipelines, pool the survivors,
/// score the bag globally, and return it best-first without consuming it.
/// The job's `Stop` goes out right behind the bag's `Evaluate`, before its
/// counts are gathered.
pub(crate) fn run_search_epoch<T: Transport>(
    ep: &mut Endpoint<T>,
    settings: &Settings,
) -> Result<Vec<(Clause, u32, u32)>, CommFailure> {
    let ranks: Vec<usize> = (1..=ep.workers()).collect();
    ep.broadcast(&Msg::LoadExamples);
    let mut trace = EpochTrace::new(1, ranks.len());
    let found = run_pipelines(ep, &ranks, false, &mut trace)?;
    let mut bag = bag_of(found);
    let owed = (!bag.is_empty()).then(|| evaluate(ep, &ranks, bag.clauses()));
    ep.broadcast(&Msg::Stop);
    if let Some(owed) = owed {
        bag.set_results(&owed.gather(ep, &ranks, false)?);
    }
    let ranked = std::iter::from_fn(|| bag.pick_best(settings.score)).map(|rule| {
        let (pos, neg) = (rule.global_pos(), rule.global_neg());
        (rule.clause, pos, neg)
    });
    Ok(ranked.collect())
}

/// Global-index bookkeeping: which positives are still uncovered, and the
/// global indices of every rank's examples in the rank's local order — the
/// key that maps `CoveredIdx` replies back to the global live set. A dead
/// rank's rows are empty.
struct GlobalIndex {
    live: Bitset,
    pos: Vec<Vec<usize>>,
    neg: Vec<Vec<usize>>,
}

/// The positives not yet covered or set aside.
enum Uncovered {
    /// Only their number is known: no worker reports indices.
    Count(usize),
    /// Tracked one by one.
    Index(GlobalIndex),
}

impl Uncovered {
    fn remaining(&self) -> usize {
        match self {
            Uncovered::Count(n) => *n,
            Uncovered::Index(ix) => ix.live.count(),
        }
    }

    fn index(&mut self) -> &mut GlobalIndex {
        match self {
            Uncovered::Index(ix) => ix,
            // invariant: `LiveSet::new` tracks by index whenever the run
            // re-deals or is told to, the only callers.
            Uncovered::Count(_) => unreachable!("this dealing tracks coverage by count only"),
        }
    }

    /// Folds rank `k`'s coverage reply into the set: local indices when
    /// tracked by index, a count otherwise. `Err` says why the reply must be
    /// refused.
    fn absorb(&mut self, k: usize, reply: Msg) -> Result<(), &'static str> {
        match (reply, self) {
            (Msg::CoveredIdx { pos }, Uncovered::Index(ix)) => {
                for local in pos {
                    let global = ix.pos[k - 1].get(local as usize);
                    ix.live
                        .clear(*global.ok_or("CoveredIdx: an index past the rank's examples")?);
                }
            }
            (Msg::SeedRetired { removed }, Uncovered::Count(n)) => {
                *n = n.saturating_sub(removed as usize)
            }
            _ => return Err("not the coverage reply this run's dealing is answered with"),
        }
        Ok(())
    }
}

/// What a run is given and never changes: the arguments of [`run_master`].
struct Run<'a> {
    settings: &'a Settings,
    examples: &'a Examples,
    dealing: &'a Dealing,
    seed: u64,
}

/// The master's view of a run in flight: which worker ranks are alive, how
/// to wait on them, and which positives are left.
pub(crate) struct LiveSet {
    /// Live worker ranks, ascending.
    alive: Vec<usize>,
    /// Recovery is armed: receives watch every link, and a failure that
    /// names a dead one is recovered from.
    watching: bool,
    uncovered: Uncovered,
    /// A rank died in a re-dealing run: the next deal must be followed by
    /// a theory replay before its pipelines start.
    resync_after_deal: bool,
}

impl LiveSet {
    /// All of `p` ranks alive and every positive left, counted — or, with
    /// `by_index` (or a re-dealing run), tracked one by one.
    pub(crate) fn new(
        p: usize,
        examples: &Examples,
        dealing: &Dealing,
        watching: bool,
        by_index: bool,
    ) -> Self {
        let live = || Bitset::full(examples.num_pos());
        let uncovered = match dealing {
            Dealing::Static(part) if by_index => Uncovered::Index(GlobalIndex {
                live: live(),
                pos: part.pos.clone(),
                neg: part.neg.clone(),
            }),
            Dealing::Redeal => Uncovered::Index(GlobalIndex {
                live: live(),
                pos: vec![Vec::new(); p],
                neg: vec![Vec::new(); p],
            }),
            Dealing::Static(_) | Dealing::Replicated => Uncovered::Count(examples.num_pos()),
        };
        LiveSet {
            alive: (1..=p).collect(),
            watching,
            uncovered,
            resync_after_deal: false,
        }
    }

    /// The positives left, one by one (a set tracked by index).
    pub(crate) fn positives(&mut self) -> &mut Bitset {
        &mut self.uncovered.index().live
    }

    /// §4.1: deals the live positives and all negatives evenly over the
    /// live ranks, shipping the literals in full — the communication cost
    /// the paper cites as the reason not to do this.
    fn deal<T: Transport>(&mut self, ep: &mut Endpoint<T>, run: &Run, epoch: u32) {
        let examples = run.examples;
        let ix = self.uncovered.index();
        let mut rng = StdRng::seed_from_u64(run.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9));
        let mut live_idx: Vec<usize> = ix.live.iter_ones().collect();
        live_idx.shuffle(&mut rng);
        let mut neg_idx: Vec<usize> = (0..examples.num_neg()).collect();
        neg_idx.shuffle(&mut rng);
        let s = self.alive.len();
        ix.pos.iter_mut().for_each(Vec::clear);
        for (i, g) in live_idx.iter().enumerate() {
            ix.pos[self.alive[i % s] - 1].push(*g);
        }
        for (j, &k) in self.alive.iter().enumerate() {
            let pos = ix.pos[k - 1]
                .iter()
                .map(|&g| examples.pos[g].clone())
                .collect();
            let neg = neg_idx
                .iter()
                .skip(j)
                .step_by(s)
                .map(|&g| examples.neg[g].clone())
                .collect();
            ep.send(k, &Msg::NewPartition { pos, neg });
        }
    }

    /// Accepts `rule`: every live rank marks its cover and asserts it. The
    /// acceptance is final the moment the broadcast is out — per-channel
    /// FIFO order means every survivor asserts the rule before it can see
    /// any abort — so it joins the theory before the replies are in.
    pub(crate) fn accept<T: Transport>(
        &mut self,
        ep: &mut Endpoint<T>,
        rule: AcceptedRule,
        theory: &mut Vec<AcceptedRule>,
    ) -> Result<(), CommFailure> {
        send_all(
            ep,
            &self.alive,
            &Msg::MarkCovered {
                rule: rule.clause.clone(),
            },
        );
        let covered = rule.pos as usize;
        theory.push(rule);
        if let Uncovered::Count(n) = &mut self.uncovered {
            *n = n.saturating_sub(covered);
            return Ok(());
        }
        gather(ep, &self.alive, self.watching, "CoveredIdx", |k, reply| {
            self.uncovered.absorb(k, reply)
        })
    }

    /// Progress guarantee: an epoch that accepted nothing retires the seed
    /// examples its pipelines started from (April sets aside examples no
    /// good rule explains). Returns how many were retired.
    fn retire_seeds<T: Transport>(
        &mut self,
        ep: &mut Endpoint<T>,
        dealing: &Dealing,
    ) -> Result<u32, CommFailure> {
        let before = self.uncovered.remaining();
        if let Dealing::Redeal = dealing {
            // A fresh deal means each rank's seed was its first example.
            let ix = self.uncovered.index();
            for &k in &self.alive {
                if let Some(&g) = ix.pos[k - 1].first() {
                    ix.live.clear(g);
                }
            }
        } else {
            send_all(ep, &self.alive, &Msg::RetireSeed);
            // Replicated ranks all retire the same shared seed; the first
            // one answers for the mesh.
            let answering = match dealing {
                Dealing::Replicated => &self.alive[..1],
                _ => &self.alive[..],
            };
            gather(
                ep,
                answering,
                self.watching,
                "a retired seed",
                |k, reply| self.uncovered.absorb(k, reply),
            )?;
        }
        Ok((before - self.uncovered.remaining()) as u32)
    }

    /// Ships the accepted theory to every survivor and folds their coverage
    /// replies into the global live set.
    fn replay_theory<T: Transport>(
        &mut self,
        ep: &mut Endpoint<T>,
        theory: &[AcceptedRule],
    ) -> Result<(), CommFailure> {
        let rules = theory.iter().map(|r| r.clause.clone()).collect();
        send_all(ep, &self.alive, &Msg::ReplayTheory { rules });
        let expected = "a ReplayTheory CoveredIdx";
        gather(ep, &self.alive, self.watching, expected, |k, reply| {
            self.uncovered.absorb(k, reply)
        })
    }

    /// The recovery protocol of the module docs, after the `losses`-th
    /// death of the run: abort and quiesce the epoch, then redistribute
    /// and resync (static dealing) or leave both to the next deal.
    fn recover<T: Transport>(
        &mut self,
        ep: &mut Endpoint<T>,
        run: &Run,
        dead: usize,
        theory: &[AcceptedRule],
        losses: usize,
    ) -> Result<(), CommFailure> {
        ep.set_recovery_phase(true);
        ep.mark_down(dead);
        self.alive.retain(|&r| r != dead);

        // 1. Abort: tell every survivor, then drain each stream up to its
        // ack — coverage replies still apply; stale pipeline, evaluation
        // and retirement results, whatever their kind, are skipped on purpose.
        send_all(ep, &self.alive, &Msg::AbortEpoch { dead: dead as u8 });
        let expected = "an AbortAck";
        for &k in &self.alive {
            loop {
                match Msg::recv(ep, k, expected)? {
                    Msg::AbortAck => break,
                    reply @ Msg::CoveredIdx { .. } => self
                        .uncovered
                        .absorb(k, reply)
                        .map_err(|why| ep.refusal(k, expected, why))?,
                    _ => {}
                }
            }
        }
        ep.clear_pending(dead);

        if let Dealing::Static(_) = run.dealing {
            // 2. Redistribute the orphaned examples over the survivors.
            let examples = run.examples;
            let ix = self.uncovered.index();
            let mut orphan_pos: Vec<usize> = std::mem::take(&mut ix.pos[dead - 1]);
            orphan_pos.retain(|&g| ix.live.get(g));
            let mut orphan_neg: Vec<usize> = std::mem::take(&mut ix.neg[dead - 1]);
            let mut rng = StdRng::seed_from_u64(
                run.seed ^ (losses as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            orphan_pos.shuffle(&mut rng);
            orphan_neg.shuffle(&mut rng);
            let s = self.alive.len();
            for (j, &k) in self.alive.iter().enumerate() {
                let share = |orphans: &[usize]| -> Vec<usize> {
                    orphans.iter().skip(j).step_by(s).copied().collect()
                };
                let (pos_idx, neg_idx) = (share(&orphan_pos), share(&orphan_neg));
                ep.send(
                    k,
                    &Msg::AdoptExamples {
                        pos: pos_idx.iter().map(|&g| examples.pos[g].clone()).collect(),
                        neg: neg_idx.iter().map(|&g| examples.neg[g].clone()).collect(),
                    },
                );
                // Adoption appends, so local indices extend in sent order.
                ix.pos[k - 1].extend(pos_idx);
                ix.neg[k - 1].extend(neg_idx);
            }

            // 3. Resync: replay the theory so both sides agree on the
            // live set exactly. A second death here exceeds the protocol.
            self.replay_theory(ep, theory)?;
        } else {
            self.resync_after_deal = true;
        }
        ep.set_recovery_phase(false);
        Ok(())
    }
}

/// The reduce step on partitioned examples (Fig. 5 steps 10–22): consume
/// the globally-evaluated bag.
fn consume_bag<T: Transport>(
    ep: &mut Endpoint<T>,
    settings: &Settings,
    live: &mut LiveSet,
    mut bag: RuleBag,
    out: &mut MasterOutcome,
    trace: &mut EpochTrace,
) -> Result<(), CommFailure> {
    if bag.is_empty() {
        return Ok(());
    }
    let owed = evaluate(ep, &live.alive, bag.clauses());
    bag.set_results(&owed.gather(ep, &live.alive, live.watching)?);
    loop {
        bag.drop_not_good(settings);
        // Bag bookkeeping is master-side compute: charge one step per
        // scanned rule.
        ep.advance_steps(bag.len() as u64);
        let Some(best) = bag.pick_best(settings.score) else {
            return Ok(());
        };
        let rule = AcceptedRule {
            pos: best.global_pos(),
            neg: best.global_neg(),
            clause: best.clause,
            epoch: trace.epoch,
            origin: best.origin,
        };
        live.accept(ep, rule, &mut out.theory)?;
        trace.accepted += 1;
        if bag.is_empty() {
            return Ok(());
        }
        let owed = evaluate(ep, &live.alive, bag.clauses());
        bag.set_results(&owed.gather(ep, &live.alive, live.watching)?);
    }
}

/// The reduce step on replicated examples: the counts inside each
/// `RulesFound` are already global, so the single best acceptable rule of
/// the pool is accepted — no evaluation round. Duplicates kept their first
/// copy (lowest rank, best local order) and ties keep the earliest pool
/// entry, so the choice is deterministic.
fn accept_best_of_pool<T: Transport>(
    ep: &mut Endpoint<T>,
    settings: &Settings,
    live: &mut LiveSet,
    pool: Vec<Found>,
    out: &mut MasterOutcome,
    trace: &mut EpochTrace,
) -> Result<(), CommFailure> {
    // Master-side pool scan is compute: one step per pooled rule.
    ep.advance_steps(pool.len() as u64);
    // `max_by_key` keeps the last of equal maxima: scan from the back.
    let best = pool
        .into_iter()
        .filter(|(_, pos, neg, _)| settings.is_good(*pos, *neg))
        .rev()
        .max_by_key(|(clause, pos, neg, _)| settings.score.score(*pos, *neg, clause.body.len()));
    if let Some((clause, pos, neg, origin)) = best {
        let epoch = trace.epoch;
        let rule = AcceptedRule {
            clause,
            pos,
            neg,
            epoch,
            origin,
        };
        live.accept(ep, rule, &mut out.theory)?;
        trace.accepted = 1;
    }
    Ok(())
}

/// One epoch. `Ok(false)` when no progress is possible: nothing was
/// accepted and retiring the seeds retired nothing — the run's one stall
/// guard (the count of uncovered positives drifted from what the workers
/// hold, which should be impossible; bail out rather than spin). A pipeline
/// whose seed did not saturate found nothing, so its seed is retired like
/// any other. `Err` with the failure of the receive that ended it — under a
/// watching receive, a rank's death.
fn run_epoch<T: Transport>(
    ep: &mut Endpoint<T>,
    run: &Run,
    live: &mut LiveSet,
    out: &mut MasterOutcome,
    trace: &mut EpochTrace,
) -> Result<bool, CommFailure> {
    if let Dealing::Redeal = run.dealing {
        live.deal(ep, run, trace.epoch);
        if live.resync_after_deal {
            ep.set_recovery_phase(true);
            live.replay_theory(ep, &out.theory)?;
            ep.set_recovery_phase(false);
            live.resync_after_deal = false;
            if live.uncovered.remaining() == 0 {
                return Ok(true);
            }
        }
    }

    let found = run_pipelines(ep, &live.alive, live.watching, trace)?;
    if let Dealing::Replicated = run.dealing {
        let mut pool: Vec<Found> = Vec::new();
        for rule in found {
            if !pool.iter().any(|(clause, ..)| *clause == rule.0) {
                pool.push(rule);
            }
        }
        trace.bag_size = pool.len() as u32;
        accept_best_of_pool(ep, run.settings, live, pool, out, trace)?;
    } else {
        let bag = bag_of(found);
        trace.bag_size = bag.len() as u32;
        consume_bag(ep, run.settings, live, bag, out, trace)?;
    }

    if trace.accepted == 0 {
        let retired = live.retire_seeds(ep, run.dealing)?;
        if retired == 0 {
            return Ok(false);
        }
        out.set_aside += retired;
    }
    Ok(true)
}

/// Runs the master protocol of Figure 5 over `examples` as dealt by
/// `dealing` (which must describe the exact subsets the workers hold);
/// `settings` must be the same the workers use (shared data assumption).
/// `seed` drives the per-epoch re-deals and the redistribution of a dead
/// rank's examples. Under [`RecoveryPolicy::Repartition`] up to
/// `max_rank_losses` deaths are absorbed; one more is returned as the run's
/// failure, naming the rank, like every other receive the run cannot go on
/// from (see "Failures" in the module docs). On `Err` no `Stop` has been
/// sent: the caller's runtime wakes the workers.
pub fn run_master<T: Transport>(
    ep: &mut Endpoint<T>,
    settings: &Settings,
    examples: &Examples,
    dealing: &Dealing,
    seed: u64,
    recovery: &RecoveryPolicy,
) -> Result<MasterOutcome, CommFailure> {
    let p = ep.workers();
    let budget = match recovery {
        RecoveryPolicy::Abort => None,
        RecoveryPolicy::Repartition { max_rank_losses } => Some(*max_rank_losses),
    };
    // invariant: the caller's configuration (`driver::check_combination`
    // refuses the pair; service jobs never recover), not a peer's bytes.
    assert!(
        budget.is_none() || !matches!(dealing, Dealing::Replicated),
        "worker-death recovery only covers partitioned examples"
    );
    let run = Run {
        settings,
        examples,
        dealing,
        seed,
    };
    let watching = budget.is_some();
    let mut live = LiveSet::new(p, examples, dealing, watching, watching);
    let mut out = MasterOutcome::default();

    ep.broadcast(&Msg::LoadExamples);

    while live.uncovered.remaining() > 0 {
        out.epochs += 1;
        let epoch_span = span!(ep.tracer(), "epoch", ep.now(), epoch = out.epochs);
        let mut trace = EpochTrace::new(out.epochs, p);
        let end = run_epoch(ep, &run, &mut live, &mut out, &mut trace);
        let accepted = trace.accepted;
        out.traces.push(trace);
        match end {
            Ok(true) => {
                let remaining = live.uncovered.remaining() as u64;
                epoch_span.end_with(
                    ep.now(),
                    &[
                        ("accepted", accepted.into()),
                        ("remaining", remaining.into()),
                    ],
                );
            }
            Ok(false) => {
                out.stalled = true;
                epoch_span.end(ep.now());
                break;
            }
            Err(failure) => {
                // A death to recover from is a link that died under a
                // watching receive; anything else ends the run.
                let (dead, allowed) = match (&failure.error, budget) {
                    (CommError::Closed(e), Some(allowed))
                        if !matches!(e.fault, LinkFault::Poison { .. }) =>
                    {
                        (e.from, allowed)
                    }
                    _ => return Err(failure),
                };
                out.rank_losses.push(dead as u32);
                let losses = out.rank_losses.len();
                if losses as u32 > allowed {
                    let expected = format!(
                        "a live worker (recovery budget exhausted: \
                         {losses} rank losses, policy allows {allowed})"
                    );
                    return Err(CommFailure {
                        expected,
                        ..failure
                    });
                }
                live.recover(ep, &run, dead, &out.theory, losses)?;
                epoch_span.end_with(ep.now(), &[("aborted_by_death_of", (dead as u64).into())]);
            }
        }
    }

    send_all(ep, &live.alive, &Msg::Stop);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_parallel, ParallelConfig};
    use crate::fixtures::{check_complete_and_consistent, problem};
    use p2mdie_cluster::CostModel;
    use p2mdie_ilp::settings::Width;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::term::Term;

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

    /// Two positives no head mode matches never saturate, so no pipeline
    /// seeded by one finds a rule: every strategy sets both aside, as the
    /// sequential loop does, instead of stalling, and learns the rest.
    #[test]
    fn every_strategy_sets_aside_a_positive_that_does_not_saturate() {
        let (engine, ex) = problem(60);
        let other = engine.kb.symbols().intern("other");
        let unsaturable = [7, 11].map(|i| Literal::new(other, vec![Term::Int(i)]));
        let with_others = Examples::new(
            ex.pos.iter().cloned().chain(unsaturable).collect(),
            ex.neg.to_vec(),
        );
        let (kb, modes, settings) = (&engine.kb, &engine.modes, &engine.settings);
        let sequential = p2mdie_ilp::run_sequential(kb, modes, settings, &with_others);
        assert_eq!(sequential.set_aside, 2);
        for strategy in Strategy::ALL {
            for workers in [1, 2, 3] {
                let rep = run_parallel(&engine, &with_others, &cfg(workers, strategy)).unwrap();
                let run = format!("{strategy} with {workers} workers");
                assert!(!rep.stalled, "{run} stalled");
                assert_eq!(rep.set_aside as usize, sequential.set_aside, "{run}");
                check_complete_and_consistent(&engine, &ex, &rep.clauses());
            }
        }
    }
}
