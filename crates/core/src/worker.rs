//! The worker rank (paper Figure 6 plus the stage scheduling of Figure 7).
//!
//! A worker's epoch is a fixed, deterministic script — the message pattern
//! of p²-mdie is static, so every receive names its source rank (MPI-style
//! `recv_from`), which makes whole runs reproducible:
//!
//! 1. `StartPipeline` from the master → run stage 1 of *this* worker's
//!    pipeline and forward the token;
//! 2. exactly `p − 1` `PipelineStage` tokens from the predecessor → run
//!    their next stage, forward (to the successor, or to the master as
//!    `RulesFound` after stage `p`);
//! 3. then serve master commands — `Evaluate`, `MarkCovered`, `RetireSeed` —
//!    until the next `StartPipeline` or `Stop`.
//!
//! [`run_worker`] is the only worker loop; a run's variations are data in
//! its [`WorkerContext`]. A worker that is never sent a `StartPipeline` is
//! the worker of the coverage-parallel baseline ([`crate::baselines`]):
//! step 3 is all that master asks for. A worker of
//! [`Strategy::SearchPartition`] holds the full example set, so steps 1–2 are
//! one replicated epoch ([`crate::strategy`]) answered with `RulesFound`
//! directly — no token travels the ring — and only rank 1 answers
//! `RetireSeed`. `run_role` builds the context a [`WorkerConfig`] names.
//!
//! # Recovery mode
//!
//! When the master broadcasts [`Msg::EnableRecovery`] before `LoadExamples`,
//! the worker arms the rank-death protocol. The ring is then *membership
//! dependent*: each `StartPipeline` recomputes the successor/predecessor
//! from the local live-rank set, and every mid-epoch receive watches the
//! master channel too, so an [`Msg::AbortEpoch`] can interrupt a stage wait.
//! An abort quiesces the old ring deterministically — send an
//! [`Msg::EpochFlush`] marker to the old successor, drain the old
//! predecessor down to its marker, ack the master — after which the worker
//! can adopt a dead rank's examples ([`Msg::AdoptExamples`]) and answer a
//! theory replay ([`Msg::ReplayTheory`]) so the master's global live set
//! resynchronizes exactly. Without `EnableRecovery` none of this code runs,
//! and a frame that belongs to it is refused.
//!
//! # Failures
//!
//! [`run_worker`] returns `Result<_, CommFailure>`: a receive that yields
//! nothing the loop's state can act on — a dead link, a frame that will not
//! decode, a well-formed frame of a kind or with contents the state must
//! refuse (a master-bound message, a recovery frame on a run that armed no
//! recovery, a dead rank that is this one or none) — ends the loop with the
//! failure naming this rank and the sender. Nothing here unwinds on what a
//! peer sent.

use crate::pipeline::run_stage_search;
use crate::protocol::{Msg, PipelineToken, StageTrace, WorkerConfig, WorkerRole};
use crate::strategy::{run_strategy_epoch, Strategy};
use p2mdie_cluster::codec::from_bytes;
use p2mdie_cluster::comm::{CommFailure, Endpoint};
use p2mdie_cluster::transport::Transport;
use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::Width;
use p2mdie_ilp::CoverageMemo;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::{KnowledgeBase, RuleMark};
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::KbSnapshot;
use p2mdie_obs::span;

/// Everything a worker owns locally: its engine (background knowledge,
/// modes, settings), its example subset, the pipeline width, and the
/// strategy the mesh runs.
///
/// The engine's `settings.eval_threads` controls how many OS threads this
/// rank's coverage evaluations fan out over (the driver splits the physical
/// cores across ranks); results are bit-identical for any value, so the
/// simulated cluster stays deterministic while exploiting real cores.
pub struct WorkerContext {
    /// The local ILP engine (the KB grows as rules are accepted).
    pub engine: IlpEngine,
    /// The local example subset `(E+_k, E-_k)`.
    pub local: Examples,
    /// Pipeline width `W`.
    pub width: Width,
    /// Answer every `MarkCovered` with the covered local indices, for a
    /// master that tracks the global live set itself: §4.1 repartitioning
    /// (which re-deals the live examples every epoch via `NewPartition`)
    /// and the coverage-parallel baseline. Recovery mode turns the replies
    /// on by itself.
    pub report_covered: bool,
    /// How the ranks divide the run. Anything but the data pipeline means
    /// `local` is the **full** example set, replicated on every rank.
    pub strategy: Strategy,
    /// Seed salting the strategy's lattice slices.
    pub strategy_seed: u64,
}

impl WorkerContext {
    /// A static-partition context (plain p²-mdie).
    pub fn new(engine: IlpEngine, local: Examples, width: Width) -> Self {
        WorkerContext {
            engine,
            local,
            width,
            report_covered: false,
            strategy: Strategy::DataPipeline,
            strategy_seed: 0,
        }
    }
}

/// Runs the worker loop on rank `ep.rank()` as `config` describes it, over
/// `kb` and the rank's example subset, until the master's `Stop`; `memo` and
/// the return value are [`run_worker`]'s. The one place a [`WorkerConfig`]
/// becomes a [`WorkerContext`]: every rank runs its jobs through here.
pub(crate) fn run_role<T: Transport>(
    ep: &mut Endpoint<T>,
    kb: KnowledgeBase,
    config: WorkerConfig,
    local: Examples,
    memo: &mut CoverageMemo,
) -> Result<(KnowledgeBase, Option<Examples>), CommFailure> {
    let (width, report_covered) = match config.role {
        WorkerRole::Pipeline { width, repartition } => (width, repartition),
        // No pipeline ever starts on a coverage rank: the width is never read.
        WorkerRole::Coverage => (Width::Unlimited, true),
    };
    let ctx = WorkerContext {
        engine: IlpEngine {
            kb,
            modes: config.modes,
            settings: config.settings,
        },
        local,
        width,
        report_covered,
        strategy: config.strategy,
        strategy_seed: config.strategy_seed,
    };
    run_worker(ep, ctx, memo)
}

/// Rebuilds a worker's KB from a received compiled snapshot, interning its
/// dictionary into `syms`: no fact-argument re-interning, no posting-list
/// rebuild, no rule recompile — the transfer time was already merged into
/// the rank's clock by the receive, and adoption is the near-instant
/// structural validation inside `from_snapshot`. A worker process passes a
/// fresh table, which reproduces the master's symbol ids exactly.
///
/// A snapshot that decodes but fails validation is a bad frame from the
/// master like any other: refused, naming the violated invariant.
pub(crate) fn restore_kb<T: Transport>(
    ep: &Endpoint<T>,
    snap: KbSnapshot,
    syms: SymbolTable,
) -> Result<KnowledgeBase, CommFailure> {
    KnowledgeBase::from_snapshot(snap, syms).map_err(|e| ep.refusal(0, KB_SNAPSHOT, e.context))
}

/// What a rank expects when it is receiving, or validating, its KB.
pub(crate) const KB_SNAPSHOT: &str = "the KB snapshot";

/// What the worker loop expects between epochs.
const COMMAND: &str = "a master command";

/// How an epoch's pipelines ended.
enum EpochEnd {
    /// All `p` stages ran; the final token went to the master.
    Done,
    /// The master aborted the epoch because rank `dead` is gone.
    /// `prev_flushed` records whether the old predecessor's
    /// [`Msg::EpochFlush`] marker was already consumed by the stage loop.
    Aborted { dead: usize, prev_flushed: bool },
}

/// The ring neighbours of `me` within the live-rank set `alive` (which
/// must contain `me`). With a single live rank both neighbours are `me`.
fn ring_neighbors(me: usize, alive: &[usize]) -> (usize, usize) {
    let pos = alive
        .iter()
        .position(|&r| r == me)
        // invariant: `handle_abort`, the one place `alive` shrinks, refuses
        // an abort that names this rank.
        .expect("own rank must be in the live set");
    let len = alive.len();
    (alive[(pos + 1) % len], alive[(pos + len - 1) % len])
}

/// Quiesces the old ring after the master announced rank `dead` is gone:
/// shrink the live set, send the flush marker to the old successor, drain
/// the old predecessor down to *its* marker (unless the stage loop already
/// consumed it), ack the master, and forget everything buffered from the
/// dead rank. Refused: an abort on a run that armed no recovery, or one
/// whose dead rank is this rank or no live worker.
fn handle_abort<T: Transport>(
    ep: &mut Endpoint<T>,
    alive: &mut Vec<usize>,
    recovery: bool,
    dead: usize,
    prev_flushed: bool,
) -> Result<(), CommFailure> {
    let me = ep.rank();
    if !recovery || dead == me || !alive.contains(&dead) {
        let why = "AbortEpoch: no recovery armed, or a dead rank that is this rank or not alive";
        return Err(ep.refusal(0, COMMAND, why));
    }
    let quiesce = span!(ep.tracer(), "quiesce", ep.now(), dead = dead);
    let (old_next, old_prev) = ring_neighbors(me, alive);
    alive.retain(|&r| r != dead);
    ep.set_recovery_phase(true);
    if old_next != dead && old_next != me {
        ep.send(old_next, &Msg::EpochFlush);
    }
    if !prev_flushed && old_prev != dead && old_prev != me {
        // Discard stale pipeline traffic up to the predecessor's marker; a
        // dead link counts as fully drained (nothing more can arrive).
        while let Ok(bytes) = ep.recv_from(old_prev) {
            if matches!(from_bytes::<Msg>(bytes), Ok(Msg::EpochFlush)) {
                break;
            }
        }
    }
    ep.send(0, &Msg::AbortAck);
    ep.set_recovery_phase(false);
    ep.clear_pending(dead);
    ep.mark_down(dead);
    quiesce.end(ep.now());
    Ok(())
}

/// Runs the worker protocol until `Stop`. Rank 0 is the master; this must
/// be called on ranks `1..=p`.
///
/// `memo` is the rank's coverage memo: every search of every stage and
/// epoch and every rule the master asks to be scored goes through it. It
/// must hold nothing, or what an earlier call left in it for the same
/// `ctx.local`, the same proof limits and the same `ctx.engine.kb`; what
/// this call leaves in it stands for the two values returned — the KB as it
/// was before the job's first `MarkCovered` (the job's asserts die with the
/// job: `Stop` undoes them), and the example subset, `None` when the job
/// replaced it (`NewPartition`, `AdoptExamples`), for then the master no
/// longer knows what the rank holds.
///
/// `Err` is the failure of the receive the loop could not go on from (see
/// "Failures" in the module docs); the caller's runtime reports it.
pub fn run_worker<T: Transport>(
    ep: &mut Endpoint<T>,
    mut ctx: WorkerContext,
    memo: &mut CoverageMemo,
) -> Result<(KnowledgeBase, Option<Examples>), CommFailure> {
    let me = ep.rank();
    // invariant: the caller's choice of rank, not anything a peer sent.
    assert!(me >= 1, "run_worker must not run on the master rank");
    let replicated = ctx.strategy != Strategy::DataPipeline;
    let mut live = ctx.local.full_pos_live();
    let mut current_seed: Option<usize> = None;
    let mut recovery = false;
    // The ring: only a recovering run ever shrinks it.
    let mut alive: Vec<usize> = (1..=ep.workers()).collect();
    // Where the rules stood before the first assert, whether a rule body can
    // call what was asserted since, and whether `ctx.local` is still the
    // subset dealt.
    let mut mark: Option<RuleMark> = None;
    let mut stale = false;
    let mut replaced = false;
    // Every rule the master asks about is scored like a search node: through
    // the memo, charged as if proved.
    let score = |ctx: &WorkerContext, memo: &mut CoverageMemo, rules: &[Clause], live: &Bitset| {
        let (kb, settings) = (&ctx.engine.kb, &ctx.engine.settings);
        memo.evaluate_rules(kb, settings, rules, &ctx.local, live)
    };

    loop {
        match Msg::recv(ep, 0, COMMAND)? {
            // Frames of modes this run is not in are refused, not served.
            Msg::AdoptExamples { .. } | Msg::ReplayTheory { .. } if !recovery => {
                return Err(ep.refusal(0, COMMAND, "a recovery frame, and no recovery armed"));
            }
            Msg::NewPartition { .. } if !ctx.report_covered => {
                return Err(ep.refusal(0, COMMAND, "NewPartition: not a re-dealing run"));
            }
            Msg::KbSnapshot(snap) => {
                let syms = ctx.engine.kb.symbols().clone();
                ctx.engine.kb = restore_kb(ep, *snap, syms)?;
                (mark, stale) = (None, false);
                memo.clear();
            }
            Msg::EnableRecovery => recovery = true,
            Msg::LoadExamples => {
                // Data is shared (distributed-FS assumption); loading costs
                // compute proportional to the local subset.
                ep.advance_steps(ctx.local.len() as u64);
            }
            Msg::StartPipeline { epoch: _ } if replicated => {
                // Every rank picks the first live positive: the shared seed.
                current_seed = live.first();
                let (rules, trace, had_seed) =
                    run_strategy_epoch(ep, &ctx, &live, current_seed, memo);
                ep.send(
                    0,
                    &Msg::RulesFound {
                        origin: me as u8,
                        rules,
                        had_seed,
                        trace,
                    },
                );
            }
            Msg::StartPipeline { epoch: _ } => {
                let end = run_epoch_pipelines(
                    ep,
                    &ctx,
                    &live,
                    &mut current_seed,
                    &alive,
                    recovery,
                    memo,
                )?;
                if let EpochEnd::Aborted { dead, prev_flushed } = end {
                    handle_abort(ep, &mut alive, recovery, dead, prev_flushed)?;
                }
            }
            // A rank died while this worker was between epochs; the quiesce
            // still runs so ring markers pair up everywhere.
            Msg::AbortEpoch { dead } => {
                handle_abort(ep, &mut alive, recovery, dead as usize, false)?
            }
            Msg::AdoptExamples { pos, neg } => {
                // Inherit a dead rank's (still-live) examples on top of the
                // current subset; adopted positives start live.
                ep.advance_steps((pos.len() + neg.len()) as u64);
                let old_len = ctx.local.num_pos();
                ctx.local.pos.extend(pos);
                ctx.local.neg.extend(neg);
                let mut grown = Bitset::new(ctx.local.num_pos());
                for i in live.iter_ones() {
                    grown.set(i);
                }
                for i in old_len..ctx.local.num_pos() {
                    grown.set(i);
                }
                live = grown;
                replaced = true;
                memo.clear();
            }
            Msg::ReplayTheory { rules } => {
                // Re-score the accepted theory against the (possibly just
                // adopted) live set and report everything it covers, so the
                // master can rebuild its global live set exactly. The rules
                // are NOT re-asserted — the KB already holds them.
                let mut covered = Bitset::new(ctx.local.num_pos());
                for cov in score(&ctx, memo, &rules, &live) {
                    ep.advance_steps(cov.steps);
                    covered.union_with(&cov.pos);
                }
                let idx: Vec<u32> = covered.iter_ones().map(|i| i as u32).collect();
                ep.set_recovery_phase(true);
                ep.send(0, &Msg::CoveredIdx { pos: idx });
                ep.set_recovery_phase(false);
                live.difference_with(&covered);
            }
            Msg::Evaluate { rules } => {
                let mut counts = Vec::with_capacity(rules.len());
                for cov in score(&ctx, memo, &rules, &live) {
                    ep.advance_steps(cov.steps);
                    counts.push((cov.pos_count(), cov.neg_count()));
                }
                ep.send(0, &Msg::EvalResult { counts });
            }
            Msg::MarkCovered { rule } => {
                let cov = score(&ctx, memo, std::slice::from_ref(&rule), &live)
                    .pop()
                    // invariant: `evaluate_rules` returns a coverage per rule.
                    .expect("one rule, one coverage");
                ep.advance_steps(cov.steps);
                if ctx.report_covered || recovery {
                    let idx: Vec<u32> = cov.pos.iter_ones().map(|i| i as u32).collect();
                    ep.send(0, &Msg::CoveredIdx { pos: idx });
                }
                live.difference_with(&cov.pos);
                // Fig. 6: B := B ∪ {R}. What the memo holds was computed
                // without R, and stands unless a rule body can call R —
                // never so for a target that is no body-mode predicate over
                // a KB whose rules do not mention it.
                let head = rule.head.key();
                mark.get_or_insert_with(|| ctx.engine.kb.rule_mark());
                ctx.engine.assert_rule(rule);
                if ctx.engine.callable_from_bodies(head) {
                    memo.clear();
                    stale = true;
                }
            }
            Msg::NewPartition { pos, neg } => {
                // §4.1 repartitioning: adopt the freshly-dealt subset.
                ep.advance_steps((pos.len() + neg.len()) as u64);
                ctx.local = Examples::new(pos, neg);
                live = ctx.local.full_pos_live();
                current_seed = None;
                replaced = true;
                memo.clear();
            }
            Msg::RetireSeed => {
                let retired = current_seed.filter(|&i| live.get(i));
                if let Some(i) = retired {
                    live.clear(i);
                }
                // Replicated ranks all retired the same shared seed; rank 1
                // answers for the mesh.
                if replicated && me != 1 {
                    continue;
                }
                // A master that tracks coverage by global index (recovery)
                // is told which example went, any other how many.
                let reply = if recovery {
                    Msg::CoveredIdx {
                        pos: retired.map(|i| i as u32).into_iter().collect(),
                    }
                } else {
                    Msg::SeedRetired {
                        removed: retired.is_some() as u32,
                    }
                };
                ep.send(0, &reply);
            }
            Msg::Stop => {
                if let Some(mark) = mark {
                    ctx.engine.kb.undo_rules(&mark);
                    // Whatever was stored since a callable assert saw
                    // `B ∪ {R}`, and `R` goes with the job.
                    if stale {
                        memo.clear();
                    }
                }
                return Ok((ctx.engine.kb, (!replaced).then_some(ctx.local)));
            }
            _ => return Err(ep.refusal(0, COMMAND, "not a command a worker takes")),
        }
    }
}

/// Stage 1 of the own pipeline plus the `p − 1` incoming stages.
///
/// In recovery mode every stage wait watches the master channel too: an
/// [`Msg::AbortEpoch`] (or the death of the ring predecessor itself)
/// interrupts the epoch and returns [`EpochEnd::Aborted`] so the caller can
/// quiesce the ring.
fn run_epoch_pipelines<T: Transport>(
    ep: &mut Endpoint<T>,
    ctx: &WorkerContext,
    live: &Bitset,
    current_seed: &mut Option<usize>,
    alive: &[usize],
    recovery: bool,
    memo: &mut CoverageMemo,
) -> Result<EpochEnd, CommFailure> {
    let me = ep.rank();
    let p = alive.len();
    let (next, prev) = ring_neighbors(me, alive);
    // --- Stage 1: seed, saturate, search. -----------------------------
    // Seeds advance round-robin through the live set (April's "select an
    // example"): picking the next live example after the previous seed
    // keeps one uncoverable example from monopolizing this pipeline.
    *current_seed = live.next_after(*current_seed);
    let own = PipelineToken {
        origin: me as u8,
        step: 1,
        bottom: None,
        rules: Vec::new(),
        trace: Vec::new(),
    };
    let seed = current_seed.map(|idx| &ctx.local.pos[idx]);
    run_stage(ep, ctx, live, p, next, own, seed, memo);

    // --- Stages 2..=p of the pipelines passing through this worker. ----
    let expected = "a PipelineStage token";
    for _ in 0..p.saturating_sub(1) {
        let token = if recovery {
            match recv_token_watching(ep, prev)? {
                Ok(token) => token,
                Err(end) => return Ok(end),
            }
        } else {
            Msg::expect(ep, prev, expected, |msg| match msg {
                Msg::PipelineStage(token) => Ok(token),
                _ => Err("not a pipeline token"),
            })?
        };
        // What the stage would index with must be in range before it runs.
        let lits = token.bottom.as_ref().map_or(0, |b| b.lits.len() as u32);
        let mut indices = token.rules.iter().flat_map(|r| &r.shape.lits);
        if !(2..=p).contains(&(token.step as usize)) || indices.any(|&i| i >= lits) {
            let why = "PipelineStage: a stage or a literal that does not exist";
            return Err(ep.refusal(prev, expected, why));
        }
        run_stage(ep, ctx, live, p, next, token, None, memo);
    }
    Ok(EpochEnd::Done)
}

/// Runs stage `token.step` of pipeline `token.origin` on this worker and
/// forwards the token. Stage 1 — the only one given a `seed` — first
/// saturates it into the bottom clause the whole pipeline searches under;
/// a token without one (no live seed, or one that does not saturate) just
/// keeps the schedule static.
#[allow(clippy::too_many_arguments)]
fn run_stage<T: Transport>(
    ep: &mut Endpoint<T>,
    ctx: &WorkerContext,
    live: &Bitset,
    p: usize,
    next: usize,
    mut token: PipelineToken,
    seed: Option<&Literal>,
    memo: &mut CoverageMemo,
) {
    let start = ep.now();
    let step = token.step;
    let stage_span = span!(
        ep.tracer(),
        "stage",
        start,
        origin = token.origin,
        step = step,
    );
    let rules_in = token.rules.len() as u32;
    if let Some(example) = seed {
        token.bottom = ctx.engine.saturate(example);
        if let Some(bottom) = &token.bottom {
            ep.advance_steps(bottom.steps);
        }
    }
    token.rules = match &token.bottom {
        None => Vec::new(),
        Some(bottom) => {
            let stage = run_stage_search(
                &ctx.engine,
                &ctx.local,
                live,
                bottom,
                &token.rules,
                ctx.width,
                memo,
            );
            ep.advance_steps(stage.steps);
            stage.rules
        }
    };
    let rules_out = token.rules.len() as u32;
    stage_span.end_with(ep.now(), &[("rules_out", u64::from(rules_out).into())]);
    token.trace.push(StageTrace {
        worker: ep.rank() as u8,
        step,
        start,
        end: ep.now(),
        rules_in,
        rules_out,
    });
    token.step = step + 1;
    dispatch(ep, p, next, token);
}

/// One mid-epoch receive in recovery mode: a pipeline token from `prev`
/// wins, a master `AbortEpoch` (or an `EpochFlush` from a predecessor
/// already aborting, followed by the master's `AbortEpoch`) ends the epoch,
/// and a dead predecessor link blocks on the master's announcement.
/// Anything else — a dead master link, a frame of another kind — is the
/// `Err`.
fn recv_token_watching<T: Transport>(
    ep: &mut Endpoint<T>,
    prev: usize,
) -> Result<Result<PipelineToken, EpochEnd>, CommFailure> {
    let expected = "a pipeline token or an epoch abort";
    // The master's word on which rank is gone, once the ring said one is.
    let abort = |ep: &mut Endpoint<T>, expected: &str, prev_flushed| {
        Msg::expect(ep, 0, expected, |msg| match msg {
            Msg::AbortEpoch { dead } => Ok(Err(EpochEnd::Aborted {
                dead: dead as usize,
                prev_flushed,
            })),
            _ => Err("not an AbortEpoch"),
        })
    };
    let (src, bytes) = match ep.recv_from_either(prev, 0) {
        Ok(delivered) => delivered,
        // The predecessor's link itself died (socket transports); the
        // master will confirm which rank is gone.
        Err(e) if e.from == prev => return abort(ep, "an AbortEpoch after a ring death", false),
        Err(e) => return Err(ep.failure(e.from, expected, e)),
    };
    let msg = from_bytes(bytes).map_err(|e| ep.failure(src, expected, e))?;
    match (src, msg) {
        (s, Msg::PipelineStage(token)) if s == prev => Ok(Ok(token)),
        // The predecessor is already quiescing; the master's abort for us
        // is on its way.
        (s, Msg::EpochFlush) if s == prev => abort(ep, "an AbortEpoch after a ring flush", true),
        (0, Msg::AbortEpoch { dead }) => Ok(Err(EpochEnd::Aborted {
            dead: dead as usize,
            prev_flushed: false,
        })),
        (s, _) => Err(ep.refusal(s, expected, "no token, ring flush or epoch abort")),
    }
}

/// Forwards a token whose `step` is the stage the *receiver* would run: to
/// the next worker while `step <= p`, to the master as `RulesFound` after
/// the final stage.
fn dispatch<T: Transport>(ep: &mut Endpoint<T>, p: usize, next: usize, token: PipelineToken) {
    if (token.step as usize) <= p {
        ep.send(next, &Msg::PipelineStage(token));
        return;
    }
    let had_seed = token.bottom.is_some();
    let rules = match &token.bottom {
        None => Vec::new(),
        Some(bottom) => token
            .rules
            .iter()
            .map(|r| (r.shape.to_clause(bottom), r.pos, r.neg))
            .collect(),
    };
    ep.send(
        0,
        &Msg::RulesFound {
            origin: token.origin,
            rules,
            had_seed,
            trace: token.trace,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_cluster::codec::to_bytes;
    use p2mdie_cluster::{run_cluster, CostModel};
    use p2mdie_ilp::modes::ModeSet;
    use p2mdie_ilp::settings::Settings;
    use p2mdie_logic::clause::{Clause, Literal};
    use p2mdie_logic::kb::KnowledgeBase;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    fn make_ctx(lo: i64, hi: i64) -> (SymbolTable, WorkerContext) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=60i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(t.intern("even"), vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(t.intern("div3"), vec![Term::Int(i)]));
            }
        }
        let modes =
            ModeSet::parse(&t, "div6(+num)", &[(1, "even(+num)"), (1, "div3(+num)")]).unwrap();
        let tgt = t.intern("div6");
        let local = Examples::new(
            (lo..=hi)
                .filter(|i| i % 6 == 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
            (lo..=hi)
                .filter(|i| i % 6 != 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
        );
        let engine = IlpEngine::new(
            kb,
            modes,
            Settings {
                min_pos: 1,
                noise: 0,
                ..Settings::default()
            },
        );
        (t, WorkerContext::new(engine, local, Width::Unlimited))
    }

    /// Drives a single worker through one epoch by hand from the master
    /// side and checks every protocol step.
    #[test]
    fn single_worker_epoch_protocol() {
        let (_t, ctx) = make_ctx(1, 30);
        let ctx = std::sync::Mutex::new(Some(ctx));
        let out = run_cluster(
            1,
            CostModel::free(),
            |ep| {
                ep.broadcast(&Msg::LoadExamples);
                ep.send(1, &Msg::StartPipeline { epoch: 1 });
                // p = 1: the worker's own stage is final; RulesFound comes
                // straight back.
                let Msg::RulesFound {
                    origin,
                    rules,
                    had_seed,
                    trace,
                } = ep.recv_msg(1).unwrap()
                else {
                    panic!("expected RulesFound")
                };
                assert_eq!(origin, 1);
                assert!(had_seed);
                assert!(!rules.is_empty());
                assert_eq!(trace.len(), 1);

                // Evaluate the first returned rule.
                let clause = rules[0].0.clone();
                ep.send(
                    1,
                    &Msg::Evaluate {
                        rules: vec![clause.clone()],
                    },
                );
                let Msg::EvalResult { counts } = ep.recv_msg(1).unwrap() else {
                    panic!("expected EvalResult")
                };
                assert_eq!(counts.len(), 1);
                assert!(counts[0].0 >= 1);

                // Mark covered, then re-evaluate: live cover must shrink to 0
                // for a rule that covered everything.
                ep.send(
                    1,
                    &Msg::MarkCovered {
                        rule: clause.clone(),
                    },
                );
                ep.send(
                    1,
                    &Msg::Evaluate {
                        rules: vec![clause],
                    },
                );
                let Msg::EvalResult { counts: after } = ep.recv_msg(1).unwrap() else {
                    panic!("expected EvalResult")
                };
                assert_eq!(after[0].0, 0, "covered examples must be retired");

                ep.send(1, &Msg::Stop);
                Ok(())
            },
            |ep| {
                let c = ctx.lock().unwrap().take().expect("single worker");
                run_worker(ep, c, &mut CoverageMemo::new()).map(drop)
            },
        )
        .unwrap();
        assert!(out.stats.total_bytes() > 0);
    }

    /// Two workers: tokens must travel 1 → 2 → master and 2 → 1 → master.
    #[test]
    fn two_worker_pipelines_route_tokens() {
        let (_t1, c1) = make_ctx(1, 30);
        let (_t2, c2) = make_ctx(31, 60);
        let ctxs = std::sync::Mutex::new(vec![Some(c1), Some(c2)]);
        run_cluster(
            2,
            CostModel::free(),
            |ep| {
                ep.broadcast(&Msg::LoadExamples);
                for k in 1..=2 {
                    ep.send(k, &Msg::StartPipeline { epoch: 1 });
                }
                // RulesFound for origin 1 arrives from worker 2 (its last
                // stage) and vice versa.
                let Msg::RulesFound {
                    origin: o2,
                    trace: t2,
                    ..
                } = ep.recv_msg(1).unwrap()
                else {
                    panic!()
                };
                let Msg::RulesFound {
                    origin: o1,
                    trace: t1,
                    ..
                } = ep.recv_msg(2).unwrap()
                else {
                    panic!()
                };
                assert_eq!(o1, 1);
                assert_eq!(o2, 2);
                // Each pipeline executed exactly two stages, in order.
                assert_eq!(t1.iter().map(|s| s.step).collect::<Vec<_>>(), vec![1, 2]);
                assert_eq!(t1.iter().map(|s| s.worker).collect::<Vec<_>>(), vec![1, 2]);
                assert_eq!(t2.iter().map(|s| s.worker).collect::<Vec<_>>(), vec![2, 1]);
                ep.broadcast(&Msg::Stop);
                Ok(())
            },
            |ep| {
                let c = ctxs.lock().unwrap()[ep.rank() - 1].take().expect("ctx");
                run_worker(ep, c, &mut CoverageMemo::new()).map(drop)
            },
        )
        .unwrap();
    }

    /// A worker with no live examples must still keep the schedule static
    /// (empty token, `had_seed = false`).
    #[test]
    fn empty_subset_sends_empty_pipeline() {
        let (_t1, c1) = make_ctx(1, 30);
        let (t2, mut c2) = make_ctx(31, 60);
        c2.local = Examples::new(
            vec![],
            vec![Literal::new(t2.intern("div6"), vec![Term::Int(1)])],
        );
        let ctxs = std::sync::Mutex::new(vec![Some(c1), Some(c2)]);
        run_cluster(
            2,
            CostModel::free(),
            |ep| {
                ep.broadcast(&Msg::LoadExamples);
                for k in 1..=2 {
                    ep.send(k, &Msg::StartPipeline { epoch: 1 });
                }
                let Msg::RulesFound {
                    origin: o2,
                    had_seed: h2,
                    rules: r2,
                    ..
                } = ep.recv_msg(1).unwrap()
                else {
                    panic!()
                };
                let Msg::RulesFound {
                    origin: o1,
                    had_seed: h1,
                    ..
                } = ep.recv_msg(2).unwrap()
                else {
                    panic!()
                };
                assert_eq!((o1, h1), (1, true));
                assert_eq!((o2, h2), (2, false));
                assert!(r2.is_empty());
                ep.broadcast(&Msg::Stop);
                Ok(())
            },
            |ep| {
                let c = ctxs.lock().unwrap()[ep.rank() - 1].take().expect("ctx");
                run_worker(ep, c, &mut CoverageMemo::new()).map(drop)
            },
        )
        .unwrap();
    }

    /// RetireSeed removes exactly the current seed.
    #[test]
    fn retire_seed_protocol() {
        let (_t, ctx) = make_ctx(1, 30);
        let n_pos = ctx.local.num_pos() as u32;
        let ctx = std::sync::Mutex::new(Some(ctx));
        run_cluster(
            1,
            CostModel::free(),
            |ep| {
                ep.broadcast(&Msg::LoadExamples);
                ep.send(1, &Msg::StartPipeline { epoch: 1 });
                let _ = ep.recv_from(1); // RulesFound
                ep.send(1, &Msg::RetireSeed);
                let Msg::SeedRetired { removed } = ep.recv_msg(1).unwrap() else {
                    panic!()
                };
                assert_eq!(removed, 1);
                // Retiring again in the same epoch is a no-op.
                ep.send(1, &Msg::RetireSeed);
                let Msg::SeedRetired { removed } = ep.recv_msg(1).unwrap() else {
                    panic!()
                };
                assert_eq!(removed, 0);
                // The retired seed is gone from the live set.
                ep.send(1, &Msg::Evaluate { rules: vec![] });
                let _ = ep.recv_from(1);
                assert!(n_pos >= 1);
                ep.send(1, &Msg::Stop);
                Ok(())
            },
            |ep| {
                let c = ctx.lock().unwrap().take().expect("single worker");
                run_worker(ep, c, &mut CoverageMemo::new()).map(drop)
            },
        )
        .unwrap();
    }

    /// A replicated-strategy context through the same loop: `StartPipeline`
    /// is answered with the rank's own `RulesFound` and no token travels the
    /// ring, and only rank 1 answers `RetireSeed`.
    #[test]
    fn replicated_strategy_runs_through_the_same_loop() {
        let ctxs: Vec<_> = (0..2)
            .map(|_| {
                let (_t, mut c) = make_ctx(1, 60);
                c.strategy = Strategy::SearchPartition;
                c.strategy_seed = 7;
                Some(c)
            })
            .collect();
        let ctxs = std::sync::Mutex::new(ctxs);
        let out = run_cluster(
            2,
            CostModel::free(),
            |ep| {
                ep.broadcast(&Msg::LoadExamples);
                for k in 1..=2 {
                    ep.send(k, &Msg::StartPipeline { epoch: 1 });
                }
                // Each rank reports its own search: in the ring, rank `k`
                // would deliver the pipeline of the *other* origin.
                for k in 1..=2u8 {
                    let Msg::RulesFound {
                        origin, had_seed, ..
                    } = ep.recv_msg(k as usize).unwrap()
                    else {
                        panic!("expected RulesFound from rank {k}")
                    };
                    assert_eq!(origin, k);
                    assert!(had_seed);
                }
                ep.broadcast(&Msg::RetireSeed);
                let Msg::SeedRetired { removed } = ep.recv_msg(1).unwrap() else {
                    panic!("rank 1 answers for the mesh")
                };
                assert_eq!(removed, 1);
                // Rank 2 retired the seed silently: its next frame is the
                // answer to the next question, not a `SeedRetired`.
                ep.send(2, &Msg::Evaluate { rules: vec![] });
                let Msg::EvalResult { counts } = ep.recv_msg(2).unwrap() else {
                    panic!("rank 2 must not answer RetireSeed")
                };
                assert!(counts.is_empty());
                ep.broadcast(&Msg::Stop);
                Ok(())
            },
            |ep| {
                let c = ctxs.lock().unwrap()[ep.rank() - 1].take().expect("ctx");
                run_worker(ep, c, &mut CoverageMemo::new()).map(drop)
            },
        )
        .unwrap();
        assert_eq!(out.stats.messages_between(1, 2), 0, "no PipelineStage");
        assert_eq!(out.stats.messages_between(2, 1), 0, "no PipelineStage");
    }

    /// Chain graph `n0 → … → n9` with target `reach/2`, which is a body
    /// mode too and has two background facts, so that bottom clauses call
    /// it; and `reach(A,B) :- edge(A,B)`, which once asserted makes every
    /// such call succeed along every edge. The first two positives are the
    /// ones with a background fact at their start node: both epochs below
    /// search clauses that call `reach`.
    fn reach_ctx() -> (WorkerContext, Clause) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let node = |i: usize| Term::Sym(t.intern(&format!("n{i}")));
        let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
        for i in 0..9 {
            kb.assert_fact(lit("edge", vec![node(i), node(i + 1)]));
        }
        kb.assert_fact(lit("reach", vec![node(1), node(2)]));
        kb.assert_fact(lit("reach", vec![node(4), node(5)]));
        let starts = [1, 4, 0, 2, 3, 5, 6, 7];
        let local = Examples::new(
            starts
                .map(|i| lit("reach", vec![node(i), node(i + 2)]))
                .into(),
            starts
                .map(|i| lit("reach", vec![node(i + 2), node(i)]))
                .into(),
        );
        let modes = ModeSet::parse(
            &t,
            "reach(+node, +node)",
            &[
                (2, "edge(+node, -node)"),
                (2, "reach(+node, -node)"),
                (1, "edge(+node, +node)"),
            ],
        )
        .unwrap();
        let settings = Settings {
            min_pos: 1,
            noise: 0,
            max_body: 2,
            ..Settings::default()
        };
        let step = Clause::new(
            lit("reach", vec![Term::Var(0), Term::Var(1)]),
            vec![lit("edge", vec![Term::Var(0), Term::Var(1)])],
        );
        let engine = IlpEngine::new(kb, modes, settings);
        (WorkerContext::new(engine, local, Width::Unlimited), step)
    }

    /// `MarkCovered` asserts its rule into the rank's KB. When candidate
    /// bodies can call that rule, what the rank's memo holds is stale: the
    /// next epoch must report what a search that remembers nothing reports.
    #[test]
    fn mark_covered_drops_the_memo_when_bodies_can_call_the_rule() {
        let (ctx, step) = reach_ctx();
        // The second epoch as a rank without history runs it: the rule in
        // the KB, nothing covered by it, the seed after the first.
        let mut engine = ctx.engine.clone();
        assert!(engine.callable_from_bodies(step.head.key()));
        engine.assert_rule(step.clone());
        let live = ctx.local.full_pos_live();
        let covered = p2mdie_ilp::evaluate_rule(
            &engine.kb,
            engine.settings.proof,
            &step,
            &ctx.local,
            None,
            None,
        );
        assert_eq!(covered.pos_count(), 0);
        let bottom = engine.saturate(&ctx.local.pos[1]).unwrap();
        let fresh = run_stage_search(
            &engine,
            &ctx.local,
            &live,
            &bottom,
            &[],
            ctx.width,
            &mut CoverageMemo::new(),
        );
        let expected: Vec<_> = fresh
            .rules
            .iter()
            .map(|r| (r.shape.to_clause(&bottom), r.pos, r.neg))
            .collect();
        assert!(
            expected.iter().any(|(c, pos, _)| {
                *pos == 8 && c.body.iter().any(|l| l.pred == step.head.pred)
            }),
            "with the rule in the KB a clause calling `reach` covers every positive"
        );

        let ctx = std::sync::Mutex::new(Some(ctx));
        run_cluster(
            1,
            CostModel::free(),
            |ep| {
                ep.broadcast(&Msg::LoadExamples);
                ep.send(1, &Msg::StartPipeline { epoch: 1 });
                let Msg::RulesFound { rules: before, .. } = ep.recv_msg(1).unwrap() else {
                    panic!("expected RulesFound")
                };
                assert_ne!(before, expected, "the rule changes what bodies prove");
                ep.send(1, &Msg::MarkCovered { rule: step.clone() });
                ep.send(1, &Msg::StartPipeline { epoch: 2 });
                let Msg::RulesFound { rules: after, .. } = ep.recv_msg(1).unwrap() else {
                    panic!("expected RulesFound")
                };
                assert_eq!(after, expected);
                ep.send(1, &Msg::Stop);
                Ok(())
            },
            |ep| {
                let c = ctx.lock().unwrap().take().expect("single worker");
                run_worker(ep, c, &mut CoverageMemo::new()).map(drop)
            },
        )
        .unwrap();
    }

    /// A well-formed frame the loop's state does not take — here a
    /// master-bound `EvalResult` sent down — ends the worker with a typed
    /// failure naming it and the sender, not with a panic.
    #[test]
    fn unexpected_message_fails_the_worker_typed() {
        let (_t, ctx) = make_ctx(1, 30);
        let ctx = std::sync::Mutex::new(Some(ctx));
        let err = run_cluster(
            1,
            CostModel::free(),
            |ep| {
                ep.send_bytes(1, to_bytes(&Msg::EvalResult { counts: vec![] }));
                let _ = ep.recv_from(1);
                Ok(())
            },
            |ep| {
                let c = ctx.lock().unwrap().take().expect("single worker");
                run_worker(ep, c, &mut CoverageMemo::new()).map(drop)
            },
        )
        .unwrap_err();
        match &err {
            p2mdie_cluster::ClusterError::WorkerFailed { rank: 1, message } => {
                assert!(message.contains("from rank 0"), "{err}");
                assert!(message.contains("not a command a worker takes"), "{err}");
            }
            other => panic!("expected rank 1's typed failure, got {other}"),
        }
    }
}
