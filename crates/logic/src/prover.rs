//! Depth- and step-bounded SLD resolution with inference-step metering.
//!
//! This is the workhorse behind ILP coverage testing: prove a (mostly
//! ground) goal conjunction against the background KB. Two resource bounds
//! keep every proof finite — a recursion *depth* bound on rule expansions
//! and a *step* budget counting every unification candidate tried and every
//! builtin evaluated. The step count doubles as the *fuel* consumed by the
//! cluster substrate's virtual-time model: compute time on a rank is
//! `steps × t_step` (the virtual-time substitution, stated in
//! `p2mdie_cluster::vtime`).
//!
//! The search strategy is standard Prolog: goals left-to-right, clauses in
//! assertion order, facts before rules, backtracking on failure.
//!
//! # Compiled goals, zero-allocation inner loop
//!
//! The prover runs [`CompiledGoals`]: each literal carries its dispatch
//! ([`LitKind`]) resolved once at compile time — builtin slot, dense
//! [`crate::clause::PredId`], or unknown — so per-goal dispatch is array
//! reads instead of hash probes. Pending goals live in an immutable
//! cons-list of `Frame`s allocated on the Rust call stack: each frame
//! borrows a run of compiled literals straight out of the query or a KB
//! clause (the KB stores [`crate::clause::CompiledClause`]s), together with
//! the variable offset that renames that clause apart. Pushing a rule body
//! is O(1) pointer work — no literal is ever cloned — and unification
//! applies the offsets on the fly (see [`crate::subst::Bindings::unify_off`]).
//! A binding is a 16-byte slot ([`crate::subst`]): binding a constant and
//! undoing it clone and drop nothing; only a compound bound to a variable is
//! cloned, onto the store's heap.
//!
//! # Multi-argument indexing with pinned step accounting
//!
//! Every fact goal takes one path: `Ctx::solve` resolves the goal's
//! arguments to probes, asks [`KnowledgeBase::fact_plan`] for a plan, and
//! `Ctx::run_plan` walks it. A variable bound from the knowledge base — to a
//! fact cell, or by coverage to an example's argument — probes as the arena
//! id its slot carries, and a constant of a goal compiled with its
//! arguments' ids ([`CompiledGoalsRef::ids`]) as that id; only another
//! constant of the goal or a value bound without an id is hashed
//! ([`Bindings::probe`]).
//!
//! The inference-step fuel stays what the reference walk R of the
//! [`crate::kb`] docs defines, and every plan walks R in R's order. A goal
//! whose only ground argument is R's key (or which has none) tries each row
//! of R in a plain loop. Any other goal takes the ranked walk
//! ([`RankedWalk::walk`], out of line in `Ctx::run_ranked`): a row whose
//! cell at a ground position past the first holds another term is skipped
//! before it costs a tick, a mark or an undo, and the prover *bulk-charges*
//! the skipped rows by rank. A regular row that is tried therefore holds the
//! goal's terms at every ground position, and only its free positions are
//! unified: an all-ground goal binds nothing. An irregular row (a fact with
//! a non-ground argument) is unified literal-at-a-time.
//!
//! # One metered loop
//!
//! Every entry point ends in [`Prover::run_metered`]: a proof from given
//! bindings under a per-call step budget, whose solution callback is told
//! where the proof stands ([`Reached`]: the steps taken so far and the
//! first variable id no rule expansion has used). A caller can therefore
//! prove a conjunction in two parts and charge it as one. Coverage's query
//! packs (`ProofScratch::eval_pack` in the ilp crate) prove a parent rule's
//! body once and, at each of its solutions, a child's one extra literal
//! with a *second* prover — the first one's plan pool is borrowed while its
//! proof runs, so the callback may not re-enter it — under the budget the
//! child has left, renaming rules apart from `fresh`, so that the extra
//! literal's expansions meet none of the parent proof's variables.
//!
//! # The contract the tests hold
//!
//! One step per builtin call, per candidate of R, and per rule head tried; a
//! rule expansion past `max_depth` is not tried and counts one depth cut;
//! the step that crosses `max_steps` aborts the proof with `steps ==
//! max_steps + 1`. A fact's own variables are not renamed apart: an
//! irregular row unifies as stored. `(proved, steps, depth_cuts, aborted)`
//! and the order of solutions are pinned equal to the reference prover of
//! `tests/oracle/mod.rs` — a naive clone-per-expansion prover over the
//! asserted rows, written from this contract — by the differential tests
//! (`tests/compiled_kb_props.rs`, `tests/snapshot_props.rs`,
//! `tests/prover_regression.rs`, and the root crate's
//! `tests/oracle_real_kbs.rs` on the benchmark's datasets).

use crate::arena::{Probe, TermId};
use crate::builtins::solve_builtin_off;
use crate::clause::{CompiledGoals, CompiledGoalsRef, CompiledLiteral, LitKind, Literal};
use crate::kb::{FactCols, FactPlan, KnowledgeBase, PlanScratch, RankedWalk};
use crate::subst::Bindings;
use crate::term::VarId;
use std::cell::RefCell;
use std::ops::ControlFlow;

/// Resource limits for a single proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProofLimits {
    /// Maximum rule-expansion depth (facts are depth-free).
    pub max_depth: u32,
    /// Maximum inference steps for one proof attempt.
    pub max_steps: u64,
}
crate::wire_struct!(ProofLimits {
    max_depth,
    max_steps
});

impl Default for ProofLimits {
    fn default() -> Self {
        ProofLimits {
            max_depth: 10,
            max_steps: 100_000,
        }
    }
}

/// What a proof attempt cost and whether bounds were hit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Inference steps consumed (unification candidates + builtin calls).
    pub steps: u64,
    /// Number of branches pruned by the depth bound.
    pub depth_cuts: u64,
    /// True when the step budget ran out (result is then "not proved").
    pub aborted: bool,
}

impl ProofStats {
    /// Accumulates another proof's stats into this one.
    pub fn absorb(&mut self, other: ProofStats) {
        self.steps += other.steps;
        self.depth_cuts += other.depth_cuts;
        self.aborted |= other.aborted;
    }
}

/// Where a proof stands at one of its solutions: what
/// [`Prover::run_metered`] tells its callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reached {
    /// Inference steps taken so far, under the call's budget.
    pub steps: u64,
    /// The first variable id no rule expansion of the proof has used: a goal
    /// proved on from this solution renames rules apart from here.
    pub fresh: VarId,
}

/// Flow control for the backtracking search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Control {
    /// Keep enumerating alternatives.
    More,
    /// A callback asked to stop (enough solutions).
    Done,
    /// The step budget is exhausted.
    Abort,
}

/// A segment of pending goals: a run of compiled literals borrowed from one
/// clause (or the query), the variable offset renaming that clause apart,
/// the rule depth, and the continuation. Frames are allocated on the call
/// stack and shared immutably across choice points.
struct Frame<'a> {
    lits: &'a [CompiledLiteral],
    /// The arena ids of `lits`' arguments (see [`CompiledGoalsRef::ids`]);
    /// empty for a KB clause's body.
    ids: &'a [TermId],
    offset: VarId,
    depth: u32,
    next: Option<&'a Frame<'a>>,
}

/// A bounded SLD prover over a knowledge base.
///
/// Owns a [`PlanScratch`] pool so steady-state retrieval planning allocates
/// nothing (the pool is behind a `RefCell`; don't re-enter the prover from
/// inside an `on_solution` callback — prove on from a solution with a
/// second prover, as query packs do).
pub struct Prover<'a> {
    kb: &'a KnowledgeBase,
    limits: ProofLimits,
    scratch: RefCell<PlanScratch>,
}

impl<'a> Prover<'a> {
    /// Creates a prover for `kb` with the given limits.
    pub fn new(kb: &'a KnowledgeBase, limits: ProofLimits) -> Self {
        Self::with_pool(kb, limits, PlanScratch::new())
    }

    /// [`Prover::new`] over a plan pool the caller kept from an earlier
    /// prover ([`Prover::into_pool`]), so that its buffers are not made
    /// again.
    pub fn with_pool(kb: &'a KnowledgeBase, limits: ProofLimits, pool: PlanScratch) -> Self {
        Prover {
            kb,
            limits,
            scratch: RefCell::new(pool),
        }
    }

    /// The plan pool, for the next prover to take ([`Prover::with_pool`]).
    pub fn into_pool(self) -> PlanScratch {
        self.scratch.into_inner()
    }

    /// The limits in force.
    pub fn limits(&self) -> ProofLimits {
        self.limits
    }

    /// The knowledge base proofs run against.
    pub fn kb(&self) -> &'a KnowledgeBase {
        self.kb
    }

    /// Compiles a goal conjunction for repeated proving (the coverage hot
    /// path compiles a rule body once and proves it per example).
    pub fn compile(&self, goals: &[Literal]) -> CompiledGoals {
        self.kb.compile_goals(goals)
    }

    /// Proves a single goal, stopping at the first solution.
    /// Typically used with ground goals ("is this example derivable?").
    pub fn prove_ground(&self, goal: &Literal) -> (bool, ProofStats) {
        self.prove_goals(std::slice::from_ref(goal))
    }

    /// Proves a conjunction, stopping at the first solution.
    pub fn prove_goals(&self, goals: &[Literal]) -> (bool, ProofStats) {
        self.prove_with_bindings(goals, Bindings::new())
    }

    /// Proves a conjunction under pre-established bindings (the ILP coverage
    /// path: head variables are already bound to the example's constants).
    pub fn prove_with_bindings(
        &self,
        goals: &[Literal],
        mut bindings: Bindings,
    ) -> (bool, ProofStats) {
        let compiled = self.compile(goals);
        self.prove_compiled_reusing(&compiled, &mut bindings)
    }

    /// [`Prover::prove_with_bindings`] over pre-compiled goals — owned or
    /// borrowed, with the arena ids of their arguments when the caller found
    /// them — and a borrowed binding store, so hot loops (coverage testing)
    /// compile a rule body once and reuse one allocation across proofs: no
    /// dispatch resolution, no allocation — prove thousands of times per
    /// compile. The caller clears the store between proofs.
    pub fn prove_compiled_reusing<'g>(
        &self,
        goals: impl Into<CompiledGoalsRef<'g>>,
        bindings: &mut Bindings,
    ) -> (bool, ProofStats) {
        let mut found = false;
        let max_steps = self.limits.max_steps;
        let stats = self.run_metered(goals.into(), bindings, 0, max_steps, &mut |_, _| {
            found = true;
            false // stop at first solution
        });
        (found, stats)
    }

    /// Enumerates up to `max` solutions of `goal`, returning the distinct
    /// fully-resolved instances in discovery order (duplicates collapsed, as
    /// saturation only cares about distinct bindings).
    pub fn solutions(&self, goal: &Literal, max: usize) -> (Vec<Literal>, ProofStats) {
        let compiled = self.kb.compile_literal(goal);
        self.solutions_compiled_reusing(&compiled, max, &mut Bindings::new())
    }

    /// [`Prover::solutions`] over a *borrowed* pre-compiled goal (see
    /// [`KnowledgeBase::compile_query`]) and a borrowed binding store
    /// (cleared here): the query literal is never cloned and no goals
    /// vector is allocated, and saturation's many queries share one
    /// allocation — the same discipline as coverage's `PreparedRule` path.
    pub fn solutions_compiled_reusing(
        &self,
        goal: &CompiledLiteral,
        max: usize,
        scratch: &mut Bindings,
    ) -> (Vec<Literal>, ProofStats) {
        let mut out: Vec<Literal> = Vec::new();
        if max == 0 {
            return (out, ProofStats::default());
        }
        scratch.reset(0);
        let mut seen: crate::fxhash::FxHashSet<Literal> = crate::fxhash::FxHashSet::default();
        let goals = CompiledGoalsRef::single(goal);
        let max_steps = self.limits.max_steps;
        let stats = self.run_metered(goals, scratch, 0, max_steps, &mut |b, _| {
            let inst = b.resolve_literal(&goal.lit);
            if seen.insert(inst.clone()) {
                out.push(inst);
            }
            out.len() < max
        });
        (out, stats)
    }

    /// Runs the search, invoking `on_solution` at every solution. The
    /// callback returns `true` to continue enumerating, `false` to stop.
    /// Returns the accumulated stats.
    pub fn run(
        &self,
        goals: &[Literal],
        mut bindings: Bindings,
        on_solution: &mut dyn FnMut(&mut Bindings) -> bool,
    ) -> ProofStats {
        self.run_reusing(goals, &mut bindings, on_solution)
    }

    /// [`Prover::run`] over a borrowed binding store.
    pub fn run_reusing(
        &self,
        goals: &[Literal],
        bindings: &mut Bindings,
        on_solution: &mut dyn FnMut(&mut Bindings) -> bool,
    ) -> ProofStats {
        let compiled = self.compile(goals);
        let max_steps = self.limits.max_steps;
        self.run_metered((&compiled).into(), bindings, 0, max_steps, &mut |b, _| {
            on_solution(b)
        })
    }

    /// The one search loop, which every entry point above ends in: proves
    /// *borrowed* compiled goals — the literals stay wherever the caller
    /// compiled them — from `bindings`, under the limits' depth bound and a
    /// budget of `max_steps` for this call, renaming rules apart from
    /// `fresh` at the lowest (and above the goals' variables and every slot
    /// of `bindings`). At each solution `on_solution` is told where the
    /// proof stands ([`Reached`]) and returns `true` to go on enumerating.
    /// The bindings are back at their entry state when it returns.
    pub fn run_metered(
        &self,
        goals: CompiledGoalsRef<'_>,
        bindings: &mut Bindings,
        fresh: VarId,
        max_steps: u64,
        on_solution: &mut dyn FnMut(&mut Bindings, Reached) -> bool,
    ) -> ProofStats {
        debug_assert!(
            goals.ids.is_empty()
                || goals.ids.len() == goals.lits.iter().map(|g| g.lit.args.len()).sum::<usize>(),
            "one id per argument of every goal, or none"
        );
        let mut next_var: VarId = goals.var_span.max(bindings.len() as VarId).max(fresh);
        bindings.ensure(next_var as usize);
        let mut plan_scratch = self.scratch.borrow_mut();
        let mut ctx = Ctx {
            kb: self.kb,
            max_depth: self.limits.max_depth,
            max_steps,
            stats: ProofStats::default(),
            bindings,
            next_var: &mut next_var,
            plan_scratch: &mut plan_scratch,
        };
        let root = Frame {
            lits: goals.lits,
            ids: goals.ids,
            offset: 0,
            depth: 0,
            next: None,
        };
        ctx.solve(Some(&root), on_solution);
        ctx.stats
    }
}

struct Ctx<'a, 'v> {
    kb: &'a KnowledgeBase,
    max_depth: u32,
    /// This call's step budget.
    max_steps: u64,
    stats: ProofStats,
    bindings: &'v mut Bindings,
    next_var: &'v mut VarId,
    /// Pooled probe vectors — drawn per goal, returned when the goal's
    /// plan is consumed.
    plan_scratch: &'v mut PlanScratch,
}

impl<'a> Ctx<'a, '_> {
    #[inline]
    fn tick(&mut self) -> bool {
        self.stats.steps += 1;
        if self.stats.steps > self.max_steps {
            self.stats.aborted = true;
            false
        } else {
            true
        }
    }

    /// Bulk-charges `k` steps for candidates the retrieval plan skipped
    /// (each would have cost exactly one step and failed unification).
    /// Reproduces the per-candidate abort point: if the budget is crossed
    /// inside the run, steps land on `max_steps + 1` exactly as
    /// [`Ctx::tick`] would have left them.
    #[inline]
    fn charge(&mut self, k: u64) -> bool {
        if k == 0 {
            return true;
        }
        if k > self.max_steps.saturating_sub(self.stats.steps) {
            self.stats.steps = self.max_steps.saturating_add(1);
            self.stats.aborted = true;
            false
        } else {
            self.stats.steps += k;
            true
        }
    }

    /// Solves the goal stack; restores `bindings` to its entry state before
    /// returning, so callers' choice points stay clean.
    fn solve(
        &mut self,
        frame: Option<&Frame<'_>>,
        on_solution: &mut dyn FnMut(&mut Bindings, Reached) -> bool,
    ) -> Control {
        let Some(f) = frame else {
            let reached = Reached {
                steps: self.stats.steps,
                fresh: *self.next_var,
            };
            return if on_solution(self.bindings, reached) {
                Control::More
            } else {
                Control::Done
            };
        };
        let Some((goal, rest_lits)) = f.lits.split_first() else {
            return self.solve(f.next, on_solution);
        };
        // The goal's own argument ids, when the frame carries any.
        let (ids, rest_ids) = f.ids.split_at(f.ids.len().min(goal.lit.args.len()));
        let goff = f.offset;
        let depth = f.depth;
        let rest = Frame {
            lits: rest_lits,
            ids: rest_ids,
            offset: goff,
            depth,
            next: f.next,
        };

        let pid = match goal.kind {
            // Builtins: deterministic, at most one continuation; evaluated
            // offset-aware (no rename-apart clone).
            LitKind::Builtin(b) => {
                if !self.tick() {
                    return Control::Abort;
                }
                let mark = self.bindings.mark();
                let ok = solve_builtin_off(b, &goal.lit, goff, self.bindings, self.kb.symbols());
                let ctrl = if ok == Some(true) {
                    self.solve(Some(&rest), on_solution)
                } else {
                    Control::More
                };
                self.bindings.undo_to(mark);
                return ctrl;
            }
            // No KB entry existed at compile time: no facts, no rules, no
            // steps — the goal just fails (seed semantics).
            LitKind::Unknown => return Control::More,
            LitKind::Pred(pid) => pid,
        };

        let kb = self.kb;
        let glit = &goal.lit;

        // Resolve every goal argument to a `Probe` once: shared by plan
        // construction (every indexed position probes the cached id instead
        // of re-walking and re-hashing the argument) and, when the goal is
        // all ground over an all-regular relation, by the per-row compare.
        // An argument whose id the goals were compiled with is not hashed.
        let mut probes = self.plan_scratch.take_probes();
        {
            let arena = kb.arena();
            let bindings = &*self.bindings;
            probes.extend(glit.args.iter().enumerate().map(|(k, a)| match ids.get(k) {
                Some(&id) if !id.is_none() => Probe::Id(id),
                _ => bindings.probe(a, goff, arena),
            }));
        }

        // Facts, through the most selective available argument index; step
        // accounting stays pinned to the first-argument reference plan.
        // Candidates unify column-natively — goal arguments match straight
        // against the fact's arena-id tuple, no row literal involved.
        let plan = kb.fact_plan(pid, &probes);
        let facts = kb.fact_cols(pid);
        let ctrl = self.run_plan(&facts, &plan, &probes, glit, goff, &rest, on_solution);
        self.plan_scratch.recycle_probes(probes);
        match ctrl {
            Control::More => {}
            c => return c,
        }

        // Rules: rename apart via a fresh offset (the span is precompiled),
        // push the compiled body at depth+1.
        for crule in kb.rules_compiled(pid) {
            if depth + 1 > self.max_depth {
                self.stats.depth_cuts += 1;
                continue;
            }
            if !self.tick() {
                return Control::Abort;
            }
            let offset = *self.next_var;
            *self.next_var += crule.var_span;
            let mark = self.bindings.mark();
            if self
                .bindings
                .unify_literals_off(glit, goff, &crule.head, offset, false)
            {
                let body = Frame {
                    lits: &crule.body,
                    ids: &[],
                    offset,
                    depth: depth + 1,
                    next: Some(&rest),
                };
                match self.solve(Some(&body), on_solution) {
                    Control::More => {}
                    c => {
                        self.bindings.undo_to(mark);
                        return c;
                    }
                }
            }
            self.bindings.undo_to(mark);
        }

        Control::More
    }

    /// Walks one plan's candidates in reference order, charging what the
    /// plan skipped; each candidate is one [`Ctx::try_fact`].
    #[allow(clippy::too_many_arguments)]
    fn run_plan(
        &mut self,
        facts: &FactCols<'a>,
        plan: &FactPlan<'a>,
        probes: &[Probe],
        glit: &Literal,
        goff: VarId,
        rest: &Frame<'_>,
        on_solution: &mut dyn FnMut(&mut Bindings, Reached) -> bool,
    ) -> Control {
        let mut try_row =
            |ctx: &mut Self, row| ctx.try_fact(facts, probes, row, glit, goff, rest, on_solution);
        match plan {
            FactPlan::Empty => Control::More,
            FactPlan::All { n } => {
                for row in 0..*n {
                    match try_row(self, row) {
                        Control::More => {}
                        c => return c,
                    }
                }
                Control::More
            }
            FactPlan::Seq { indexed, unindexed } => {
                for &row in indexed.iter().chain(unindexed.iter()) {
                    match try_row(self, row) {
                        Control::More => {}
                        c => return c,
                    }
                }
                Control::More
            }
            FactPlan::Ranked(walk) => {
                self.run_ranked(facts, walk, probes, glit, goff, rest, on_solution)
            }
        }
    }

    /// Walks R by rank ([`RankedWalk::walk`]): the rows it admits are tried,
    /// and the rows of R before each of them, and after the last, are
    /// bulk-charged. Kept out of line from [`Ctx::solve`], the recursion
    /// that the per-row loops of every other goal run in.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn run_ranked(
        &mut self,
        facts: &FactCols<'a>,
        walk: &RankedWalk<'a>,
        probes: &[Probe],
        glit: &Literal,
        goff: VarId,
        rest: &Frame<'_>,
        on_solution: &mut dyn FnMut(&mut Bindings, Reached) -> bool,
    ) -> Control {
        let mut charged: u64 = 0;
        let walked = walk.walk(probes, |row, rank| {
            if !self.charge(rank - charged) {
                return ControlFlow::Break(Control::Abort);
            }
            charged = rank + 1;
            match self.try_fact(facts, probes, row, glit, goff, rest, on_solution) {
                Control::More => ControlFlow::Continue(()),
                c => ControlFlow::Break(c),
            }
        });
        match walked {
            ControlFlow::Break(c) => c,
            ControlFlow::Continue(()) if self.charge(walk.total() - charged) => Control::More,
            ControlFlow::Continue(()) => Control::Abort,
        }
    }

    /// One fact candidate: tick, match the goal against the fact's column
    /// cells (arena ids), recurse on success. The plan only hands over rows
    /// whose cells at the goal's ground positions hold the probed terms
    /// (R's key through its posting, the rest through the ranked walk), so
    /// a regular row is unified at its free positions only
    /// ([`Bindings::unify_term_id`]) — an all-ground goal binds nothing at
    /// all. The rare irregular row — a fact with a non-ground argument,
    /// which the arena cannot hold — is unified literal-at-a-time against
    /// its stored original.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn try_fact(
        &mut self,
        facts: &FactCols<'a>,
        probes: &[Probe],
        row: u32,
        goal: &Literal,
        goff: VarId,
        rest: &Frame<'_>,
        on_solution: &mut dyn FnMut(&mut Bindings, Reached) -> bool,
    ) -> Control {
        if !self.tick() {
            return Control::Abort;
        }
        let mark = self.bindings.mark();
        let ok = match facts.irregular_row(row) {
            Some(fact) => self.bindings.unify_literals_off(goal, goff, fact, 0, false),
            None => {
                let arena = facts.arena();
                goal.args
                    .iter()
                    .zip(probes)
                    .enumerate()
                    .all(|(p, (a, probe))| {
                        probe.is_ground()
                            || self
                                .bindings
                                .unify_term_id(a, goff, facts.cell(p, row), arena)
                    })
            }
        };
        if ok {
            match self.solve(Some(rest), on_solution) {
                Control::More => {}
                c => {
                    self.bindings.undo_to(mark);
                    return c;
                }
            }
        }
        self.bindings.undo_to(mark);
        Control::More
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::Clause;
    use crate::symbol::SymbolTable;
    use crate::term::Term;

    fn lit(t: &SymbolTable, name: &str, args: Vec<Term>) -> Literal {
        Literal::new(t.intern(name), args)
    }

    fn family_kb() -> (SymbolTable, KnowledgeBase) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let c = |n: &str| Term::Sym(t.intern(n));
        for (a, b) in [("ann", "bob"), ("bob", "carl"), ("carl", "dee")] {
            kb.assert_fact(lit(&t, "parent", vec![c(a), c(b)]));
        }
        // ancestor(X,Y) :- parent(X,Y).
        kb.assert_rule(Clause::new(
            lit(&t, "ancestor", vec![Term::Var(0), Term::Var(1)]),
            vec![lit(&t, "parent", vec![Term::Var(0), Term::Var(1)])],
        ));
        // ancestor(X,Z) :- parent(X,Y), ancestor(Y,Z).
        kb.assert_rule(Clause::new(
            lit(&t, "ancestor", vec![Term::Var(0), Term::Var(2)]),
            vec![
                lit(&t, "parent", vec![Term::Var(0), Term::Var(1)]),
                lit(&t, "ancestor", vec![Term::Var(1), Term::Var(2)]),
            ],
        ));
        (t, kb)
    }

    #[test]
    fn facts_prove_directly() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        let c = |n: &str| Term::Sym(t.intern(n));
        let (ok, st) = p.prove_ground(&lit(&t, "parent", vec![c("ann"), c("bob")]));
        assert!(ok);
        assert!(st.steps >= 1);
        let (ok, _) = p.prove_ground(&lit(&t, "parent", vec![c("bob"), c("ann")]));
        assert!(!ok);
    }

    #[test]
    fn recursive_rules_chain() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        let c = |n: &str| Term::Sym(t.intern(n));
        let (ok, _) = p.prove_ground(&lit(&t, "ancestor", vec![c("ann"), c("dee")]));
        assert!(ok);
        let (ok, _) = p.prove_ground(&lit(&t, "ancestor", vec![c("dee"), c("ann")]));
        assert!(!ok);
    }

    #[test]
    fn depth_bound_cuts_recursion() {
        let (t, kb) = family_kb();
        // Depth 1 allows only the base case: ancestor(ann,dee) needs 3 hops.
        let p = Prover::new(
            &kb,
            ProofLimits {
                max_depth: 1,
                max_steps: 10_000,
            },
        );
        let c = |n: &str| Term::Sym(t.intern(n));
        let (ok, st) = p.prove_ground(&lit(&t, "ancestor", vec![c("ann"), c("dee")]));
        assert!(!ok);
        assert!(st.depth_cuts > 0);
        let (ok, _) = p.prove_ground(&lit(&t, "ancestor", vec![c("ann"), c("bob")]));
        assert!(ok);
    }

    #[test]
    fn step_budget_aborts() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        // loop(X) :- loop(X). — infinite without bounds.
        kb.assert_rule(Clause::new(
            lit(&t, "loop", vec![Term::Var(0)]),
            vec![lit(&t, "loop", vec![Term::Var(0)])],
        ));
        let p = Prover::new(
            &kb,
            ProofLimits {
                max_depth: u32::MAX,
                max_steps: 500,
            },
        );
        let (ok, st) = p.prove_ground(&lit(&t, "loop", vec![Term::Int(1)]));
        assert!(!ok);
        assert!(st.aborted);
        assert!(st.steps >= 500);
    }

    #[test]
    fn solutions_enumerates_with_recall_bound() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        let goal = lit(&t, "parent", vec![Term::Var(0), Term::Var(1)]);
        let (sols, _) = p.solutions(&goal, 10);
        assert_eq!(sols.len(), 3);
        let (sols, _) = p.solutions(&goal, 2);
        assert_eq!(sols.len(), 2);
        let (sols, _) = p.solutions(&goal, 0);
        assert!(sols.is_empty());
    }

    #[test]
    fn solutions_are_deduplicated() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        kb.assert_fact(lit(&t, "q", vec![Term::Int(1), Term::Int(1)]));
        kb.assert_fact(lit(&t, "q", vec![Term::Int(1), Term::Int(2)]));
        // p(X) :- q(X, _): X=1 twice, but only one distinct instance p(1).
        kb.assert_rule(Clause::new(
            lit(&t, "p", vec![Term::Var(0)]),
            vec![lit(&t, "q", vec![Term::Var(0), Term::Var(1)])],
        ));
        let p = Prover::new(&kb, ProofLimits::default());
        let (sols, _) = p.solutions(&lit(&t, "p", vec![Term::Var(0)]), 10);
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn builtins_interleave_with_facts() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=5 {
            kb.assert_fact(lit(&t, "val", vec![Term::Int(i)]));
        }
        // big(X) :- val(X), X >= 4.
        kb.assert_rule(Clause::new(
            lit(&t, "big", vec![Term::Var(0)]),
            vec![
                lit(&t, "val", vec![Term::Var(0)]),
                lit(&t, ">=", vec![Term::Var(0), Term::Int(4)]),
            ],
        ));
        let p = Prover::new(&kb, ProofLimits::default());
        let (sols, _) = p.solutions(&lit(&t, "big", vec![Term::Var(0)]), 10);
        assert_eq!(sols.len(), 2);
    }

    /// The allocation-free borrowed-goal path must agree with the owned
    /// compile path on solutions and stats (the saturation contract).
    #[test]
    fn borrowed_compiled_solutions_match_owned() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        let goals = [
            lit(&t, "ancestor", vec![Term::Var(0), Term::Var(1)]),
            lit(&t, "parent", vec![Term::Sym(t.intern("ann")), Term::Var(0)]),
            lit(&t, "missing", vec![Term::Var(0)]),
        ];
        let mut scratch = Bindings::new();
        for goal in goals {
            for max in [0, 1, 5] {
                let owned = p.solutions(&goal, max);
                let compiled = kb.compile_query(goal.clone());
                let borrowed = p.solutions_compiled_reusing(&compiled, max, &mut scratch);
                assert_eq!(owned, borrowed, "diverged on {goal:?} max {max}");
            }
        }
    }

    #[test]
    fn prove_with_prebound_head_vars() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        // Simulate coverage: head var 0 bound to ann, prove parent(V0, bob).
        let mut b = Bindings::new();
        b.bind(0, Term::Sym(t.intern("ann")));
        let body = vec![lit(
            &t,
            "parent",
            vec![Term::Var(0), Term::Sym(t.intern("bob"))],
        )];
        let (ok, _) = p.prove_with_bindings(&body, b);
        assert!(ok);
    }

    /// A rule naming huge variable ids is stored renumbered: expanding it
    /// advances the fresh-variable base by its number of variables, and
    /// proofs through it match its dense twin's, steps included.
    #[test]
    fn sparse_rule_variables_are_renumbered() {
        let (t, dense) = family_kb();
        let mut sparse = KnowledgeBase::new(t.clone());
        for (a, b) in [("ann", "bob"), ("bob", "carl"), ("carl", "dee")] {
            let c = |n: &str| Term::Sym(t.intern(n));
            sparse.assert_fact(lit(&t, "parent", vec![c(a), c(b)]));
        }
        let (x, y, z) = (Term::Var(7), Term::Var(2_000_000_000), Term::Var(u32::MAX));
        sparse.assert_rule(Clause::new(
            lit(&t, "ancestor", vec![x.clone(), y.clone()]),
            vec![lit(&t, "parent", vec![x.clone(), y.clone()])],
        ));
        sparse.assert_rule(Clause::new(
            lit(&t, "ancestor", vec![x.clone(), y.clone()]),
            vec![
                lit(&t, "parent", vec![x, z.clone()]),
                lit(&t, "ancestor", vec![z, y]),
            ],
        ));
        let key = lit(&t, "ancestor", vec![Term::Var(0), Term::Var(1)]).key();
        let spans: Vec<VarId> = sparse
            .rules_compiled(sparse.pred_id(key).unwrap())
            .iter()
            .map(|r| r.var_span)
            .collect();
        assert_eq!(spans, [2, 3]);
        let c = |n: &str| Term::Sym(t.intern(n));
        for goal in [
            lit(&t, "ancestor", vec![c("ann"), c("dee")]),
            lit(&t, "ancestor", vec![c("dee"), c("ann")]),
            lit(&t, "ancestor", vec![Term::Var(0), c("dee")]),
        ] {
            let limits = ProofLimits::default();
            assert_eq!(
                Prover::new(&sparse, limits).solutions(&goal, 10),
                Prover::new(&dense, limits).solutions(&goal, 10),
                "{goal:?}"
            );
        }
    }

    /// A call's own budget bounds it as the limits bound a proof, and each
    /// solution is told the steps taken up to it: the last one told plus
    /// what failed after it is what the call reports.
    #[test]
    fn a_metered_call_keeps_its_own_budget_and_tells_its_steps() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        let goal = lit(&t, "ancestor", vec![Term::Var(0), Term::Var(1)]);
        let compiled = kb.compile_query(goal);
        let goals = CompiledGoalsRef::single(&compiled);
        let mut bindings = Bindings::new();
        let mut told = Vec::new();
        let all = p.run_metered(goals, &mut bindings, 0, u64::MAX, &mut |_, at| {
            told.push(at.steps);
            true
        });
        assert_eq!(told.len(), 6, "three parents, three longer chains");
        assert!(told.windows(2).all(|w| w[0] < w[1]) && told[5] <= all.steps);
        for budget in [0, told[2], told[2] + 1] {
            let mut seen = 0;
            let cut = p.run_metered(goals, &mut bindings, 0, budget, &mut |_, at| {
                assert!(at.steps <= budget);
                seen += 1;
                true
            });
            assert!(
                cut.aborted && cut.steps == budget + 1,
                "budget {budget}: {cut:?}"
            );
            assert_eq!(seen, told.iter().filter(|&&s| s <= budget).count());
        }
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = ProofStats {
            steps: 5,
            depth_cuts: 1,
            aborted: false,
        };
        a.absorb(ProofStats {
            steps: 7,
            depth_cuts: 0,
            aborted: true,
        });
        assert_eq!(a.steps, 12);
        assert_eq!(a.depth_cuts, 1);
        assert!(a.aborted);
    }

    #[test]
    fn reused_bindings_give_identical_results() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        let c = |n: &str| Term::Sym(t.intern(n));
        let goals = [
            lit(&t, "ancestor", vec![c("ann"), c("dee")]),
            lit(&t, "ancestor", vec![c("bob"), c("dee")]),
            lit(&t, "ancestor", vec![c("dee"), c("ann")]),
        ];
        let mut scratch = Bindings::new();
        for g in &goals {
            let fresh = p.prove_ground(g);
            scratch.reset(0);
            let compiled = p.compile(std::slice::from_ref(g));
            let reused = p.prove_compiled_reusing(&compiled, &mut scratch);
            assert_eq!(fresh.0, reused.0);
            assert_eq!(fresh.1.steps, reused.1.steps);
        }
    }

    #[test]
    fn compiled_goals_match_one_shot_proofs() {
        let (t, kb) = family_kb();
        let p = Prover::new(&kb, ProofLimits::default());
        let c = |n: &str| Term::Sym(t.intern(n));
        let goals = vec![lit(&t, "ancestor", vec![Term::Var(0), c("dee")])];
        let compiled = p.compile(&goals);
        let mut scratch = Bindings::new();
        for who in ["ann", "bob", "carl", "dee"] {
            scratch.reset(1);
            scratch.bind(0, c(who));
            let (ok_c, st_c) = p.prove_compiled_reusing(&compiled, &mut scratch);
            let mut fresh = Bindings::new();
            fresh.bind(0, c(who));
            let (ok_f, st_f) = p.prove_with_bindings(&goals, fresh);
            assert_eq!((ok_c, st_c), (ok_f, st_f), "seed {who} diverged");
        }
    }

    /// Second-argument-bound retrieval must agree with the reference prover
    /// on the full stats tuple even under tight step budgets (the
    /// bulk-charge path lands on the same abort point).
    #[test]
    fn narrowed_plans_stay_bit_identical_to_reference() {
        let t = SymbolTable::new();
        let mut prog = crate::oracle::PlainProgram::new(&t);
        for m in 0..20i64 {
            for a in 0..12i64 {
                prog.fact(lit(
                    &t,
                    "bond",
                    vec![
                        Term::Int(m),
                        Term::Int(m * 100 + a),
                        Term::Int(m * 100 + a + 1),
                        Term::Int(a % 3),
                    ],
                ));
            }
        }
        let kb = prog.to_kb();
        let goals = [
            // Second arg bound, first unbound: reference scans all facts.
            lit(
                &t,
                "bond",
                vec![Term::Var(0), Term::Int(507), Term::Var(1), Term::Var(2)],
            ),
            // Third arg bound.
            lit(
                &t,
                "bond",
                vec![Term::Var(0), Term::Var(1), Term::Int(1103), Term::Var(2)],
            ),
            // Both bound, no hit.
            lit(
                &t,
                "bond",
                vec![Term::Int(3), Term::Int(9999), Term::Var(0), Term::Var(1)],
            ),
        ];
        for max_steps in [2, 17, 63, 100, 150, 239, 240, 241, 5000] {
            let limits = ProofLimits {
                max_depth: 8,
                max_steps,
            };
            let new = Prover::new(&kb, limits);
            let old = prog.prover(limits);
            for g in &goals {
                let a = new.prove_ground(g);
                let b = old.prove_ground(g);
                assert_eq!(a, b, "goal {g:?} max_steps {max_steps} diverged");
            }
        }
    }
}
