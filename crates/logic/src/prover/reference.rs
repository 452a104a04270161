//! The original clone-per-expansion prover, kept as the semantic reference.
//!
//! This is the implementation the goal-stack prover in the parent module
//! replaced: every rule expansion materializes a fresh `Vec<(Literal, u32)>`
//! with `offset_vars` clones of the rule head and body. It is retained
//! verbatim so that (a) regression tests can assert the optimized prover
//! reports identical `(proved, steps, depth_cuts, aborted)` on the same
//! queries, and (b) benchmarks can pin the speedup against the true
//! pre-refactor baseline rather than a reconstruction.

use super::{ProofLimits, ProofStats};
use crate::builtins::solve_builtin;
use crate::clause::Literal;
use crate::kb::KnowledgeBase;
use crate::subst::Bindings;
use crate::term::VarId;

/// Flow control for the backtracking search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Control {
    More,
    Done,
    Abort,
}

/// The pre-refactor bounded SLD prover (clone-per-expansion).
pub struct Prover<'a> {
    kb: &'a KnowledgeBase,
    limits: ProofLimits,
}

impl<'a> Prover<'a> {
    /// Creates a reference prover for `kb` with the given limits.
    pub fn new(kb: &'a KnowledgeBase, limits: ProofLimits) -> Self {
        Prover { kb, limits }
    }

    /// Proves a single goal, stopping at the first solution.
    pub fn prove_ground(&self, goal: &Literal) -> (bool, ProofStats) {
        self.prove_goals(std::slice::from_ref(goal))
    }

    /// Proves a conjunction, stopping at the first solution.
    pub fn prove_goals(&self, goals: &[Literal]) -> (bool, ProofStats) {
        self.prove_with_bindings(goals, Bindings::new())
    }

    /// Proves a conjunction under pre-established bindings.
    pub fn prove_with_bindings(&self, goals: &[Literal], bindings: Bindings) -> (bool, ProofStats) {
        let mut found = false;
        let stats = self.run(goals, bindings, &mut |_| {
            found = true;
            false // stop at first solution
        });
        (found, stats)
    }

    /// Runs the search, invoking `on_solution` at every solution.
    pub fn run(
        &self,
        goals: &[Literal],
        mut bindings: Bindings,
        on_solution: &mut dyn FnMut(&mut Bindings) -> bool,
    ) -> ProofStats {
        let mut next_var: VarId = goals
            .iter()
            .filter_map(Literal::max_var)
            .max()
            .map_or(0, |v| v + 1)
            .max(bindings.len() as VarId);
        bindings.ensure(next_var as usize);
        let tagged: Vec<(Literal, u32)> = goals.iter().map(|g| (g.clone(), 0)).collect();
        let mut ctx = Ctx {
            kb: self.kb,
            limits: self.limits,
            stats: ProofStats::default(),
            bindings,
            next_var: &mut next_var,
        };
        ctx.solve(&tagged, on_solution);
        ctx.stats
    }
}

struct Ctx<'a, 'v> {
    kb: &'a KnowledgeBase,
    limits: ProofLimits,
    stats: ProofStats,
    bindings: Bindings,
    next_var: &'v mut VarId,
}

impl Ctx<'_, '_> {
    #[inline]
    fn tick(&mut self) -> bool {
        self.stats.steps += 1;
        if self.stats.steps > self.limits.max_steps {
            self.stats.aborted = true;
            false
        } else {
            true
        }
    }

    /// Solves the goal list; restores `bindings` to its entry state before
    /// returning, so callers' choice points stay clean.
    fn solve(
        &mut self,
        goals: &[(Literal, u32)],
        on_solution: &mut dyn FnMut(&mut Bindings) -> bool,
    ) -> Control {
        let Some(((goal, depth), rest)) = goals.split_first() else {
            return if on_solution(&mut self.bindings) {
                Control::More
            } else {
                Control::Done
            };
        };

        // Builtins: deterministic, at most one continuation.
        if let Some(b) = self.kb.builtins().get(goal.pred) {
            if !self.tick() {
                return Control::Abort;
            }
            let mark = self.bindings.mark();
            let ok = solve_builtin(b, goal, &mut self.bindings, self.kb.symbols());
            let ctrl = if ok == Some(true) {
                self.solve(rest, on_solution)
            } else {
                Control::More
            };
            self.bindings.undo_to(mark);
            return ctrl;
        }

        let kb = self.kb;
        let key = goal.key();

        // Facts, through the first-argument index where possible. The
        // iterator yields row literals — the resident originals under the
        // `row-oracle` feature (every test build), lazily rebuilt from the
        // columnar store otherwise; either way this path unifies rows
        // exactly as the seed implementation did.
        let first = goal.args.first().map(|t| self.bindings.walk(t));
        for fact in kb.candidate_facts(key, first.as_ref()) {
            if !self.tick() {
                return Control::Abort;
            }
            let mark = self.bindings.mark();
            if self.bindings.unify_literals(goal, &fact, false) {
                match self.solve(rest, on_solution) {
                    Control::More => {}
                    c => {
                        self.bindings.undo_to(mark);
                        return c;
                    }
                }
            }
            self.bindings.undo_to(mark);
        }

        // Rules: rename apart, push the body at depth+1.
        for rule in kb.rules_for(key) {
            if *depth + 1 > self.limits.max_depth {
                self.stats.depth_cuts += 1;
                continue;
            }
            if !self.tick() {
                return Control::Abort;
            }
            let offset = *self.next_var;
            *self.next_var += rule.var_span();
            let head = rule.head.offset_vars(offset);
            let mark = self.bindings.mark();
            if self.bindings.unify_literals(goal, &head, false) {
                let mut new_goals: Vec<(Literal, u32)> =
                    Vec::with_capacity(rule.body.len() + rest.len());
                for l in &rule.body {
                    new_goals.push((l.offset_vars(offset), depth + 1));
                }
                new_goals.extend_from_slice(rest);
                match self.solve(&new_goals, on_solution) {
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
}
