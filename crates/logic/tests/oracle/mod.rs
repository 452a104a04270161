//! The reference prover of the logic crate's differential tests: a naive
//! bounded SLD prover written from the step-accounting contract of the
//! `kb.rs` and `prover.rs` module docs, over a *plain program* — the fact
//! rows and rules exactly as a test asserted them. No arena, no posting
//! list, no compiled dispatch, no offsets: a rule is cloned with fresh
//! variables at every expansion, and the reference walk R is computed from
//! the rows themselves. What it shares with the product is the term and
//! clause types, [`ProofStats`], and the builtin table with
//! `solve_builtin` (builtin semantics are not what it checks).
//!
//! The contract, as implemented here:
//!
//! - goals left to right; for a predicate goal, facts before rules, each in
//!   assertion order; standard chronological backtracking;
//! - one step per builtin call, one per fact candidate of R, one per rule
//!   head tried; a rule expansion deeper than `max_depth` is not tried and
//!   counts one depth cut instead;
//! - the step that crosses `max_steps` aborts the proof, which then proves
//!   nothing, with `steps == max_steps + 1`;
//! - **R**: when the goal's first argument, dereferenced through variable
//!   bindings at the top level only, is a ground term, the facts whose first
//!   argument equals it, then the facts whose first argument is not ground;
//!   otherwise (a free or partly unbound first argument, or arity 0) every
//!   fact. Both segments keep assertion order;
//! - a fact's own variables are not renamed apart: a fact with a variable
//!   unifies as stored;
//! - rule variables are renumbered `0..n` when they are not already, then
//!   shifted past every variable in use, so the variables an answer leaves
//!   unbound are named as the product names them.
//!
//! Compiled into the integration tests of `crates/logic/tests`, into the
//! unit tests of `src/prover.rs` and `src/kb.rs` through `#[path]`, and into
//! the root crate's `tests/oracle_real_kbs.rs`, which runs it on the
//! benchmark's datasets.
#![allow(dead_code)]

use p2mdie_logic::builtins::{solve_builtin, Builtin, BuiltinTable};
use p2mdie_logic::clause::{Clause, Literal, PredKey};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::{ProofLimits, ProofStats};
use p2mdie_logic::subst::Bindings;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::{Term, VarId};
use std::collections::{HashMap, HashSet};

/// One predicate's rows and rules in assertion order. The rows are also
/// grouped by ground first argument, which is R's first segment read off a
/// table instead of a scan (the benchmark's relations hold thousands).
#[derive(Default)]
struct Relation {
    facts: Vec<Literal>,
    rules: Vec<Clause>,
    by_first: HashMap<Term, Vec<usize>>,
    open_first: Vec<usize>,
}

/// A program as plain data: every asserted fact row and rule.
pub struct PlainProgram {
    syms: SymbolTable,
    builtins: BuiltinTable,
    relations: HashMap<PredKey, Relation>,
    /// Every assert in order (`Ok` a fact row, `Err` a rule), so that
    /// [`PlainProgram::to_kb`] replays them exactly.
    asserted: Vec<Result<Literal, Clause>>,
}

impl PlainProgram {
    pub fn new(syms: &SymbolTable) -> Self {
        PlainProgram {
            syms: syms.clone(),
            builtins: BuiltinTable::new(syms),
            relations: HashMap::new(),
            asserted: Vec::new(),
        }
    }

    /// The rows and rules of `kb`, read through its public views: the rows
    /// through `facts_for`, the rules through `rules_for`.
    pub fn from_kb(kb: &KnowledgeBase) -> Self {
        let mut prog = PlainProgram::new(kb.symbols());
        for key in kb.predicates() {
            for f in kb.facts_for(key) {
                prog.fact(f);
            }
            for r in kb.rules_for(key) {
                prog.rule(r.clone());
            }
        }
        prog
    }

    /// A fact row, as `KnowledgeBase::assert_fact` takes it (it may hold
    /// variables).
    pub fn fact(&mut self, f: Literal) {
        let rel = self.relations.entry(f.key()).or_default();
        let row = rel.facts.len();
        match f.args.first() {
            Some(a) if a.is_ground() => rel.by_first.entry(a.clone()).or_default().push(row),
            Some(_) => rel.open_first.push(row),
            None => {}
        }
        rel.facts.push(f.clone());
        self.asserted.push(Ok(f));
    }

    /// A rule, as `KnowledgeBase::assert_rule` takes it.
    pub fn rule(&mut self, r: Clause) {
        let dense = r.dense().into_owned();
        self.relations
            .entry(dense.head.key())
            .or_default()
            .rules
            .push(dense);
        self.asserted.push(Err(r));
    }

    /// The knowledge base the product builds from the same asserts, in the
    /// same order.
    pub fn to_kb(&self) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(self.syms.clone());
        for a in &self.asserted {
            match a {
                Ok(f) => kb.assert_fact(f.clone()),
                Err(r) => kb.assert_rule(r.clone()),
            }
        }
        kb
    }

    /// The fact rows of `key`, in assertion order.
    pub fn facts(&self, key: PredKey) -> &[Literal] {
        self.relations.get(&key).map_or(&[], |r| &r.facts)
    }

    /// R for `goal` under `s`: the indices into [`PlainProgram::facts`] of
    /// the rows the goal is charged for, in the order they are tried.
    pub fn reference_walk(&self, goal: &Literal, s: &Subst) -> Vec<usize> {
        let Some(rel) = self.relations.get(&goal.key()) else {
            return Vec::new();
        };
        match goal.args.first().map(|a| s.walk(a)) {
            Some(first) if first.is_ground() => {
                let hits = rel.by_first.get(&first).map_or(&[][..], |v| v);
                hits.iter().chain(&rel.open_first).copied().collect()
            }
            _ => (0..rel.facts.len()).collect(),
        }
    }

    /// A prover over this program under `limits`.
    pub fn prover(&self, limits: ProofLimits) -> Oracle<'_> {
        Oracle { prog: self, limits }
    }
}

/// A substitution: one optional binding per variable, and a trail.
#[derive(Default)]
pub struct Subst {
    slots: Vec<Option<Term>>,
    trail: Vec<VarId>,
}

impl Subst {
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the unbound variable `v` to `t`.
    pub fn bind(&mut self, v: VarId, t: Term) {
        let i = v as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        debug_assert!(self.slots[i].is_none(), "rebinding {v}");
        self.slots[i] = Some(t);
        self.trail.push(v);
    }

    /// Follows variable bindings from `t` until an unbound variable or a
    /// non-variable term; a compound's own variables stay as they are.
    pub fn walk(&self, t: &Term) -> Term {
        let mut t = t;
        while let Term::Var(v) = t {
            match self.slots.get(*v as usize) {
                Some(Some(b)) => t = b,
                _ => break,
            }
        }
        t.clone()
    }

    /// `t` with every bound variable replaced, all the way down.
    pub fn resolve(&self, t: &Term) -> Term {
        match self.walk(t) {
            Term::App(f, args) => Term::app(f, args.iter().map(|a| self.resolve(a)).collect()),
            t => t,
        }
    }

    pub fn resolve_literal(&self, l: &Literal) -> Literal {
        Literal::new(l.pred, l.args.iter().map(|a| self.resolve(a)).collect())
    }

    /// Unifies `a` with `b` without occurs check, binding the left side
    /// first. A failed attempt may leave bindings: callers undo to a mark.
    fn unify(&mut self, a: &Term, b: &Term) -> bool {
        let (a, b) = (self.walk(a), self.walk(b));
        match (&a, &b) {
            (Term::Var(x), Term::Var(y)) if x == y => true,
            (Term::Var(x), _) => {
                self.bind(*x, b);
                true
            }
            (_, Term::Var(y)) => {
                self.bind(*y, a);
                true
            }
            (Term::App(f, xs), Term::App(g, ys)) => {
                f == g
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys.iter()).all(|(x, y)| self.unify(x, y))
            }
            _ => a == b,
        }
    }

    fn unify_literals(&mut self, a: &Literal, b: &Literal) -> bool {
        a.pred == b.pred
            && a.args.len() == b.args.len()
            && a.args
                .iter()
                .zip(b.args.iter())
                .all(|(x, y)| self.unify(x, y))
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.slots[v as usize] = None;
        }
    }
}

/// The bounded prover over a [`PlainProgram`].
pub struct Oracle<'p> {
    prog: &'p PlainProgram,
    limits: ProofLimits,
}

impl Oracle<'_> {
    /// Runs `goals` under `subst`, calling `on_solution` at every solution
    /// until it returns `false`.
    pub fn run(
        &self,
        goals: &[Literal],
        subst: Subst,
        on_solution: &mut dyn FnMut(&Subst) -> bool,
    ) -> ProofStats {
        let span = goals
            .iter()
            .filter_map(Literal::max_var)
            .max()
            .map_or(0, |v| v + 1);
        let mut run = Run {
            prog: self.prog,
            limits: self.limits,
            stats: ProofStats::default(),
            fresh: span.max(subst.slots.len() as VarId),
            subst,
            on_solution,
        };
        let tagged: Vec<(Literal, u32)> = goals.iter().map(|g| (g.clone(), 0)).collect();
        run.solve(&tagged);
        run.stats
    }

    /// Proves a conjunction under `subst`, stopping at the first solution.
    pub fn prove(&self, goals: &[Literal], subst: Subst) -> (bool, ProofStats) {
        let mut found = false;
        let stats = self.run(goals, subst, &mut |_| {
            found = true;
            false
        });
        (found, stats)
    }

    pub fn prove_ground(&self, goal: &Literal) -> (bool, ProofStats) {
        self.prove(std::slice::from_ref(goal), Subst::new())
    }

    /// The first `max` distinct instances of `goal`, in the order found.
    pub fn solutions(&self, goal: &Literal, max: usize) -> (Vec<Literal>, ProofStats) {
        let mut out = Vec::new();
        if max == 0 {
            return (out, ProofStats::default());
        }
        let mut seen = HashSet::new();
        let stats = self.run(std::slice::from_ref(goal), Subst::new(), &mut |s| {
            let inst = s.resolve_literal(goal);
            if seen.insert(inst.clone()) {
                out.push(inst);
            }
            out.len() < max
        });
        (out, stats)
    }

    /// Coverage of one example: one step for the head attempt, then the
    /// body's proof under the head's bindings.
    pub fn covers(&self, rule: &Clause, example: &Literal) -> (bool, u64) {
        let mut s = Subst::new();
        if !s.unify_literals(&rule.head, example) {
            return (false, 1);
        }
        let (ok, stats) = self.prove(&rule.body, s);
        (ok, 1 + stats.steps)
    }
}

enum Flow {
    More,
    Done,
    Abort,
}

struct Run<'p, 'c> {
    prog: &'p PlainProgram,
    limits: ProofLimits,
    stats: ProofStats,
    subst: Subst,
    fresh: VarId,
    on_solution: &'c mut dyn FnMut(&Subst) -> bool,
}

impl Run<'_, '_> {
    fn tick(&mut self) -> bool {
        self.stats.steps += 1;
        if self.stats.steps > self.limits.max_steps {
            self.stats.aborted = true;
        }
        !self.stats.aborted
    }

    /// Solves `goals` (each tagged with its rule depth), leaving the
    /// substitution as it found it.
    fn solve(&mut self, goals: &[(Literal, u32)]) -> Flow {
        let Some(((goal, depth), rest)) = goals.split_first() else {
            return if (self.on_solution)(&self.subst) {
                Flow::More
            } else {
                Flow::Done
            };
        };
        let prog = self.prog;
        if let Some(b) = prog.builtins.get(goal.pred) {
            if !self.tick() {
                return Flow::Abort;
            }
            let mark = self.subst.mark();
            let flow = if self.builtin(b, goal) {
                self.solve(rest)
            } else {
                Flow::More
            };
            self.subst.undo(mark);
            return flow;
        }
        let Some(rel) = prog.relations.get(&goal.key()) else {
            return Flow::More;
        };
        for row in prog.reference_walk(goal, &self.subst) {
            if !self.tick() {
                return Flow::Abort;
            }
            let mark = self.subst.mark();
            let flow = if self.subst.unify_literals(goal, &rel.facts[row]) {
                self.solve(rest)
            } else {
                Flow::More
            };
            self.subst.undo(mark);
            if !matches!(flow, Flow::More) {
                return flow;
            }
        }
        for rule in &rel.rules {
            if depth + 1 > self.limits.max_depth {
                self.stats.depth_cuts += 1;
                continue;
            }
            if !self.tick() {
                return Flow::Abort;
            }
            let renamed = rule.offset_vars(self.fresh);
            self.fresh += rule.var_span();
            let mark = self.subst.mark();
            let flow = if self.subst.unify_literals(goal, &renamed.head) {
                let mut next: Vec<(Literal, u32)> =
                    renamed.body.into_iter().map(|l| (l, depth + 1)).collect();
                next.extend_from_slice(rest);
                self.solve(&next)
            } else {
                Flow::More
            };
            self.subst.undo(mark);
            if !matches!(flow, Flow::More) {
                return flow;
            }
        }
        Flow::More
    }

    /// A builtin on the goal's resolved instance, evaluated by the product's
    /// `solve_builtin` on a scratch store whose bindings are copied back.
    fn builtin(&mut self, b: Builtin, goal: &Literal) -> bool {
        let goal = self.subst.resolve_literal(goal);
        let mut scratch = Bindings::new();
        if solve_builtin(b, &goal, &mut scratch, &self.prog.syms) != Some(true) {
            return false;
        }
        let mut vars = Vec::new();
        goal.collect_vars(&mut vars);
        for v in vars {
            let value = scratch.resolve(&Term::Var(v));
            if value != Term::Var(v) && self.subst.walk(&Term::Var(v)) == Term::Var(v) {
                self.subst.bind(v, value);
            }
        }
        true
    }
}
