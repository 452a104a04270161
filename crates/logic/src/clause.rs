//! Literals and Horn clauses.

use crate::parser::REL_OPS;
use crate::symbol::{SymbolId, SymbolTable};
use crate::term::{var_name, write_prefix, write_term, Term, VarId};
use std::borrow::Cow;
use std::fmt;

/// A predicate applied to arguments, e.g. `bond(M, A, B, 2)`.
///
/// Literals are positive; Horn clauses are `head :- body` where every body
/// literal is proved by SLD resolution (builtins included). Negation is not
/// part of the language the paper's search uses.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct Literal {
    /// Predicate symbol.
    pub pred: SymbolId,
    /// Argument terms (may be empty for propositional atoms).
    pub args: Box<[Term]>,
}
crate::wire_struct!(Literal { pred, args });

impl Literal {
    /// Builds a literal from a predicate and argument vector.
    pub fn new(pred: SymbolId, args: Vec<Term>) -> Self {
        Literal {
            pred,
            args: args.into_boxed_slice(),
        }
    }

    /// Number of arguments.
    #[inline]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The `(predicate, arity)` key used for indexing.
    #[inline]
    pub fn key(&self) -> PredKey {
        PredKey {
            pred: self.pred,
            arity: self.args.len() as u32,
        }
    }

    /// True when no argument contains a variable.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Appends every variable id occurring in the literal to `out`.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        for a in self.args.iter() {
            a.collect_vars(out);
        }
    }

    /// The largest variable id occurring in the literal, if any.
    pub fn max_var(&self) -> Option<VarId> {
        self.args.iter().filter_map(Term::max_var).max()
    }

    /// Returns a copy with every variable id shifted by `offset`.
    pub fn offset_vars(&self, offset: VarId) -> Literal {
        Literal {
            pred: self.pred,
            args: self.args.iter().map(|a| a.offset_vars(offset)).collect(),
        }
    }

    /// Applies `map` to every variable, returning the rewritten literal.
    pub fn map_vars(&self, map: &mut impl FnMut(VarId) -> Term) -> Literal {
        Literal {
            pred: self.pred,
            args: self.args.iter().map(|a| a.map_vars(map)).collect(),
        }
    }

    /// Structural size (1 for the predicate plus the size of each argument).
    pub fn size(&self) -> usize {
        1 + self.args.iter().map(Term::size).sum::<usize>()
    }

    /// Pretty-printer against a symbol table.
    pub fn display<'a>(&'a self, syms: &'a SymbolTable) -> LiteralDisplay<'a> {
        LiteralDisplay { lit: self, syms }
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a:?}")?;
        }
        write!(f, ")")
    }
}

/// `(predicate, arity)` pair identifying a relation.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct PredKey {
    /// Predicate symbol.
    pub pred: SymbolId,
    /// Arity.
    pub arity: u32,
}
crate::wire_struct!(PredKey { pred, arity });

/// Dense identifier of a `(predicate, arity)` relation inside one
/// [`crate::kb::KnowledgeBase`]. Replaces per-goal [`PredKey`] map probes
/// with a direct array index; ids are stable for the KB's lifetime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);
crate::wire_struct!(PredId { 0 });

impl PredId {
    /// The raw index of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pred#{}", self.0)
    }
}

/// Pre-classified dispatch of a goal literal: what the prover does with it,
/// decided once at compile time instead of once per proof step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LitKind {
    /// The predicate symbol names a builtin (checked before arity, exactly
    /// like the interpreted dispatch did).
    Builtin(crate::builtins::Builtin),
    /// A user predicate with a knowledge-base entry.
    Pred(PredId),
    /// A predicate unknown to the KB at compile time: no facts, no rules —
    /// the goal fails without consuming any inference step.
    Unknown,
}
crate::wire_enum!(LitKind, "litkind tag" {
    0 => Unknown,
    1 => Pred(id),
    2 => Builtin(builtin),
});

/// A body literal with its dispatch resolved (the "compiled" form the
/// prover's inner loop consumes — WAM-lite: direct slots, no bytecode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledLiteral {
    /// The literal's term structure (the unification payload).
    pub lit: Literal,
    /// Resolved dispatch.
    pub kind: LitKind,
}
crate::wire_struct!(CompiledLiteral { lit, kind });

/// A clause whose body literals carry resolved dispatch and whose
/// rename-apart variable span is precomputed.
///
/// Stored next to the plain [`Clause`] in the KB: the prover walks
/// `CompiledClause`s, [`crate::kb::KnowledgeBase::rules_for`] serves the
/// plain form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledClause {
    /// The clause head (never dispatched on, so it stays a plain literal).
    pub head: Literal,
    /// Compiled body, proved left to right.
    pub body: Box<[CompiledLiteral]>,
    /// One past the largest variable id ([`Clause::var_span`], precomputed
    /// so rule expansion skips the per-candidate `max_var` scan).
    pub var_span: VarId,
}
crate::wire_struct!(CompiledClause {
    head,
    body,
    var_span
});

/// A compiled goal conjunction: the form [`crate::prover::Prover`] actually
/// runs. Compile once per query (or once per rule evaluation) and reuse
/// across thousands of proofs — coverage testing's hot path.
#[derive(Clone, Debug, Default)]
pub struct CompiledGoals {
    /// Compiled goals, proved left to right.
    pub lits: Box<[CompiledLiteral]>,
    /// One past the largest variable id of the original goals.
    pub var_span: VarId,
}

/// A *borrowed* compiled goal conjunction: the same shape as
/// [`CompiledGoals`], but the literals live wherever the caller keeps them
/// (the stack, a reused buffer, a KB clause). This is what makes the
/// saturation loop allocation-free (ROADMAP "Borrowed compiled goals"): a
/// query built per recall round becomes one stack-local
/// [`CompiledLiteral`] — no literal clone, no goals box.
#[derive(Clone, Copy, Debug)]
pub struct CompiledGoalsRef<'a> {
    /// Compiled goals, proved left to right.
    pub lits: &'a [CompiledLiteral],
    /// One past the largest variable id of the goals.
    pub var_span: VarId,
}

impl<'a> From<&'a CompiledGoals> for CompiledGoalsRef<'a> {
    fn from(goals: &'a CompiledGoals) -> Self {
        CompiledGoalsRef {
            lits: &goals.lits,
            var_span: goals.var_span,
        }
    }
}

impl<'a> CompiledGoalsRef<'a> {
    /// Borrows a single compiled literal as a one-goal conjunction.
    pub fn single(goal: &'a CompiledLiteral) -> Self {
        CompiledGoalsRef {
            lits: std::slice::from_ref(goal),
            var_span: goal.lit.max_var().map_or(0, |v| v + 1),
        }
    }
}

/// Display adapter produced by [`Literal::display`].
pub struct LiteralDisplay<'a> {
    lit: &'a Literal,
    syms: &'a SymbolTable,
}

impl fmt::Display for LiteralDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.syms.name(self.lit.pred);
        // A comparison or `is` prints infix, as the parser reads it.
        if let [lhs, rhs] = &self.lit.args[..] {
            if &*name == "is" || REL_OPS.contains(&&*name) {
                write_term(f, lhs, self.syms)?;
                write!(f, " {name} ")?;
                return write_term(f, rhs, self.syms);
            }
        }
        write_prefix(f, &name, &self.lit.args, self.syms)
    }
}

/// A definite Horn clause `head :- body` (a fact when the body is empty).
#[derive(Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Clause {
    /// The single positive literal.
    pub head: Literal,
    /// Conjunction of body literals, proved left to right.
    pub body: Vec<Literal>,
}
crate::wire_struct!(Clause { head, body });

impl Clause {
    /// Builds a clause from a head and body.
    pub fn new(head: Literal, body: Vec<Literal>) -> Self {
        Clause { head, body }
    }

    /// Builds a fact (empty body).
    pub fn fact(head: Literal) -> Self {
        Clause {
            head,
            body: Vec::new(),
        }
    }

    /// True when the body is empty.
    #[inline]
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Number of body literals (the "length" used by ILP size constraints).
    #[inline]
    pub fn length(&self) -> usize {
        self.body.len()
    }

    /// Appends every variable id of head and body to `out` (with duplicates).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.head.collect_vars(out);
        for l in &self.body {
            l.collect_vars(out);
        }
    }

    /// The distinct variables of the clause, in first-occurrence order.
    pub fn distinct_vars(&self) -> Vec<VarId> {
        let mut all = Vec::new();
        self.collect_vars(&mut all);
        let mut seen = Vec::new();
        for v in all {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// The largest variable id in the clause, if any.
    pub fn max_var(&self) -> Option<VarId> {
        self.head
            .max_var()
            .into_iter()
            .chain(self.body.iter().filter_map(Literal::max_var))
            .max()
    }

    /// One past the largest variable id (0 for ground clauses); the number of
    /// fresh slots a [`crate::subst::Bindings`] needs for this clause. A
    /// clause naming `Var(VarId::MAX)` has no span that fits: it saturates at
    /// `VarId::MAX`, and [`Clause::dense`] is what gives it one.
    pub fn var_span(&self) -> VarId {
        self.max_var()
            .map_or(0, |v| v.checked_add(1).unwrap_or(VarId::MAX))
    }

    /// True when the clause's variables are exactly `0..n`, so its
    /// [`Clause::var_span`] is its number of variables.
    pub fn has_dense_vars(&self) -> bool {
        let mut vars = Vec::new();
        self.collect_vars(&mut vars);
        vars.sort_unstable();
        vars.dedup();
        vars.last().is_none_or(|&m| m as usize + 1 == vars.len())
    }

    /// The clause as the prover may see it: itself when its variables are
    /// dense, else renumbered by [`Clause::normalize`]. A clause off the wire
    /// may name `Var(100_000_000)`; the prover sizes binding stores and
    /// rename-apart offsets by the span, not by the number of variables.
    /// Renaming changes no proof and no step count.
    pub fn dense(&self) -> Cow<'_, Clause> {
        if self.has_dense_vars() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.normalize())
        }
    }

    /// Returns a copy with every variable id shifted by `offset`.
    pub fn offset_vars(&self, offset: VarId) -> Clause {
        Clause {
            head: self.head.offset_vars(offset),
            body: self.body.iter().map(|l| l.offset_vars(offset)).collect(),
        }
    }

    /// Renames variables to the compact range `0..n` in first-occurrence
    /// order, returning the renamed clause. Two clauses that are equal up to
    /// consistent renaming normalize to the same value.
    pub fn normalize(&self) -> Clause {
        let vars = self.distinct_vars();
        let mut map = std::collections::HashMap::with_capacity(vars.len());
        for (i, v) in vars.iter().enumerate() {
            map.insert(*v, i as VarId);
        }
        let mut f = |v: VarId| Term::Var(map[&v]);
        Clause {
            head: self.head.map_vars(&mut f),
            body: self.body.iter().map(|l| l.map_vars(&mut f)).collect(),
        }
    }

    /// Structural size of head plus body.
    pub fn size(&self) -> usize {
        self.head.size() + self.body.iter().map(Literal::size).sum::<usize>()
    }

    /// True when the clause contains no variables.
    pub fn is_ground(&self) -> bool {
        self.head.is_ground() && self.body.iter().all(Literal::is_ground)
    }

    /// Pretty-printer against a symbol table.
    pub fn display<'a>(&'a self, syms: &'a SymbolTable) -> ClauseDisplay<'a> {
        ClauseDisplay { clause: self, syms }
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l:?}")?;
            }
        }
        Ok(())
    }
}

/// Display adapter produced by [`Clause::display`].
pub struct ClauseDisplay<'a> {
    clause: &'a Clause,
    syms: &'a SymbolTable,
}

impl fmt::Display for ClauseDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.clause.head.display(self.syms))?;
        if !self.clause.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.clause.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", l.display(self.syms))?;
            }
        }
        write!(f, ".")
    }
}

/// Pretty name for variables in error messages and traces.
pub fn pretty_var(v: VarId) -> String {
    var_name(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn lit(syms: &SymbolTable, name: &str, args: Vec<Term>) -> Literal {
        Literal::new(syms.intern(name), args)
    }

    #[test]
    fn keys_distinguish_arity() {
        let t = SymbolTable::new();
        let a = lit(&t, "p", vec![Term::Int(1)]);
        let b = lit(&t, "p", vec![Term::Int(1), Term::Int(2)]);
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key().pred, b.key().pred);
    }

    #[test]
    fn clause_var_utilities() {
        let t = SymbolTable::new();
        let head = lit(&t, "p", vec![Term::Var(3)]);
        let body = vec![lit(&t, "q", vec![Term::Var(3), Term::Var(7)])];
        let c = Clause::new(head, body);
        assert_eq!(c.distinct_vars(), vec![3, 7]);
        assert_eq!(c.max_var(), Some(7));
        assert_eq!(c.var_span(), 8);
        assert_eq!(c.length(), 1);
        assert!(!c.is_fact());
    }

    #[test]
    fn normalize_is_alpha_invariant() {
        let t = SymbolTable::new();
        let c1 = Clause::new(
            lit(&t, "p", vec![Term::Var(5)]),
            vec![lit(&t, "q", vec![Term::Var(5), Term::Var(9)])],
        );
        let c2 = Clause::new(
            lit(&t, "p", vec![Term::Var(0)]),
            vec![lit(&t, "q", vec![Term::Var(0), Term::Var(1)])],
        );
        assert_eq!(c1.normalize(), c2.normalize());
    }

    #[test]
    fn display_shapes() {
        let t = SymbolTable::new();
        let c = Clause::new(
            lit(&t, "p", vec![Term::Var(0)]),
            vec![lit(&t, "q", vec![Term::Var(0)])],
        );
        assert_eq!(format!("{}", c.display(&t)), "p(A) :- q(A).");
        let f = Clause::fact(lit(&t, "r", vec![]));
        assert_eq!(format!("{}", f.display(&t)), "r.");
        // Builtins and arithmetic print infix, as the parser reads them.
        let src = "r(X) :- X < 3, Y is X * 2 + 1, Z is (X + 1) * -Y, W is X - (Y - 2).";
        let c = crate::parser::Parser::new(&t, src)
            .unwrap()
            .parse_clause()
            .unwrap();
        assert_eq!(
            format!("{}", c.display(&t)),
            "r(A) :- A < 3, B is A * 2 + 1, C is (A + 1) * -B, D is A - (B - 2)."
        );
    }

    #[test]
    fn offset_shifts_all_literals() {
        let t = SymbolTable::new();
        let c = Clause::new(
            lit(&t, "p", vec![Term::Var(0)]),
            vec![lit(&t, "q", vec![Term::Var(1)])],
        );
        let c2 = c.offset_vars(10);
        assert_eq!(c2.distinct_vars(), vec![10, 11]);
    }
}
