//! Arithmetic and comparison builtins.
//!
//! ILP background knowledge leans on numeric tests (`Charge >= 0.3`,
//! `Size1 < Size2`) and occasionally `is/2`. All builtins here are
//! deterministic: they either fail or succeed exactly once, possibly
//! binding variables (`is`, `=`).

use crate::clause::Literal;
use crate::fxhash::FxHashMap;
use crate::subst::{Bindings, View};
use crate::symbol::{SymbolId, SymbolTable};
use crate::term::{Term, VarId};

/// The builtin predicates understood by the prover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// `X = Y` — unification.
    Unify,
    /// `X \= Y` — not unifiable (checked without residue; both sides should
    /// be sufficiently instantiated).
    NotUnify,
    /// `X < Y` on numbers.
    Lt,
    /// `X =< Y` on numbers.
    Le,
    /// `X > Y` on numbers.
    Gt,
    /// `X >= Y` on numbers.
    Ge,
    /// `X =:= Y` — arithmetic equality.
    ArithEq,
    /// `X =\= Y` — arithmetic inequality.
    ArithNeq,
    /// `X is Expr` — evaluate and unify.
    Is,
    /// `true/0`.
    True,
    /// `fail/0`.
    Fail,
}

// Stable wire codes, for serialized compiled clauses (see
// [`crate::snapshot::KbSnapshot`]). Codes are part of the snapshot format:
// append new builtins, never renumber.
crate::wire_enum!(Builtin, "builtin code" {
    0 => Unify,
    1 => NotUnify,
    2 => Lt,
    3 => Le,
    4 => Gt,
    5 => Ge,
    6 => ArithEq,
    7 => ArithNeq,
    8 => Is,
    9 => True,
    10 => Fail,
});

/// Maps predicate symbols to builtins. Both the Prolog spellings (`=<`) and
/// the word aliases used in generated datasets (`lteq`) are registered.
#[derive(Clone, Debug)]
pub struct BuiltinTable {
    /// Dense, indexed by `SymbolId`: the table is probed once per goal the
    /// prover solves, and builtin names are interned at KB creation, so
    /// their ids are small — an array probe beats any hash.
    dense: Vec<Option<Builtin>>,
}

impl BuiltinTable {
    /// Interns every builtin name into `syms` and builds the lookup table.
    pub fn new(syms: &SymbolTable) -> Self {
        let mut map = FxHashMap::default();
        let mut reg = |name: &str, b: Builtin| {
            map.insert(syms.intern(name), b);
        };
        reg("=", Builtin::Unify);
        reg("\\=", Builtin::NotUnify);
        reg("<", Builtin::Lt);
        reg("=<", Builtin::Le);
        reg(">", Builtin::Gt);
        reg(">=", Builtin::Ge);
        reg("=:=", Builtin::ArithEq);
        reg("=\\=", Builtin::ArithNeq);
        reg("is", Builtin::Is);
        reg("true", Builtin::True);
        reg("fail", Builtin::Fail);
        // Word aliases (friendlier for generated data files).
        reg("lt", Builtin::Lt);
        reg("lteq", Builtin::Le);
        reg("gt", Builtin::Gt);
        reg("gteq", Builtin::Ge);
        reg("neq", Builtin::NotUnify);
        let top = map
            .keys()
            .map(|s: &SymbolId| s.index())
            .max()
            .expect("builtins registered");
        let mut dense = vec![None; top + 1];
        for (sym, b) in map {
            dense[sym.index()] = Some(b);
        }
        BuiltinTable { dense }
    }

    /// Looks up the builtin for a predicate symbol.
    #[inline]
    pub fn get(&self, pred: SymbolId) -> Option<Builtin> {
        self.dense.get(pred.index()).copied().flatten()
    }

    /// True when `pred` names a builtin.
    #[inline]
    pub fn is_builtin(&self, pred: SymbolId) -> bool {
        self.get(pred).is_some()
    }
}

/// A number produced by arithmetic evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
}

impl Num {
    fn as_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(f) => f,
        }
    }

    fn to_term(self) -> Term {
        match self {
            Num::Int(i) => Term::Int(i),
            Num::Float(f) => Term::Float(crate::term::F64(f)),
        }
    }
}

/// Evaluates an arithmetic expression under `bindings`.
///
/// Supported: numeric constants, bound variables, and the functors
/// `+/2, -/2, *-/2, //2, mod/2, min/2, max/2, abs/1, -/1`.
pub fn eval_arith(t: &Term, bindings: &Bindings, syms: &SymbolTable) -> Option<Num> {
    eval_arith_off(t, 0, bindings, syms)
}

/// Offset-aware [`eval_arith`]: every variable in `t` is shifted by `off`
/// on the fly, so expressions inside knowledge-base rule bodies evaluate
/// without a rename-apart clone of the term tree.
pub fn eval_arith_off(
    t: &Term,
    off: VarId,
    bindings: &Bindings,
    syms: &SymbolTable,
) -> Option<Num> {
    match bindings.resolve_view(t, off) {
        View::Int(i, _) => Some(Num::Int(i)),
        View::Float(f, _) => Some(Num::Float(f.0)),
        View::Var(_) | View::Sym(..) => None,
        // Slot-resident terms carry absolute variable ids (offset 0).
        View::App(app, app_off) => eval_app(app, app_off, bindings, syms),
        View::OwnedApp(app, _) => eval_app(&app, 0, bindings, syms),
    }
}

/// Evaluates a compound arithmetic functor whose variables are at `off`.
fn eval_app(t: &Term, off: VarId, bindings: &Bindings, syms: &SymbolTable) -> Option<Num> {
    let Term::App(f, args) = t else {
        unreachable!("eval_app called on non-compound");
    };
    let name = syms.name(*f);
    let ev = |i: usize| eval_arith_off(&args[i], off, bindings, syms);
    match (&*name, args.len()) {
        ("+", 2) => bin(ev(0)?, ev(1)?, |a, b| a + b, |a, b| a.checked_add(b)),
        ("-", 2) => bin(ev(0)?, ev(1)?, |a, b| a - b, |a, b| a.checked_sub(b)),
        ("*", 2) => bin(ev(0)?, ev(1)?, |a, b| a * b, |a, b| a.checked_mul(b)),
        ("/", 2) => {
            let a = ev(0)?;
            let b = ev(1)?;
            let d = b.as_f64();
            if d == 0.0 {
                return None;
            }
            Some(Num::Float(a.as_f64() / d))
        }
        ("mod", 2) => match (ev(0)?, ev(1)?) {
            (Num::Int(x), Num::Int(y)) if y != 0 => Some(Num::Int(x.rem_euclid(y))),
            _ => None,
        },
        ("min", 2) => {
            let a = ev(0)?;
            let b = ev(1)?;
            Some(if a.as_f64() <= b.as_f64() { a } else { b })
        }
        ("max", 2) => {
            let a = ev(0)?;
            let b = ev(1)?;
            Some(if a.as_f64() >= b.as_f64() { a } else { b })
        }
        ("abs", 1) => match ev(0)? {
            Num::Int(i) => Some(Num::Int(i.abs())),
            Num::Float(f) => Some(Num::Float(f.abs())),
        },
        ("-", 1) => match ev(0)? {
            Num::Int(i) => Some(Num::Int(-i)),
            Num::Float(f) => Some(Num::Float(-f)),
        },
        _ => None,
    }
}

fn bin(
    a: Num,
    b: Num,
    ff: impl Fn(f64, f64) -> f64,
    ii: impl Fn(i64, i64) -> Option<i64>,
) -> Option<Num> {
    match (a, b) {
        (Num::Int(x), Num::Int(y)) => ii(x, y).map(Num::Int),
        _ => Some(Num::Float(ff(a.as_f64(), b.as_f64()))),
    }
}

/// Executes builtin `b` on `goal` under `bindings`.
///
/// Returns `Some(true)` on success (possibly binding variables), `Some(false)`
/// on clean failure, and `None` when the goal is insufficiently instantiated
/// (treated as failure by the bounded prover, matching its resource-bounded
/// semantics).
pub fn solve_builtin(
    b: Builtin,
    goal: &Literal,
    bindings: &mut Bindings,
    syms: &SymbolTable,
) -> Option<bool> {
    solve_builtin_off(b, goal, 0, bindings, syms)
}

/// Offset-aware [`solve_builtin`]: every variable in `goal` is shifted by
/// `goff` on the fly. This is how the optimized prover runs builtins inside
/// renamed-apart rule bodies without cloning the goal literal (the seed
/// semantics cloned via `offset_vars`; results and bindings are identical).
pub fn solve_builtin_off(
    b: Builtin,
    goal: &Literal,
    goff: VarId,
    bindings: &mut Bindings,
    syms: &SymbolTable,
) -> Option<bool> {
    match b {
        Builtin::True => Some(true),
        Builtin::Fail => Some(false),
        Builtin::Unify => {
            if goal.args.len() != 2 {
                return None;
            }
            Some(bindings.unify_pair(&goal.args[0], goff, &goal.args[1], goff, false))
        }
        Builtin::NotUnify => {
            if goal.args.len() != 2 {
                return None;
            }
            let mark = bindings.mark();
            let unified = bindings.unify_off(&goal.args[0], goff, &goal.args[1], goff, false);
            bindings.undo_to(mark);
            Some(!unified)
        }
        Builtin::Is => {
            if goal.args.len() != 2 {
                return None;
            }
            let v = eval_arith_off(&goal.args[1], goff, bindings, syms)?;
            Some(bindings.unify_pair(&goal.args[0], goff, &v.to_term(), 0, false))
        }
        Builtin::Lt
        | Builtin::Le
        | Builtin::Gt
        | Builtin::Ge
        | Builtin::ArithEq
        | Builtin::ArithNeq => {
            if goal.args.len() != 2 {
                return None;
            }
            let x = eval_arith_off(&goal.args[0], goff, bindings, syms)?.as_f64();
            let y = eval_arith_off(&goal.args[1], goff, bindings, syms)?.as_f64();
            Some(match b {
                Builtin::Lt => x < y,
                Builtin::Le => x <= y,
                Builtin::Gt => x > y,
                Builtin::Ge => x >= y,
                Builtin::ArithEq => x == y,
                Builtin::ArithNeq => x != y,
                _ => unreachable!("numeric comparison"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SymbolTable, BuiltinTable) {
        let t = SymbolTable::new();
        let b = BuiltinTable::new(&t);
        (t, b)
    }

    #[test]
    fn registry_covers_spellings_and_aliases() {
        let (t, b) = setup();
        assert_eq!(b.get(t.intern("=<")), Some(Builtin::Le));
        assert_eq!(b.get(t.intern("lteq")), Some(Builtin::Le));
        assert_eq!(b.get(t.intern("gteq")), Some(Builtin::Ge));
        assert_eq!(b.get(t.intern("atm")), None);
    }

    #[test]
    fn arith_eval_mixed_types() {
        let (t, _) = setup();
        let bnd = Bindings::new();
        let plus = t.intern("+");
        let e = Term::app(plus, vec![Term::Int(1), Term::Float(crate::term::F64(0.5))]);
        assert_eq!(eval_arith(&e, &bnd, &t), Some(Num::Float(1.5)));
        let e2 = Term::app(plus, vec![Term::Int(1), Term::Int(2)]);
        assert_eq!(eval_arith(&e2, &bnd, &t), Some(Num::Int(3)));
    }

    #[test]
    fn arith_on_unbound_var_is_none() {
        let (t, _) = setup();
        let bnd = Bindings::new();
        assert_eq!(eval_arith(&Term::Var(0), &bnd, &t), None);
    }

    #[test]
    fn comparison_and_is() {
        let (t, b) = setup();
        let mut bnd = Bindings::new();
        let lt = Literal::new(t.intern("<"), vec![Term::Int(1), Term::Int(2)]);
        assert_eq!(
            solve_builtin(b.get(lt.pred).unwrap(), &lt, &mut bnd, &t),
            Some(true)
        );

        let is = Literal::new(
            t.intern("is"),
            vec![
                Term::Var(0),
                Term::app(t.intern("*"), vec![Term::Int(3), Term::Int(4)]),
            ],
        );
        assert_eq!(solve_builtin(Builtin::Is, &is, &mut bnd, &t), Some(true));
        assert_eq!(bnd.resolve(&Term::Var(0)), Term::Int(12));
    }

    #[test]
    fn not_unify_leaves_no_bindings() {
        let (t, _) = setup();
        let mut bnd = Bindings::new();
        let g = Literal::new(t.intern("\\="), vec![Term::Var(0), Term::Int(1)]);
        // X \= 1 with X unbound: they unify, so \= fails...
        assert_eq!(
            solve_builtin(Builtin::NotUnify, &g, &mut bnd, &t),
            Some(false)
        );
        // ...and must not leave X bound.
        assert!(bnd.lookup(0).is_none());
    }

    #[test]
    fn division_by_zero_fails() {
        let (t, _) = setup();
        let bnd = Bindings::new();
        let e = Term::app(t.intern("/"), vec![Term::Int(1), Term::Int(0)]);
        assert_eq!(eval_arith(&e, &bnd, &t), None);
    }
}
