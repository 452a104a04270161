//! The binding store against a model of what it stores: a plain
//! `Vec<Option<Term>>` of slots and a trail, written here from the semantics
//! `subst.rs` documents — a variable is bound to a term with its offset
//! baked in, a variable-to-variable link binds the left side, `walk` follows
//! links, a failed unification keeps its partial bindings, and bindings are
//! undone in trail order.
//!
//! Random sequences of `bind`, `unify_off`, `unify_term_id`, `mark`,
//! `undo_to`, `clear` and `reset` run on both, over compounds (so the heap
//! is pushed and popped out of order with atomic bindings), variable chains,
//! and values the arena holds and does not hold. After every operation each
//! variable must resolve, look up and test ground as in the model, and
//! `probe` must be `resolved_ground` followed by `arena.lookup`.

use p2mdie_logic::arena::{Probe, TermArena, TermId};
use p2mdie_logic::subst::Bindings;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::{Term, VarId, F64};
use proptest::prelude::*;

/// Variables the checks look at: every id a term or an offset can reach.
const VARS: VarId = 10;

#[derive(Default, Clone)]
struct Model {
    slots: Vec<Option<Term>>,
    trail: Vec<VarId>,
}

impl Model {
    fn get(&self, v: VarId) -> Option<&Term> {
        self.slots.get(v as usize).and_then(Option::as_ref)
    }

    fn bind(&mut self, v: VarId, t: Term) {
        if self.slots.len() <= v as usize {
            self.slots.resize(v as usize + 1, None);
        }
        self.slots[v as usize] = Some(t);
        self.trail.push(v);
    }

    fn walk(&self, t: &Term) -> Term {
        let mut cur = t.clone();
        while let Term::Var(v) = cur {
            match self.get(v) {
                Some(next) => cur = next.clone(),
                None => break,
            }
        }
        cur
    }

    fn resolve(&self, t: &Term) -> Term {
        match self.walk(t) {
            Term::App(f, args) => Term::App(f, args.iter().map(|a| self.resolve(a)).collect()),
            other => other,
        }
    }

    /// `walk` as a posting key: the walked term when it is ground as it
    /// stands (a compound's own variables are not substituted).
    fn resolved_ground(&self, t: &Term) -> Option<Term> {
        Some(self.walk(t)).filter(Term::is_ground)
    }

    fn occurs(&self, v: VarId, t: &Term) -> bool {
        match self.walk(t) {
            Term::Var(w) => w == v,
            Term::App(_, args) => args.iter().any(|a| self.occurs(v, a)),
            _ => false,
        }
    }

    /// True when no variable's binding leads back to itself (every
    /// resolve terminates).
    fn acyclic(&self) -> bool {
        fn depth(m: &Model, t: &Term, budget: u32) -> bool {
            budget > 0
                && match m.walk_bounded(t, budget) {
                    Some(Term::App(_, args)) => args.iter().all(|a| depth(m, a, budget - 1)),
                    Some(_) => true,
                    None => false,
                }
        }
        (0..VARS).all(|v| depth(self, &Term::Var(v), 32))
    }

    fn walk_bounded(&self, t: &Term, mut budget: u32) -> Option<Term> {
        let mut cur = t.clone();
        while let Term::Var(v) = cur {
            match self.get(v) {
                Some(next) if budget > 0 => {
                    budget -= 1;
                    cur = next.clone();
                }
                Some(_) => return None,
                None => break,
            }
        }
        Some(cur)
    }

    /// Unifies two terms whose offsets are already applied.
    fn unify(&mut self, a: &Term, b: &Term, occurs_check: bool) -> bool {
        let (a, b) = (self.walk(a), self.walk(b));
        match (&a, &b) {
            (Term::Var(x), Term::Var(y)) => {
                if x != y {
                    self.bind(*x, b.clone());
                }
                true
            }
            (Term::Var(x), _) => {
                if occurs_check && self.occurs(*x, &b) {
                    return false;
                }
                self.bind(*x, b.clone());
                true
            }
            (_, Term::Var(y)) => {
                if occurs_check && self.occurs(*y, &a) {
                    return false;
                }
                self.bind(*y, a.clone());
                true
            }
            (Term::App(f, xs), Term::App(g, ys)) => {
                f == g
                    && xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys.iter())
                        .all(|(x, y)| self.unify(x, y, occurs_check))
            }
            _ => a == b,
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().unwrap();
            self.slots[v as usize] = None;
        }
    }

    fn reset(&mut self, keep: usize) {
        self.undo_to(0);
        self.slots.truncate(keep);
    }
}

#[derive(Clone, Debug)]
enum Op {
    Bind(VarId, Term),
    Unify(Term, VarId, Term, VarId, bool),
    UnifyId(Term, VarId, usize),
    Mark,
    Undo(usize),
    Clear,
    Reset(usize),
}

struct World {
    syms: SymbolTable,
    arena: TermArena,
    /// The interned terms, in id order.
    cells: Vec<TermId>,
}

fn world() -> World {
    let syms = SymbolTable::new();
    let (a, b, c) = (
        Term::Sym(syms.intern("a")),
        Term::Sym(syms.intern("b")),
        Term::Sym(syms.intern("c")),
    );
    let (f, g) = (syms.intern("f"), syms.intern("g"));
    // `d`, `e`, integers other than 0 and 1, and the float 1.5 are never
    // interned: ground, and a miss.
    syms.intern("d");
    syms.intern("e");
    let interned = [
        a.clone(),
        b.clone(),
        c,
        Term::Int(0),
        Term::Int(1),
        Term::Float(F64(0.5)),
        Term::app(f, vec![a.clone()]),
        Term::app(g, vec![b.clone()]),
        Term::app(f, vec![a, Term::Int(1)]),
        Term::app(f, vec![Term::app(g, vec![b])]),
    ];
    let mut arena = TermArena::new();
    let cells = interned.iter().map(|t| arena.intern(t)).collect();
    World { syms, arena, cells }
}

/// Terms over the world's vocabulary: variables 0..6, the constants, a few
/// numbers, `f/1`, `f/2` and `g/1`, two levels deep.
fn arb_term(syms: &SymbolTable) -> BoxedStrategy<Term> {
    let consts: Vec<Term> = ["a", "b", "c", "d", "e"]
        .iter()
        .map(|n| Term::Sym(syms.intern(n)))
        .chain([
            Term::Int(0),
            Term::Int(1),
            Term::Int(7),
            Term::Float(F64(0.5)),
            Term::Float(F64(1.5)),
        ])
        .collect();
    let (f, g) = (syms.intern("f"), syms.intern("g"));
    let leaf = prop_oneof![
        (0u32..6).prop_map(Term::Var),
        (0u32..6).prop_map(Term::Var),
        proptest::sample::select(consts),
    ];
    leaf.prop_recursive(2, 12, 2, move |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(move |args| Term::app(f, args)),
            inner.prop_map(move |arg| Term::app(g, vec![arg])),
        ]
    })
}

fn arb_ops(w: &World) -> BoxedStrategy<Vec<Op>> {
    let term = || arb_term(&w.syms);
    let off = || proptest::sample::select(vec![0u32, 0, 3]);
    let cells = w.cells.len();
    let op = prop_oneof![
        ((0u32..VARS), term()).prop_map(|(v, t)| Op::Bind(v, t)),
        (term(), off(), term(), off(), any::<bool>())
            .prop_map(|(a, ao, b, bo, oc)| Op::Unify(a, ao, b, bo, oc)),
        (term(), off(), term(), off(), any::<bool>())
            .prop_map(|(a, ao, b, bo, oc)| Op::Unify(a, ao, b, bo, oc)),
        (term(), off(), 0..cells).prop_map(|(a, ao, c)| Op::UnifyId(a, ao, c)),
        (term(), off(), 0..cells).prop_map(|(a, ao, c)| Op::UnifyId(a, ao, c)),
        Just(Op::Mark),
        Just(Op::Mark),
        (0usize..4).prop_map(Op::Undo),
        Just(Op::Clear),
        (0usize..12).prop_map(Op::Reset),
    ];
    proptest::collection::vec(op, 1..40)
}

/// Runs one operation on both stores. `marks` pairs each live store mark
/// with the model's trail length at the same point.
fn apply(
    op: Op,
    store: &mut Bindings,
    model: &mut Model,
    marks: &mut Vec<(p2mdie_logic::subst::Mark, usize)>,
    w: &World,
) -> Result<(), TestCaseError> {
    match op {
        Op::Bind(v, t) => {
            if model.get(v).is_none() && !model.occurs(v, &t) {
                store.bind(v, t.clone());
                model.bind(v, t);
            }
        }
        Op::Unify(a, aoff, b, boff, occurs_check) => {
            let (sa, sb) = (a.offset_vars(aoff), b.offset_vars(boff));
            // Without the occurs check a binding may close a cycle, which
            // no resolve survives: such a case runs with the check on.
            let mut trial = model.clone();
            trial.unify(&sa, &sb, occurs_check);
            let occurs_check = occurs_check || !trial.acyclic();
            let want = model.unify(&sa, &sb, occurs_check);
            let got = store.unify_off(&a, aoff, &b, boff, occurs_check);
            prop_assert_eq!(got, want, "unify_off({:?}, {}, {:?}, {})", a, aoff, b, boff);
        }
        Op::UnifyId(a, aoff, cell) => {
            let tid = w.cells[cell];
            let want = model.unify(&a.offset_vars(aoff), w.arena.term(tid), false);
            let got = store.unify_term_id(&a, aoff, tid, &w.arena);
            prop_assert_eq!(got, want, "unify_term_id({:?}, {}, {:?})", a, aoff, tid);
        }
        Op::Mark => marks.push((store.mark(), model.trail.len())),
        Op::Undo(k) => {
            if let Some(&(mark, at)) = marks.get(k) {
                store.undo_to(mark);
                model.undo_to(at);
                marks.truncate(k + 1);
            }
        }
        Op::Clear => {
            store.clear();
            model.undo_to(0);
            marks.clear();
        }
        Op::Reset(keep) => {
            store.reset(keep);
            model.reset(keep);
            marks.clear();
        }
    }
    Ok(())
}

/// Every observation of the store against the model.
fn check(store: &Bindings, model: &Model, w: &World) -> Result<(), TestCaseError> {
    let f = w.syms.intern("f");
    let probes = [
        Term::app(f, vec![Term::Var(0)]),
        Term::app(f, vec![Term::Sym(w.syms.intern("a"))]),
        Term::app(f, vec![Term::Sym(w.syms.intern("d"))]),
        Term::Sym(w.syms.intern("e")),
        Term::Int(1),
    ];
    let vars = (0..VARS).map(Term::Var);
    for v in 0..VARS {
        prop_assert_eq!(store.lookup(v), model.get(v).cloned(), "lookup({})", v);
    }
    for t in vars.chain(probes) {
        let resolved = model.resolve(&t);
        prop_assert_eq!(store.resolve(&t), resolved.clone(), "resolve({:?})", t);
        prop_assert_eq!(
            store.is_ground(&t),
            resolved.is_ground(),
            "is_ground({:?})",
            t
        );
        for off in [0, 3] {
            let ground = store.resolved_ground(&t, off);
            prop_assert_eq!(
                ground.clone(),
                model.resolved_ground(&t.offset_vars(off)),
                "resolved_ground({:?}, {})",
                t,
                off
            );
            let want = ground.map_or(Probe::Free, |g| {
                w.arena.lookup(&g).map_or(Probe::Miss, Probe::Id)
            });
            prop_assert_eq!(
                store.probe(&t, off, &w.arena),
                want,
                "probe({:?}, {})",
                t,
                off
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_store_binds_undoes_and_probes_as_the_model(ops in arb_ops(&world())) {
        let w = world();
        let (mut store, mut model, mut marks) = (Bindings::new(), Model::default(), Vec::new());
        for op in ops {
            apply(op, &mut store, &mut model, &mut marks, &w)?;
            check(&store, &model, &w)?;
        }
    }
}
