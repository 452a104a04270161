//! Heads matched by constant: `evaluate_rule` against the loop it replaced.
//!
//! The oracle is written here against public API only: for every live
//! example, charge one step, unify the rule head with the example in a
//! fresh binding store, and prove the body on what that bound. Coverage
//! skips examples a ground head argument rules out, and binds a simple
//! head's variables straight from a ground example; neither may change a
//! covered bit or a step. The cases cover heads with one and two constants,
//! a repeated variable, ground and non-ground compound arguments, numbers,
//! and examples with a variable or a compound argument, of another
//! predicate, or of another arity.

use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::coverage::{evaluate_rule, Coverage};
use p2mdie_ilp::examples::Examples;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::{ProofLimits, Prover};
use p2mdie_logic::subst::Bindings;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::{Term, F64};
use proptest::prelude::*;

/// One side, the way coverage was computed before heads were matched by
/// constant.
fn unify_every_example(
    kb: &KnowledgeBase,
    rule: &Clause,
    lits: &[Literal],
    live: Option<&Bitset>,
) -> (Bitset, u64) {
    let prover = Prover::new(kb, ProofLimits::default());
    let mut bits = Bitset::new(lits.len());
    let mut steps = 0;
    for (i, example) in lits.iter().enumerate() {
        if live.is_some_and(|l| !l.get(i)) {
            continue;
        }
        steps += 1;
        let mut bindings = Bindings::new();
        if bindings.unify_literals(&rule.head, example, false) {
            let (proved, stats) = prover.prove_with_bindings(&rule.body, bindings);
            steps += stats.steps;
            if proved {
                bits.set(i);
            }
        }
    }
    (bits, steps)
}

fn oracle(
    kb: &KnowledgeBase,
    rule: &Clause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    live_neg: Option<&Bitset>,
) -> Coverage {
    let (pos, pos_steps) = unify_every_example(kb, rule, &examples.pos, live_pos);
    let (neg, neg_steps) = unify_every_example(kb, rule, &examples.neg, live_neg);
    Coverage {
        pos,
        neg,
        steps: pos_steps + neg_steps,
    }
}

struct World {
    syms: SymbolTable,
    kb: KnowledgeBase,
}

impl World {
    fn sym(&self, name: &str) -> Term {
        Term::Sym(self.syms.intern(name))
    }

    fn app(&self, f: &str, args: Vec<Term>) -> Term {
        Term::app(self.syms.intern(f), args)
    }

    fn lit(&self, pred: &str, args: Vec<Term>) -> Literal {
        Literal::new(self.syms.intern(pred), args)
    }
}

/// `q/2` over constants, numbers and a compound; `r/1` over numbers.
fn world() -> World {
    let syms = SymbolTable::new();
    let mut w = World {
        kb: KnowledgeBase::new(syms.clone()),
        syms,
    };
    let facts = [
        ("q", vec![w.sym("a"), Term::Int(1)]),
        ("q", vec![w.sym("b"), Term::Int(2)]),
        ("q", vec![w.sym("k"), w.sym("a")]),
        ("q", vec![w.app("f", vec![w.sym("a")]), Term::Int(3)]),
        ("q", vec![w.sym("a"), w.app("f", vec![w.sym("a")])]),
        ("r", vec![Term::Int(1)]),
        ("r", vec![Term::Int(3)]),
        ("r", vec![w.sym("k")]),
    ];
    for (pred, args) in facts {
        let fact = w.lit(pred, args);
        w.kb.assert_fact(fact);
    }
    w.kb.optimize();
    w
}

/// Examples of every shape the head test meets.
fn examples(w: &World) -> Vec<Literal> {
    let (a, b, k, m) = (w.sym("a"), w.sym("b"), w.sym("k"), w.sym("m"));
    let fa = w.app("f", vec![a.clone()]);
    let args: Vec<Vec<Term>> = vec![
        vec![a.clone(), k.clone()],
        vec![b.clone(), k.clone()],
        vec![a.clone(), m.clone()],
        vec![k.clone(), a.clone()],
        vec![a.clone(), a.clone()],
        vec![a.clone(), b.clone()],
        vec![Term::Int(1), Term::Int(1)],
        vec![a.clone(), Term::Int(1)],
        vec![a.clone(), Term::Int(2)],
        vec![a.clone(), Term::Float(F64(0.5))],
        vec![fa.clone(), k.clone()],
        vec![fa.clone(), fa.clone()],
        vec![w.app("f", vec![b.clone()]), Term::Int(3)],
        vec![w.app("g", vec![a.clone()]), k.clone()],
        vec![k.clone(), a.clone(), m.clone()],
        vec![k.clone(), b.clone(), m.clone()],
        vec![k.clone(), a.clone(), k.clone()],
        // Variables in examples share the rule's namespace, as they always
        // have under `unify_literals(head, example)`.
        vec![Term::Var(0), k.clone()],
        vec![a.clone(), Term::Var(1)],
        vec![Term::Var(2), Term::Var(2)],
        vec![w.app("f", vec![Term::Var(0)]), k.clone()],
        vec![k.clone(), Term::Var(0), m.clone()],
        vec![a.clone()],
    ];
    let mut lits: Vec<Literal> = args.into_iter().map(|a| w.lit("t", a)).collect();
    lits.push(w.lit("u", vec![a, k]));
    lits
}

/// Rules over `t`, dense as `prepare_rule` leaves them, so the oracle sees
/// the very clause coverage proves.
fn rules(w: &World) -> Vec<Clause> {
    let (a, k, m) = (w.sym("a"), w.sym("k"), w.sym("m"));
    let v = Term::Var;
    let q = |x: Term, y: Term| w.lit("q", vec![x, y]);
    let r = |x: Term| w.lit("r", vec![x]);
    let rule = |head: Vec<Term>, body: Vec<Literal>| Clause::new(w.lit("t", head), body);
    vec![
        // One constant.
        rule(vec![v(0), k.clone()], vec![q(v(0), v(1))]),
        rule(vec![k.clone(), v(0)], vec![q(v(0), v(1))]),
        // Two constants, arity 3.
        rule(vec![k.clone(), v(0), m.clone()], vec![q(v(0), v(1))]),
        // A repeated variable.
        rule(vec![v(0), v(0)], vec![q(v(0), v(1))]),
        // Numbers.
        rule(vec![v(0), Term::Int(1)], vec![q(v(0), Term::Int(1))]),
        rule(vec![v(0), Term::Float(F64(0.5))], vec![q(v(0), v(1))]),
        // A ground and a non-ground compound.
        rule(
            vec![w.app("f", vec![a.clone()]), v(0)],
            vec![q(w.app("f", vec![a.clone()]), v(1)), r(v(1))],
        ),
        rule(
            vec![w.app("f", vec![v(0)]), v(1)],
            vec![q(v(0), v(2)), r(v(1))],
        ),
        // Only variables.
        rule(vec![v(0), v(1)], vec![q(v(0), v(2)), r(v(2))]),
        // Ground head, no body.
        rule(vec![a, k], vec![]),
    ]
}

#[test]
fn every_head_shape_covers_as_the_unify_loop() {
    let w = world();
    let lits = examples(&w);
    let half = lits.len() / 2;
    let ex = Examples::new(lits[..half].to_vec(), lits[half..].to_vec());
    let mut live_pos = ex.full_pos_live();
    live_pos.clear(1);
    live_pos.clear(4);
    let mut live_neg = Bitset::new(ex.num_neg());
    for i in (0..ex.num_neg()).step_by(2) {
        live_neg.set(i);
    }
    for rule in rules(&w) {
        for (lp, ln) in [(None, None), (Some(&live_pos), Some(&live_neg))] {
            let got = evaluate_rule(&w.kb, ProofLimits::default(), &rule, &ex, lp, ln);
            let want = oracle(&w.kb, &rule, &ex, lp, ln);
            assert_eq!(got, want, "{}", rule.display(&w.syms));
        }
    }
}

/// Random heads over the world's vocabulary, renumbered densely, against
/// the same examples.
fn arb_rule(w: &World) -> BoxedStrategy<Clause> {
    let (a, k) = (w.sym("a"), w.sym("k"));
    let fa = w.app("f", vec![a.clone()]);
    let f = w.syms.intern("f");
    let arg = prop_oneof![
        (0u32..3).prop_map(Term::Var),
        (0u32..3).prop_map(Term::Var),
        proptest::sample::select(vec![a, k, Term::Int(1), fa]),
        (0u32..3).prop_map(move |v| Term::app(f, vec![Term::Var(v)])),
    ];
    let (t, q) = (w.syms.intern("t"), w.syms.intern("q"));
    let r = w.syms.intern("r");
    (
        proptest::collection::vec(arg, 1..4),
        0u32..3,
        0u32..4,
        any::<bool>(),
    )
        .prop_map(move |(head, x, y, with_r)| {
            let mut body = vec![Literal::new(q, vec![Term::Var(x), Term::Var(y)])];
            if with_r {
                body.push(Literal::new(r, vec![Term::Var(y)]));
            }
            Clause::new(Literal::new(t, head), body).normalize()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_heads_cover_as_the_unify_loop(rule in arb_rule(&world())) {
        let w = world();
        let lits = examples(&w);
        let ex = Examples::new(lits.clone(), lits);
        let got = evaluate_rule(&w.kb, ProofLimits::default(), &rule, &ex, None, None);
        prop_assert_eq!(got, oracle(&w.kb, &rule, &ex, None, None), "{:?}", rule);
    }
}
