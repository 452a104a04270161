//! Differential regression: the zero-allocation goal-stack prover must
//! report exactly what the clone-per-expansion oracle of `oracle/` reports
//! — same `proved`, same `steps`, same `depth_cuts`, same `aborted` —
//! across recursion, builtins, compounds, tight step budgets, and tight
//! depth bounds.

mod oracle;

use oracle::{PlainProgram, Subst};
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::prover::{ProofLimits, Prover};
use p2mdie_logic::subst::Bindings;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;

fn lit(t: &SymbolTable, name: &str, args: Vec<Term>) -> Literal {
    Literal::new(t.intern(name), args)
}

/// Family chain with the classic two-clause `ancestor/2` recursion.
fn family_kb(n: usize) -> (SymbolTable, PlainProgram) {
    let t = SymbolTable::new();
    let mut prog = PlainProgram::new(&t);
    for i in 0..n {
        prog.fact(lit(
            &t,
            "parent",
            vec![
                Term::Sym(t.intern(&format!("p{i}"))),
                Term::Sym(t.intern(&format!("p{}", i + 1))),
            ],
        ));
    }
    prog.rule(Clause::new(
        lit(&t, "ancestor", vec![Term::Var(0), Term::Var(1)]),
        vec![lit(&t, "parent", vec![Term::Var(0), Term::Var(1)])],
    ));
    prog.rule(Clause::new(
        lit(&t, "ancestor", vec![Term::Var(0), Term::Var(2)]),
        vec![
            lit(&t, "parent", vec![Term::Var(0), Term::Var(1)]),
            lit(&t, "ancestor", vec![Term::Var(1), Term::Var(2)]),
        ],
    ));
    (t, prog)
}

/// Trains-style KB: cars with attributes, rules mixing facts, compounds and
/// arithmetic builtins.
fn trains_kb() -> (SymbolTable, PlainProgram) {
    let t = SymbolTable::new();
    let mut prog = PlainProgram::new(&t);
    let cfg = t.intern("cfg");
    for tr in 0..12i64 {
        let train = Term::Sym(t.intern(&format!("t{tr}")));
        for c in 0..(2 + tr % 3) {
            let car = Term::Sym(t.intern(&format!("t{tr}c{c}")));
            prog.fact(lit(&t, "has_car", vec![train.clone(), car.clone()]));
            prog.fact(lit(
                &t,
                "wheels",
                vec![car.clone(), Term::Int(2 + (tr + c) % 3)],
            ));
            if (tr + c) % 2 == 0 {
                prog.fact(lit(&t, "closed", vec![car.clone()]));
            }
            // A compound-valued attribute to exercise App unification.
            prog.fact(lit(
                &t,
                "shape",
                vec![
                    car.clone(),
                    Term::app(cfg, vec![Term::Int(tr % 4), Term::Int(c % 2)]),
                ],
            ));
        }
    }
    // heavy(T) :- has_car(T, C), wheels(C, W), W >= 3.
    prog.rule(Clause::new(
        lit(&t, "heavy", vec![Term::Var(0)]),
        vec![
            lit(&t, "has_car", vec![Term::Var(0), Term::Var(1)]),
            lit(&t, "wheels", vec![Term::Var(1), Term::Var(2)]),
            lit(&t, ">=", vec![Term::Var(2), Term::Int(3)]),
        ],
    ));
    // boxy(T) :- has_car(T, C), closed(C), shape(C, cfg(S, 0)).
    prog.rule(Clause::new(
        lit(&t, "boxy", vec![Term::Var(0)]),
        vec![
            lit(&t, "has_car", vec![Term::Var(0), Term::Var(1)]),
            lit(&t, "closed", vec![Term::Var(1)]),
            lit(
                &t,
                "shape",
                vec![
                    Term::Var(1),
                    Term::app(cfg, vec![Term::Var(2), Term::Int(0)]),
                ],
            ),
        ],
    ));
    // good(T) :- heavy(T), boxy(T).   (rule-over-rule nesting)
    prog.rule(Clause::new(
        lit(&t, "good", vec![Term::Var(0)]),
        vec![
            lit(&t, "heavy", vec![Term::Var(0)]),
            lit(&t, "boxy", vec![Term::Var(0)]),
        ],
    ));
    (t, prog)
}

fn assert_agree(prog: &PlainProgram, limits: ProofLimits, goal: &Literal) {
    let new = Prover::new(&prog.to_kb(), limits).prove_ground(goal);
    let old = prog.prover(limits).prove_ground(goal);
    assert_eq!(new.0, old.0, "proved mismatch on {goal:?} under {limits:?}");
    assert_eq!(new.1, old.1, "stats mismatch on {goal:?} under {limits:?}");
}

#[test]
fn family_chain_agrees_across_limits() {
    let (t, prog) = family_kb(30);
    let c = |n: &str| Term::Sym(t.intern(n));
    let queries = [
        lit(&t, "parent", vec![c("p0"), c("p1")]),
        lit(&t, "parent", vec![c("p1"), c("p0")]),
        lit(&t, "ancestor", vec![c("p0"), c("p30")]),
        lit(&t, "ancestor", vec![c("p30"), c("p0")]),
        lit(&t, "ancestor", vec![c("p5"), c("p6")]),
        lit(&t, "ancestor", vec![c("p5"), Term::Var(0)]),
    ];
    let limit_grid = [
        ProofLimits::default(),
        ProofLimits {
            max_depth: 3,
            max_steps: 100_000,
        },
        ProofLimits {
            max_depth: 64,
            max_steps: 100_000,
        },
        ProofLimits {
            max_depth: 64,
            max_steps: 200,
        },
        ProofLimits {
            max_depth: 64,
            max_steps: 7,
        },
        ProofLimits {
            max_depth: 1,
            max_steps: 50,
        },
    ];
    for limits in limit_grid {
        for q in &queries {
            assert_agree(&prog, limits, q);
        }
    }
}

#[test]
fn trains_kb_agrees_on_every_train() {
    let (t, prog) = trains_kb();
    for tr in 0..12 {
        let train = Term::Sym(t.intern(&format!("t{tr}")));
        for pred in ["heavy", "boxy", "good"] {
            for limits in [
                ProofLimits::default(),
                ProofLimits {
                    max_depth: 2,
                    max_steps: 4_000,
                },
                ProofLimits {
                    max_depth: 10,
                    max_steps: 25,
                },
            ] {
                assert_agree(&prog, limits, &lit(&t, pred, vec![train.clone()]));
            }
        }
    }
}

/// Enumerates `goals` to exhaustion on both provers: the solution streams
/// (content and order) and the stats must match. Returns the solutions.
fn assert_streams_agree(
    prog: &PlainProgram,
    limits: ProofLimits,
    goals: &[Literal],
) -> Vec<Literal> {
    let mut new_sols = Vec::new();
    let new_stats = Prover::new(&prog.to_kb(), limits).run(goals, Bindings::new(), &mut |b| {
        new_sols.extend(goals.iter().map(|g| b.resolve_literal(g)));
        true
    });
    let mut old_sols = Vec::new();
    let old_stats = prog.prover(limits).run(goals, Subst::new(), &mut |s| {
        old_sols.extend(goals.iter().map(|g| s.resolve_literal(g)));
        true
    });
    assert_eq!(
        new_sols, old_sols,
        "solution streams must match in order and content on {goals:?} under {limits:?}"
    );
    assert_eq!(
        new_stats, old_stats,
        "stats mismatch on {goals:?} under {limits:?}"
    );
    new_sols
}

#[test]
fn open_queries_enumerate_identically() {
    let (t, prog) = trains_kb();
    let goal = lit(&t, "heavy", vec![Term::Var(0)]);
    let sols = assert_streams_agree(&prog, ProofLimits::default(), &[goal]);
    assert!(!sols.is_empty());
}

/// Arity-0 predicates are the one goal shape that is all ground and still
/// planned as a full-relation walk (there is no first argument to index):
/// every asserted copy is a candidate, a solution and a step, with and
/// without a same-named rule behind the facts, down to the step at which a
/// tight budget aborts the walk.
#[test]
fn arity_zero_facts_agree() {
    let t = SymbolTable::new();
    let mut prog = PlainProgram::new(&t);
    for _ in 0..5 {
        prog.fact(lit(&t, "plain", vec![]));
    }
    for i in 0..3 {
        prog.fact(lit(&t, "val", vec![Term::Int(i)]));
        prog.fact(lit(&t, "backed", vec![]));
    }
    // backed :- val(X), plain.   (behind three `backed.` facts)
    prog.rule(Clause::new(
        lit(&t, "backed", vec![]),
        vec![lit(&t, "val", vec![Term::Var(0)]), lit(&t, "plain", vec![])],
    ));
    let conjunctions = [
        vec![lit(&t, "plain", vec![])],
        vec![lit(&t, "backed", vec![])],
        vec![lit(&t, "val", vec![Term::Var(0)]), lit(&t, "plain", vec![])],
        vec![
            lit(&t, "backed", vec![]),
            lit(&t, "val", vec![Term::Var(0)]),
        ],
        vec![lit(&t, "plain", vec![]), lit(&t, "absent", vec![])],
    ];
    let unbounded = ProofLimits::default();
    assert_eq!(
        assert_streams_agree(&prog, unbounded, &conjunctions[0]).len(),
        5,
        "one solution per asserted copy"
    );
    assert_eq!(
        assert_streams_agree(&prog, unbounded, &conjunctions[1]).len(),
        3 + 3 * 5,
        "facts first, then the rule's solutions"
    );
    for goals in &conjunctions {
        // Budgets from "aborts on the first candidate" to "never aborts".
        for max_steps in 1..=80 {
            let limits = ProofLimits {
                max_depth: 4,
                max_steps,
            };
            assert_streams_agree(&prog, limits, goals);
            assert_agree(&prog, limits, &goals[0]);
        }
    }
}

#[test]
fn prebound_coverage_path_agrees() {
    let (t, prog) = trains_kb();
    let limits = ProofLimits::default();
    // Simulate coverage: V0 prebound to each train, prove the `good` body.
    let body = vec![
        lit(&t, "heavy", vec![Term::Var(0)]),
        lit(&t, "boxy", vec![Term::Var(0)]),
    ];
    for tr in 0..12 {
        let mut b1 = Bindings::new();
        b1.bind(0, Term::Sym(t.intern(&format!("t{tr}"))));
        let mut b2 = Subst::new();
        b2.bind(0, Term::Sym(t.intern(&format!("t{tr}"))));
        let new = Prover::new(&prog.to_kb(), limits).prove_with_bindings(&body, b1);
        let old = prog.prover(limits).prove(&body, b2);
        assert_eq!(new, old, "train t{tr}");
    }
}
