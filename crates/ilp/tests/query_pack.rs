//! Differential tests of query packs: `ProofScratch::eval_pack` proves a
//! parent rule's successors together — one head bind and one proof of the
//! parent's body per example, each member's extra literal at every solution
//! of the body — and each member's covered examples and charged steps must
//! be exactly what proving it alone gives (`ProofScratch::evaluate_side`).
//!
//! The worlds are the memo tests' (`oracle/`): bottom clauses full of
//! variants, and a recursive `linked/3` whose rule expansions rename
//! variables apart. Proof bounds are drawn small, so that a member's proof
//! alone aborts before its extra literal is first tried, between two tries
//! and inside one; masks are whole, sparse and the parent's own coverage;
//! and one scratch and one set of answers serve every pack of a case, as
//! in a search — so the calls of the members' extra literals share the
//! scratch's call table across packs, and a call met again is answered from
//! it. Pinned cases hold the table's key and its budget rule: a recorded
//! call met with less budget than it took, `q(X, X)` against `q(X, Y)`,
//! constants the arena does not hold, and a KB with a non-ground fact.

mod oracle;

use oracle::{shallow_shapes, successors, world};
use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::bottom::{saturate, BottomClause};
use p2mdie_ilp::coverage::{prepare_rule, ExampleIds, PackAnswers, PreparedRule, ProofScratch};
use p2mdie_ilp::refine::{splitmix64, RuleShape};
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::ProofLimits;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::{Term, F64};
use proptest::prelude::*;

/// What a batch of packs met: members proved, member-example pairs whose
/// proof alone covered, or aborted, and extra-literal calls the call table
/// answered.
#[derive(Default, Debug)]
struct Met {
    members: usize,
    covered: usize,
    aborted: usize,
    tabled: u64,
}

/// A parent, its members (the successors whose compiled rule extends it)
/// and the members a pack proves.
struct Pack {
    parent: PreparedRule,
    members: Vec<PreparedRule>,
    which: u64,
}

fn pack_of(kb: &KnowledgeBase, bottom: &BottomClause, parent: &RuleShape, max_body: usize) -> Pack {
    let prepared = |shape: &RuleShape| prepare_rule(kb, &shape.to_clause(bottom));
    let parent_rule = prepared(parent);
    let members: Vec<PreparedRule> = successors(parent, bottom, max_body)
        .iter()
        .map(prepared)
        .filter(|rule| rule.extends(&parent_rule))
        .take(64)
        .collect();
    Pack {
        parent: parent_rule,
        which: u64::MAX >> (64 - members.len().max(1)),
        members,
    }
}

/// Proves `pack` on `live` and holds every member in `which` to its proof
/// alone, example by example when `per_example` (to count aborts).
#[allow(clippy::too_many_arguments)]
fn check(
    kb: &KnowledgeBase,
    proof: ProofLimits,
    pack: &Pack,
    which: u64,
    (lits, ids): (&[Literal], Option<&ExampleIds>),
    live: &Bitset,
    threads: usize,
    (scratch, answers): (&mut ProofScratch<'_>, &mut PackAnswers),
    met: &mut Met,
) {
    if pack.members.is_empty() {
        return;
    }
    scratch.eval_pack(
        &pack.parent,
        &pack.members,
        which,
        lits,
        ids,
        live,
        threads,
        answers,
    );
    let mut alone = ProofScratch::new(kb, proof);
    for (m, member) in pack.members.iter().enumerate() {
        if which & (1 << m) == 0 {
            continue;
        }
        met.members += 1;
        let mut covered = Bitset::default();
        let steps = alone.evaluate_side(member, lits, ids, Some(live), 1, &mut covered);
        assert_eq!(
            (answers.covered(m), answers.steps(m)),
            (&covered, steps),
            "member {m} of {} ({:?} / {:?}), {} live, {proof:?}, threads {threads}",
            pack.members.len(),
            member.body(),
            pack.parent.body(),
            live.count(),
        );
        met.covered += covered.count();
        for i in live.iter_ones() {
            let one = Bitset::from_indices(lits.len(), [i]);
            let mut bit = Bitset::default();
            let steps = alone.evaluate_side(member, lits, ids, Some(&one), 1, &mut bit);
            met.aborted += usize::from(steps == 1 + proof.max_steps + 1);
        }
    }
}

/// A mask of `n` bits holding about `per_mille` of them, drawn from `seed`.
fn drawn(n: usize, seed: u64, per_mille: u64) -> Bitset {
    let mut state = seed;
    Bitset::from_indices(
        n,
        (0..n).filter(|_| {
            state = splitmix64(state);
            state % 1000 < per_mille
        }),
    )
}

/// Every pack of one drawn world: a few parents from the first lattice
/// levels of a few bottom clauses, on both sides, each on the whole side,
/// a sparse mask and the parent's own coverage, with all members and with
/// a drawn subset of them.
fn packs_match_their_members_alone(seed: u64) -> Met {
    let mut state = seed;
    let mut below = move |n: u64| {
        state = splitmix64(state);
        state % n
    };
    let w = world(below(u64::MAX), 8 + below(16) as usize);
    let settings = Settings {
        max_body: 3,
        max_var_depth: 2,
        max_bottom_literals: 40,
        proof: ProofLimits {
            max_depth: 1 + below(4) as u32,
            max_steps: 3 + below(120),
        },
        eval_threads: 1,
        ..Settings::default()
    };
    let proof = settings.proof;
    let kb = &w.kb;
    let sides = [&w.examples.pos, &w.examples.neg].map(|lits| {
        let ids = ExampleIds::new(kb.arena(), lits);
        (lits, ids)
    });
    let mut scratch = ProofScratch::new(kb, proof);
    let mut answers = PackAnswers::default();
    let mut met = Met::default();
    for _ in 0..2 {
        let example = &w.examples.pos[below(w.examples.num_pos() as u64) as usize];
        let Some(bottom) = saturate(kb, &w.modes, &settings, example) else {
            continue;
        };
        let parents: Vec<RuleShape> = shallow_shapes(&bottom, settings.max_body)
            .into_iter()
            .filter(|s| s.body_len() < settings.max_body)
            .collect();
        for _ in 0..4 {
            let parent = &parents[below(parents.len() as u64) as usize];
            let pack = pack_of(kb, &bottom, parent, settings.max_body);
            let subset = pack.which & below(u64::MAX);
            for (lits, ids) in &sides {
                let n = lits.len();
                let ids = (below(2) == 0).then_some(ids);
                let mut parent_covers = Bitset::default();
                ProofScratch::new(kb, proof).evaluate_side(
                    &pack.parent,
                    lits,
                    ids,
                    None,
                    1,
                    &mut parent_covers,
                );
                let masks = [
                    Bitset::full(n),
                    drawn(n, below(u64::MAX), 300),
                    parent_covers,
                ];
                for live in &masks {
                    for which in [pack.which, subset] {
                        let buffers = (&mut scratch, &mut answers);
                        check(
                            kb,
                            proof,
                            &pack,
                            which,
                            (lits, ids),
                            live,
                            1,
                            buffers,
                            &mut met,
                        );
                    }
                }
            }
        }
    }
    met.tabled = scratch.tabled().0;
    met
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_pack_answers_what_each_member_alone_gives(seed in any::<u64>()) {
        packs_match_their_members_alone(seed);
    }
}

/// The differential test proves nothing if no member is ever covered or
/// ever runs out of steps: over a fixed run of cases, both happen, often.
#[test]
fn the_drawn_cases_cover_and_abort() {
    let mut met = Met::default();
    for seed in 0..12 {
        let case = packs_match_their_members_alone(seed);
        met.members += case.members;
        met.covered += case.covered;
        met.aborted += case.aborted;
        met.tabled += case.tabled;
    }
    assert!(met.members > 100, "{met:?}");
    assert!(met.covered > 100, "{met:?}");
    assert!(met.aborted > 100, "{met:?}");
    assert!(met.tabled > 100, "{met:?}");
}

/// Above `PARALLEL_MIN_EXAMPLES` live examples a pack is proved in chunks
/// on several threads: bit-identical to one thread and to every member
/// alone.
#[test]
fn a_pack_split_over_threads_answers_the_same() {
    let w = world(41, 400);
    let settings = Settings {
        max_body: 3,
        max_var_depth: 2,
        max_bottom_literals: 40,
        proof: ProofLimits {
            max_depth: 3,
            max_steps: 60,
        },
        ..Settings::default()
    };
    let kb = &w.kb;
    let bottom = saturate(kb, &w.modes, &settings, &w.examples.pos[0]).expect("head matches");
    let mut scratch = ProofScratch::new(kb, settings.proof);
    let mut answers = PackAnswers::default();
    let mut met = Met::default();
    for parent in shallow_shapes(&bottom, 2).iter().take(6) {
        let pack = pack_of(kb, &bottom, parent, settings.max_body);
        let lits = &w.examples.pos[..];
        let live = Bitset::full(lits.len());
        for threads in [1, 2, 3] {
            let buffers = (&mut scratch, &mut answers);
            let side = (lits, None);
            check(
                kb,
                settings.proof,
                &pack,
                pack.which,
                side,
                &live,
                threads,
                buffers,
                &mut met,
            );
        }
    }
    assert!(met.members > 0, "{met:?}");
}

/// A KB rule can leave a variable of the parent's body bound to one of its
/// own, unbound, past every slot of the binding store: `any(M, X) :- p(M)`
/// binds `X` to the rule's second variable. A member's literal must rename
/// its rules apart above that variable too, or `r(Y, X) :- s(X), t(Y)`
/// makes `Y` and `X` one variable and the member, covered alone (`s(2)`,
/// `t(1)`), is not covered in the pack.
#[test]
fn a_member_literal_renames_its_rules_above_the_parent_proof() {
    use p2mdie_logic::clause::Clause;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;
    let t = SymbolTable::new();
    let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
    let (m1, v) = (Term::Sym(t.intern("m1")), Term::Var);
    let mut kb = KnowledgeBase::new(t.clone());
    kb.assert_fact(lit("p", vec![m1.clone()]));
    kb.assert_fact(lit("s", vec![Term::Int(2)]));
    kb.assert_fact(lit("t", vec![Term::Int(1)]));
    kb.assert_rule(Clause::new(
        lit("any", vec![v(0), v(1)]),
        vec![lit("p", vec![v(0)])],
    ));
    kb.assert_rule(Clause::new(
        lit("r", vec![v(0), v(1)]),
        vec![lit("s", vec![v(1)]), lit("t", vec![v(0)])],
    ));
    let head = lit("h", vec![v(0)]);
    let parent = Clause::new(head.clone(), vec![lit("any", vec![v(0), v(1)])]);
    let mut member = parent.clone();
    member.body.push(lit("r", vec![v(2), v(1)]));
    let pack = Pack {
        parent: prepare_rule(&kb, &parent),
        members: vec![prepare_rule(&kb, &member)],
        which: 1,
    };
    assert!(pack.members[0].extends(&pack.parent));
    let lits = [lit("h", vec![m1])];
    let proof = ProofLimits::default();
    let mut scratch = ProofScratch::new(&kb, proof);
    let mut answers = PackAnswers::default();
    let mut met = Met::default();
    let buffers = (&mut scratch, &mut answers);
    let live = Bitset::full(1);
    check(
        &kb,
        proof,
        &pack,
        1,
        (&lits, None),
        &live,
        1,
        buffers,
        &mut met,
    );
    assert_eq!(met.covered, 1, "the member alone covers its example");
}

/// `name(args)`.
fn lit(t: &SymbolTable, name: &str, args: Vec<Term>) -> Literal {
    Literal::new(t.intern(name), args)
}

/// The pack of `parent` whose members are `parent` with one of `extras`
/// appended each, in order.
fn pack_with(kb: &KnowledgeBase, parent: &Clause, extras: &[Literal]) -> Pack {
    let members: Vec<PreparedRule> = extras
        .iter()
        .map(|extra| {
            let mut member = parent.clone();
            member.body.push(extra.clone());
            prepare_rule(kb, &member)
        })
        .collect();
    let parent = prepare_rule(kb, parent);
    assert!(members.iter().all(|m| m.extends(&parent)));
    Pack {
        parent,
        which: u64::MAX >> (64 - members.len()),
        members,
    }
}

/// Proves `packs` in turn through one scratch on every example of `lits`,
/// each member held to its proof alone, as a search proves its packs.
fn check_in_turn(kb: &KnowledgeBase, proof: ProofLimits, packs: &[Pack], lits: &[Literal]) -> Met {
    let mut scratch = ProofScratch::new(kb, proof);
    let mut answers = PackAnswers::default();
    let mut met = Met::default();
    let live = Bitset::full(lits.len());
    for pack in packs {
        let buffers = (&mut scratch, &mut answers);
        check(
            kb,
            proof,
            pack,
            pack.which,
            (lits, None),
            &live,
            1,
            buffers,
            &mut met,
        );
    }
    met.tabled = scratch.tabled().0;
    met
}

/// `pad(1)` … `pad(10)`, for rules that take a step count of their choosing.
fn pads(t: &SymbolTable, kb: &mut KnowledgeBase) {
    for i in 1..=10 {
        kb.assert_fact(lit(t, "pad", vec![Term::Int(i)]));
    }
}

/// A call recorded under a roomy budget and met again with fewer steps
/// left than it took aborts where its proof alone does, found or not:
/// `q(x1, Y)` succeeds and `q(x2, Y)` fails, each in more steps than are
/// left after `b(X)`, which takes 21 of the 32.
#[test]
fn a_tabled_call_met_with_less_budget_aborts() {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let v = Term::Var;
    let (x1, x2) = (Term::Sym(t.intern("x1")), Term::Sym(t.intern("x2")));
    pads(&t, &mut kb);
    kb.assert_fact(lit(&t, "ok", vec![x1.clone()]));
    for x in [&x1, &x2] {
        kb.assert_fact(lit(&t, "a", vec![x.clone()]));
    }
    // b(X) :- pad(I), I >= 10.
    kb.assert_rule(Clause::new(
        lit(&t, "b", vec![v(0)]),
        vec![
            lit(&t, "pad", vec![v(1)]),
            lit(&t, ">=", vec![v(1), Term::Int(10)]),
        ],
    ));
    // q(X, Y) :- pad(I), I >= 5, ok(X), Y = I.
    kb.assert_rule(Clause::new(
        lit(&t, "q", vec![v(0), v(1)]),
        vec![
            lit(&t, "pad", vec![v(2)]),
            lit(&t, ">=", vec![v(2), Term::Int(5)]),
            lit(&t, "ok", vec![v(0)]),
            lit(&t, "=", vec![v(1), v(2)]),
        ],
    ));
    let proof = ProofLimits {
        max_depth: 4,
        max_steps: 32,
    };
    let q = [lit(&t, "q", vec![v(0), v(1)])];
    let roomy = pack_with(
        &kb,
        &Clause::new(lit(&t, "h", vec![v(0)]), vec![lit(&t, "a", vec![v(0)])]),
        &q,
    );
    let tight = pack_with(
        &kb,
        &Clause::new(lit(&t, "h", vec![v(0)]), vec![lit(&t, "b", vec![v(0)])]),
        &q,
    );
    let lits = [x1, x2].map(|x| lit(&t, "h", vec![x]));
    let met = check_in_turn(&kb, proof, &[roomy, tight], &lits);
    assert_eq!((met.covered, met.aborted), (1, 2), "{met:?}");
    assert_eq!(
        met.tabled, 2,
        "both calls of the tight pack are answered: {met:?}"
    );
}

/// `r(A, Y, Y)` and `r(A, Y, Z)` on the same `A` are two calls: the first
/// takes four steps to its solution `r(a, 5, 5)`, the second one.
#[test]
fn a_repeated_free_variable_is_another_call() {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let v = Term::Var;
    let a = Term::Sym(t.intern("a"));
    kb.assert_fact(lit(&t, "p", vec![a.clone()]));
    for (y, z) in [(1, 2), (2, 3), (3, 4), (5, 5)] {
        kb.assert_fact(lit(&t, "r", vec![a.clone(), Term::Int(y), Term::Int(z)]));
    }
    let parent = Clause::new(lit(&t, "h", vec![v(0)]), vec![lit(&t, "p", vec![v(0)])]);
    let extras = [
        lit(&t, "r", vec![v(0), v(1), v(1)]),
        lit(&t, "r", vec![v(0), v(1), v(2)]),
    ];
    let pack = pack_with(&kb, &parent, &extras);
    let lits = [lit(&t, "h", vec![a])];
    let met = check_in_turn(&kb, ProofLimits::default(), &[pack], &lits);
    assert_eq!(met.covered, 2, "{met:?}");
}

/// Constants the arena does not hold have no id to key a call by:
/// `s(a, 7.5)` and `s(a, 9.5)` take 17 and 21 steps.
#[test]
fn constants_the_arena_lacks_are_not_tabled() {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let v = Term::Var;
    let a = Term::Sym(t.intern("a"));
    pads(&t, &mut kb);
    kb.assert_fact(lit(&t, "p", vec![a.clone()]));
    // s(A, W) :- pad(I), I >= W.
    kb.assert_rule(Clause::new(
        lit(&t, "s", vec![v(0), v(1)]),
        vec![lit(&t, "pad", vec![v(2)]), lit(&t, ">=", vec![v(2), v(1)])],
    ));
    let parent = Clause::new(lit(&t, "h", vec![v(0)]), vec![lit(&t, "p", vec![v(0)])]);
    let extras = [7.5, 9.5].map(|w| lit(&t, "s", vec![v(0), Term::Float(F64(w))]));
    let pack = pack_with(&kb, &parent, &extras);
    let lits = [lit(&t, "h", vec![a])];
    let met = check_in_turn(&kb, ProofLimits::default(), &[pack], &lits);
    assert_eq!((met.covered, met.tabled), (2, 0), "{met:?}");
}

/// A fact's own variables are not renamed apart, so the non-ground fact
/// `u(V0)` meets the member's variable 0, the head's: `w(c)`, which reaches
/// `u(c)` in eight steps, is proved for the example `h(c)` and not for
/// `h(d)`. With such a fact in the KB the table stays off.
#[test]
fn a_kb_with_a_non_ground_fact_tables_nothing() {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let v = Term::Var;
    let (c, d) = (Term::Sym(t.intern("c")), Term::Sym(t.intern("d")));
    pads(&t, &mut kb);
    for x in [&c, &d] {
        kb.assert_fact(lit(&t, "p", vec![x.clone()]));
    }
    kb.assert_fact(lit(&t, "u", vec![v(0)]));
    assert!(kb.has_irregular_facts());
    // w(X) :- pad(I), I >= 3, u(X).
    kb.assert_rule(Clause::new(
        lit(&t, "w", vec![v(0)]),
        vec![
            lit(&t, "pad", vec![v(1)]),
            lit(&t, ">=", vec![v(1), Term::Int(3)]),
            lit(&t, "u", vec![v(0)]),
        ],
    ));
    let parent = Clause::new(lit(&t, "h", vec![v(0)]), vec![lit(&t, "p", vec![v(0)])]);
    let pack = pack_with(&kb, &parent, &[lit(&t, "w", vec![c.clone()])]);
    let lits = [c, d].map(|x| lit(&t, "h", vec![x]));
    let met = check_in_turn(&kb, ProofLimits::default(), &[pack], &lits);
    assert_eq!((met.covered, met.tabled), (1, 0), "{met:?}");
}
