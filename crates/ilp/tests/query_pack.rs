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
//! in a search.

mod oracle;

use oracle::{shallow_shapes, world};
use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::bottom::{saturate, BottomClause};
use p2mdie_ilp::coverage::{prepare_rule, ExampleIds, PackAnswers, PreparedRule, ProofScratch};
use p2mdie_ilp::refine::{splitmix64, RuleShape};
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::Literal;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::ProofLimits;
use proptest::prelude::*;

/// What a batch of packs met: members proved, and member-example pairs
/// whose proof alone covered, or aborted.
#[derive(Default, Debug)]
struct Met {
    members: usize,
    covered: usize,
    aborted: usize,
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
    let members: Vec<PreparedRule> = parent
        .successors(bottom, max_body)
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
    }
    assert!(met.members > 100, "{met:?}");
    assert!(met.covered > 100, "{met:?}");
    assert!(met.aborted > 100, "{met:?}");
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
