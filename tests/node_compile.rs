//! A search node compiled from ⊥e is the rule `prepare_rule` makes of its
//! clause, and proves as that rule does.
//!
//! The search compiles ⊥e's literals once (`CompiledBottom`) and builds
//! every node into one reused `PreparedRule`; a rule scored on its own goes
//! through `prepare_rule(kb, &shape.to_clause(⊥e))`. On `trains`,
//! `carcinogenesis(0.1)` and `mesh(0.1)`, with the first positives as
//! seeds, every node a seedless search visits — its breadth-first order,
//! node budget and `min_pos` pruning, replayed without the memo, which
//! changes no node — is compiled both ways into one buffer and compared:
//! head, body literals with their dispatch, variable numbering, both
//! variable spans, the head's ground positions and the arena ids of the
//! body's arguments. The walk also holds that no shape is met twice, the
//! premise on which the search keeps no visited set. The numbering is
//! compared literally, not up to renaming: a fact's own variables are not
//! renamed apart, so an irregular row meets the rule's variables by number.
//! Both numberings `Clause::dense` gives — kept, and renamed in
//! first-occurrence order — must occur.
//!
//! Beside it: the ids are `arena.lookup` of each ground argument; the
//! examples' ids, and a hint that names another term, bind a head variable
//! as `bind_ground` does; and each node covers the same positives in the
//! same steps either way.

#[path = "../crates/ilp/tests/oracle/mod.rs"]
mod ilp_oracle;

use p2mdie::datasets::Dataset;
use p2mdie::ilp::bitset::Bitset;
use p2mdie::ilp::coverage::{
    evaluate_side_threads, prepare_rule, CompiledBottom, ExampleIds, PreparedRule, ProofScratch,
};
use p2mdie::ilp::refine::RuleShape;
use p2mdie::logic::arena::{TermArena, TermId};
use p2mdie::logic::subst::Bindings;
use p2mdie::logic::term::Term;
use std::collections::{HashSet, VecDeque};

/// How many positives seed ⊥e per dataset.
const SEEDS: usize = 3;

fn datasets() -> Vec<Dataset> {
    vec![
        p2mdie::datasets::trains(10, 7),
        p2mdie::datasets::carcinogenesis(0.1, 2005),
        p2mdie::datasets::mesh(0.1, 2005),
    ]
}

/// The arena's id of a ground term, `NONE` for any other.
fn id_of(arena: &TermArena, t: &Term) -> TermId {
    match t.is_ground() {
        true => arena.lookup(t).unwrap_or(TermId::NONE),
        false => TermId::NONE,
    }
}

/// Every part of two prepared rules that a proof reads.
fn assert_same(got: &PreparedRule, want: &PreparedRule, what: &str) {
    assert_eq!(got.head(), want.head(), "{what}: head");
    assert_eq!(got.body(), want.body(), "{what}: body and dispatch");
    assert_eq!(got.ids(), want.ids(), "{what}: argument ids");
    assert_eq!(
        got.goals().var_span,
        want.goals().var_span,
        "{what}: body span"
    );
    assert_eq!(got.span(), want.span(), "{what}: clause span");
    assert_eq!(
        got.ground_args(),
        want.ground_args(),
        "{what}: ground head positions"
    );
}

#[test]
fn a_node_compiled_from_bottom_is_the_rule_of_its_clause() {
    let (mut nodes, mut renamed) = (0, 0);
    for ds in datasets() {
        let (kb, settings, ex) = (&ds.engine.kb, &ds.engine.settings, &ds.examples);
        let arena = kb.arena();
        let ids = ExampleIds::new(arena, &ex.pos);
        let mut scratch = ProofScratch::new(kb, settings.proof);
        let mut covered = Bitset::default();
        for seed in ex.pos.iter().take(SEEDS) {
            let bottom = ds.engine.saturate(seed).expect("the seed saturates");
            let mut compiler = CompiledBottom::new(kb, &bottom);
            let mut rule = compiler.rule();
            let mut queue = VecDeque::from([RuleShape::empty()]);
            let mut visited = HashSet::new();
            let mut visits = 0;
            while let Some(shape) = queue.pop_front() {
                if visits >= settings.max_nodes {
                    break;
                }
                // Appending ascending literals reaches a shape once: the
                // search's frontier keeps no visited set on that premise.
                assert!(
                    visited.insert(shape.clone()),
                    "{} {:?}: a successor repeats a shape",
                    ds.name,
                    shape.lits
                );
                visits += 1;
                let what = format!("{} {:?}", ds.name, shape.lits);
                let clause = shape.to_clause(&bottom);
                let want = prepare_rule(kb, &clause);
                compiler.compile(&shape, &mut rule);
                assert_same(&rule, &want, &what);
                renamed += usize::from(!clause.has_dense_vars());
                let args = want.body().iter().flat_map(|c| c.lit.args.iter());
                let looked_up: Vec<TermId> = args.map(|a| id_of(arena, a)).collect();
                assert_eq!(rule.ids(), looked_up, "{what}: ids are the arena's");

                let (want_bits, want_steps) =
                    evaluate_side_threads(kb, settings.proof, &clause, &ex.pos, None, 1);
                let steps =
                    scratch.evaluate_side(&rule, &ex.pos, Some(&ids), None, 1, &mut covered);
                assert_eq!(
                    (&covered, steps),
                    (&want_bits, want_steps),
                    "{what}: coverage"
                );

                if want_bits.count() >= settings.min_pos as usize {
                    let succs = ilp_oracle::successors(&shape, &bottom, settings.max_body);
                    queue.extend(succs);
                }
            }
            nodes += visits;
        }
    }
    println!("{nodes} nodes compiled both ways, {renamed} of them renumbered");
    assert!(
        renamed > 0,
        "no node was renumbered: the renaming went untested"
    );
    assert!(
        renamed < nodes,
        "every node was renumbered: the kept numbering went untested"
    );
}

#[test]
fn an_example_binds_by_its_id_as_by_a_lookup() {
    for ds in datasets() {
        let arena = ds.engine.kb.arena();
        for lits in [&ds.examples.pos, &ds.examples.neg] {
            let ids = ExampleIds::new(arena, lits);
            for (i, example) in lits.iter().enumerate() {
                assert_eq!(ids.of(i).len(), example.args.len());
                // The next example's ids as hints: most name another term.
                let wrong = ids.of((i + 1) % lits.len());
                for (k, arg) in example.args.iter().enumerate() {
                    assert_eq!(ids.of(i)[k], id_of(arena, arg), "{}: example {i}", ds.name);
                    let mut looked_up = Bindings::new();
                    looked_up.bind_ground(0, arg, arena);
                    let want = looked_up.probe(&Term::Var(0), 0, arena);
                    for hint in [ids.of(i)[k], wrong[k.min(wrong.len() - 1)], TermId::NONE] {
                        let mut by_id = Bindings::new();
                        let id = arena.lookup_hinted(arg, hint).unwrap_or(TermId::NONE);
                        by_id.bind_ground_id(0, arg, id);
                        assert_eq!(by_id.probe(&Term::Var(0), 0, arena), want, "{}", ds.name);
                        assert_eq!(by_id.resolve(&Term::Var(0)), *arg);
                    }
                }
            }
        }
    }
}
