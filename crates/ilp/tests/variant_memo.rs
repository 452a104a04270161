//! Differential tests of the search's coverage memo: whatever a memo has
//! seen before, `Search::run` must report exactly what a memo-free
//! breadth-first search reports — good rules, seed scores, node count and
//! *charged steps* — on worlds whose bottom clauses are full of literals that
//! differ only in variable names (several atoms of one element per
//! molecule), over the whole lattice and inside a slice of it, under tight
//! proof bounds.
//!
//! The oracle and the covering loops live in `oracle/`, shared with the
//! crate's unit tests, which run the same loops on a memo of a few records.

mod oracle;

use oracle::{
    assert_same, covering_loop_matches_the_memo_free_search, memo_free_search, shallow_shapes,
    successors, world, Case,
};
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::modes::ModeSet;
use p2mdie_ilp::refine::RuleShape;
use p2mdie_ilp::search::{Search, SearchOutcome};
use p2mdie_ilp::settings::Settings;
use p2mdie_ilp::{BottomClause, CoverageMemo, LatticeSlice};
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One memo through a whole covering loop: several bottom clauses, a
    /// live set that shrinks between them, seeds next to their variants,
    /// sliced and unsliced — equal to the memo-free search after every
    /// search.
    #[test]
    fn memoised_search_equals_the_memo_free_search(seed in any::<u64>()) {
        let mut memo = CoverageMemo::new();
        covering_loop_matches_the_memo_free_search(&Case::draw(seed), &mut memo);
    }
}

/// The searches of the pinned tests: `seeds` under `bottom` on every
/// example, through `memo` and memo-free.
fn search_both_ways(
    engine: &IlpEngine,
    examples: &Examples,
    bottom: &BottomClause,
    seeds: &[RuleShape],
    memo: &mut CoverageMemo,
) -> (SearchOutcome, SearchOutcome) {
    let (kb, settings) = (&engine.kb, &engine.settings);
    let memoised = Search {
        seeds,
        ..Search::new(kb, settings, bottom, examples)
    }
    .run(memo);
    let plain = memo_free_search(kb, settings, bottom, examples, None, seeds, None);
    (memoised, plain)
}

fn pinned_settings() -> Settings {
    Settings {
        noise: 2,
        min_pos: 2,
        max_body: 3,
        max_nodes: 400,
        max_bottom_literals: 40,
        eval_threads: 1,
        ..Settings::default()
    }
}

/// The differential test above proves nothing if the memo never fires, or
/// fires only on equal masks; this pins both kinds of hit on one world.
#[test]
fn repeated_atoms_hit_the_memo_and_seed_variants_take_a_difference_proof() {
    let w = world(2005, 16);
    let engine = IlpEngine::new(w.kb, w.modes, pinned_settings());
    let bottom = engine.saturate(&w.examples.pos[0]).expect("head matches");
    let mut memo = CoverageMemo::new();
    let (seedless, plain) = search_both_ways(&engine, &w.examples, &bottom, &[], &mut memo);
    assert_same(&seedless, &plain, "seedless");
    assert!(
        seedless.reused * 4 > seedless.nodes,
        "a bottom clause with repeated atoms must reuse many of its {} nodes, reused {}",
        seedless.nodes,
        seedless.reused
    );

    // A Figure 7 seed is evaluated on every example, its non-seed variants
    // — and the shape itself, in the search above — on what their parent
    // covers. Each two-literal shape in turn is the only node of a search:
    // it finds the entry the seedless search left, valid for fewer examples,
    // and proves the difference. Some of them must get away with that, for
    // fewer steps than the proof on every example takes.
    let mut one_node = engine.clone();
    one_node.settings.max_nodes = 1;
    let mut cheaper = 0;
    let level_two = shallow_shapes(&bottom, 2);
    for shape in level_two.iter().filter(|s| s.body_len() == 2) {
        let before = memo.stats();
        let seed = std::slice::from_ref(shape);
        let (seeded, plain) = search_both_ways(&one_node, &w.examples, &bottom, seed, &mut memo);
        assert_same(&seeded, &plain, "one seed");
        let after = memo.stats();
        let by_difference = after.partial > before.partial;
        cheaper += usize::from(by_difference && after.steps_run - before.steps_run < plain.steps);
    }
    assert!(
        cheaper > 0,
        "no seed of {} was served by a difference proof cheaper than its full proof",
        level_two.len()
    );
}

/// Figure 7 seeds the lattice reaches from one another, against the eager
/// queue of the memo-free search, which holds every shape to the set it has
/// visited. The search keeps no such set and skips only a successor that is
/// a seed, so it must visit the same nodes in the same order with seeds
/// nested in each other, a seed listed twice, and a seed listed before and
/// after a seed it is a successor of — over the whole lattice and inside a
/// slice of it, whole and with the node budget cutting a level in the
/// middle.
#[test]
fn seeds_reached_from_one_another_are_visited_once() {
    let w = world(2005, 16);
    let mut engine = IlpEngine::new(w.kb, w.modes, pinned_settings());
    let bottom = engine.saturate(&w.examples.pos[0]).expect("head matches");
    let max_body = engine.settings.max_body;
    let root = RuleShape::empty();
    let level1 = successors(&root, &bottom, max_body);
    let (a, ab) = level1
        .iter()
        .find_map(|a| Some((a.clone(), successors(a, &bottom, max_body).first()?.clone())))
        .expect("a one-literal shape with a successor");
    let c = level1
        .iter()
        .find(|&c| *c != a)
        .expect("two one-literal shapes");
    let cases = [
        ("nested", vec![root.clone(), a.clone(), ab.clone()]),
        ("listed twice", vec![a.clone(), c.clone(), a.clone()]),
        ("successor before", vec![ab.clone(), c.clone(), a.clone()]),
        ("successor after", vec![a.clone(), c.clone(), ab.clone()]),
    ];
    let half = LatticeSlice {
        rank: 0,
        of: 2,
        salt: 2005,
    };
    let mut memo = CoverageMemo::new();
    for (what, seeds) in &cases {
        // Whole, and cut among the successors of the seeds' first level.
        for max_nodes in [400, seeds.len() + level1.len() / 2] {
            engine.settings.max_nodes = max_nodes;
            let (kb, settings, ex) = (&engine.kb, &engine.settings, &w.examples);
            for slice in [None, Some(&half)] {
                let what = format!("{what}, {max_nodes} nodes, slice {slice:?}");
                let memoised = Search {
                    seeds,
                    slice,
                    ..Search::new(kb, settings, &bottom, ex)
                }
                .run(&mut memo);
                let plain = memo_free_search(kb, settings, &bottom, ex, None, seeds, slice);
                assert_same(&memoised, &plain, &what);
                assert!(
                    plain.seed_scored.iter().all(|r| r.pos >= settings.min_pos),
                    "{what}: every seed is refined"
                );
            }
        }
    }
}

/// Across bottom clauses the key still means the same clause: a search
/// under the bottom clause of *another* example reuses what the first left,
/// and a live set that lost examples in between is answered by proving
/// those examples only.
#[test]
fn entries_outlive_their_bottom_clause_and_a_shrinking_live_set() {
    let w = world(2005, 16);
    let engine = IlpEngine::new(w.kb, w.modes, pinned_settings());
    let (kb, settings, ex) = (&engine.kb, &engine.settings, &w.examples);
    let mut memo = CoverageMemo::new();
    let mut live = ex.full_pos_live();
    let first = engine.saturate(&ex.pos[0]).expect("head matches");
    Search {
        live_pos: Some(&live),
        ..Search::new(kb, settings, &first, ex)
    }
    .run(&mut memo);
    let after_first = memo.stats();

    // Two positives retire; the next example's bottom clause shares the
    // shallow lattice (the same elements, other atoms).
    live.clear(0);
    live.clear(2);
    let second = engine.saturate(&ex.pos[1]).expect("head matches");
    let memoised = Search {
        live_pos: Some(&live),
        ..Search::new(kb, settings, &second, ex)
    }
    .run(&mut memo);
    let plain = memo_free_search(kb, settings, &second, ex, Some(&live), &[], None);
    assert_same(&memoised, &plain, "second bottom clause");
    let s = memo.stats();
    assert!(
        s.partial > after_first.partial,
        "clauses of the first search, met again on a smaller live set, take a difference proof"
    );
    let run = s.steps_run - after_first.steps_run;
    assert!(
        run * 2 < plain.steps,
        "the second search ran {run} of {} steps: it reused too little",
        plain.steps
    );
}

/// Chain graph `n0 → n1 → … → n9`; target `reach/2` — which is also a body
/// mode, with two `reach` facts as background, so bottom clauses call it —
/// and the rule `reach(A,B) :- edge(A,B)`: once in the KB, every `reach`
/// body literal succeeds along every edge, not only on the two facts.
fn reach_world() -> (IlpEngine, Examples, Clause) {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let node = |i: usize| Term::Sym(t.intern(&format!("n{i}")));
    let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
    for i in 0..9 {
        kb.assert_fact(lit("edge", vec![node(i), node(i + 1)]));
    }
    kb.assert_fact(lit("reach", vec![node(1), node(2)]));
    kb.assert_fact(lit("reach", vec![node(4), node(5)]));
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for i in 0..8 {
        pos.push(lit("reach", vec![node(i), node(i + 2)]));
        neg.push(lit("reach", vec![node(i + 2), node(i)]));
    }
    let modes = ModeSet::parse(
        &t,
        "reach(+node, +node)",
        &[
            (2, "edge(+node, -node)"),
            (2, "reach(+node, -node)"),
            (1, "edge(+node, +node)"),
            (1, "reach(+node, +node)"),
        ],
    )
    .expect("static templates parse");
    let settings = Settings {
        noise: 0,
        min_pos: 1,
        max_body: 2,
        max_nodes: 200,
        eval_threads: 1,
        ..Settings::default()
    };
    let v = Term::Var;
    let step = Clause::new(
        lit("reach", vec![v(0), v(1)]),
        vec![lit("edge", vec![v(0), v(1)])],
    );
    (
        IlpEngine::new(kb, modes, settings),
        Examples::new(pos, neg),
        step,
    )
}

/// What drops a memo: a rule asserted into the KB (`mark_covered`, Fig. 6)
/// whose head predicate candidate bodies can call. The memo's owner asks
/// `IlpEngine::callable_from_bodies`; this holds both of its answers to the
/// memo-free search.
#[test]
fn an_asserted_rule_invalidates_the_memo_only_when_bodies_can_call_it() {
    // Callable: the target is a body mode. A memo kept across the assert
    // is wrong, a cleared one right.
    let (mut engine, examples, step) = reach_world();
    let bottom = engine.saturate(&examples.pos[1]).expect("head matches");
    let mut memo = CoverageMemo::new();
    let (memoised, plain) = search_both_ways(&engine, &examples, &bottom, &[], &mut memo);
    assert_same(&memoised, &plain, "before the rule");
    assert!(engine.callable_from_bodies(step.head.key()));
    engine.assert_rule(step);
    let (stale, plain) = search_both_ways(&engine, &examples, &bottom, &[], &mut memo);
    assert_ne!(
        (&stale.good, stale.steps),
        (&plain.good, plain.steps),
        "this world must make a memo kept across the assert visibly wrong"
    );
    memo.clear();
    let (cleared, _) = search_both_ways(&engine, &examples, &bottom, &[], &mut memo);
    assert_same(&cleared, &plain, "after the rule, memo cleared");

    // Not callable: `active/1` is no body mode and no rule of the KB
    // mentions it. The memo is kept and every node is served from it.
    let w = world(2005, 16);
    let mut engine = IlpEngine::new(w.kb, w.modes, pinned_settings());
    let bottom = engine.saturate(&w.examples.pos[0]).expect("head matches");
    let mut memo = CoverageMemo::new();
    let (first, plain) = search_both_ways(&engine, &w.examples, &bottom, &[], &mut memo);
    let learnt = first.best().expect("a good rule").shape.to_clause(&bottom);
    assert!(!engine.callable_from_bodies(learnt.head.key()));
    engine.assert_rule(learnt);
    let (kept, again) = search_both_ways(&engine, &w.examples, &bottom, &[], &mut memo);
    assert_same(&kept, &again, "after a rule no body can call");
    assert_eq!(
        again.steps, plain.steps,
        "the rule changed nothing bodies see"
    );
    assert_eq!(
        kept.reused, kept.nodes,
        "every node served from the kept memo"
    );
}
