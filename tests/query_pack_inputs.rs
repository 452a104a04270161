//! A node's successors share one proof of their parent, on the benchmark's
//! inputs.
//!
//! The search proves the successors of a node that the memo has no record
//! of as one query pack (`ProofScratch::eval_pack`): per example one head
//! bind and one proof of the node's body, and each member's extra literal
//! at every solution of the body. Each member must cover the examples, and
//! be charged the steps, that proving it alone gives. On
//! `carcinogenesis(0.3)`, `mesh(1.0)` and `pyrimidines(0.25)` at seed 2005
//! the sequential covering loop is replayed search by search, and every
//! node a seedless search expands — its breadth-first order, node budget
//! and `min_pos` pruning, walked without the memo, which changes no node —
//! is the parent of a pack of all its successors whose compiled rule
//! extends it, in packs of at most 64, compiled from ⊥e as the search
//! compiles them: on its covered positives, and on its covered negatives
//! for the members whose positives reach `min_pos`, as the search asks.
//! Every member is held to its proof alone, bit for bit and step for step.
//! A search's packs go through one scratch, as the product's do, so the
//! calls of their extra literals share the search's call table; on
//! carcinogenesis the table must answer some of them.
//!
//! Each search is run a second time under the batched evaluator, a
//! breadth-first level a round, its clauses scored on the live positives
//! and every negative by `evaluate_rule`, as the coverage-parallel
//! baseline's ranks score theirs: it must pick the best rule the memo
//! evaluator picks, in as many nodes, and its rounds must be the levels of
//! the walk above.
//!
//! Run as `cargo test --release --test query_pack_inputs -- --nocapture` (the
//! "A node's successors share one proof of their parent" CI step); three
//! covering loops proved twice over take minutes unoptimised, so a debug
//! `cargo test` leaves it ignored.

use p2mdie::datasets::Dataset;
use p2mdie::ilp::bitset::Bitset;
use p2mdie::ilp::coverage::{
    evaluate_rule, CompiledBottom, ExampleIds, PackAnswers, PreparedRule, ProofScratch,
};
use p2mdie::ilp::refine::RuleShape;
use p2mdie::ilp::{BottomClause, CoverageMemo, Search};
use p2mdie::logic::clause::Clause;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::rc::Rc;

#[path = "../crates/ilp/tests/oracle/mod.rs"]
mod ilp_oracle;

/// Parents checked, members held to their proof alone, per side, the
/// extra-literal calls the searches' call tables answered, and searches
/// held to their batched twin.
#[derive(Default)]
struct Checked {
    parents: usize,
    members: [usize; 2],
    tabled: u64,
    batched: usize,
}

/// A node's covered positives and negatives: its successors' live masks.
type Masks = Rc<[Bitset; 2]>;

/// Holds every pack of one seedless search under `bottom` on `live` to its
/// members proved alone; returns how many nodes it visited of each
/// breadth-first level.
fn check_search(
    ds: &Dataset,
    bottom: &BottomClause,
    live: &Bitset,
    checked: &mut Checked,
) -> Vec<usize> {
    let (kb, settings, ex) = (&ds.engine.kb, &ds.engine.settings, &ds.examples);
    let sides = [&ex.pos, &ex.neg];
    let ids = sides.map(|lits| ExampleIds::new(kb.arena(), lits));
    let mut scratch = ProofScratch::new(kb, settings.proof);
    let mut alone = ProofScratch::new(kb, settings.proof);
    let mut answers = [PackAnswers::default(), PackAnswers::default()];
    let mut compiler = CompiledBottom::new(kb, bottom);
    let mut rules: Vec<PreparedRule> = Vec::new();
    let mut covered = Bitset::default();

    let every_neg = Bitset::full(ex.num_neg());
    let root: Masks = Rc::new([live.clone(), every_neg]);
    let mut queue = VecDeque::from([(RuleShape::empty(), root)]);
    let mut visits = 0;
    let mut levels: Vec<usize> = Vec::new();
    while let Some((shape, masks)) = queue.pop_front() {
        if visits >= settings.max_nodes {
            break;
        }
        visits += 1;
        // A seedless search's level is its body length.
        levels.resize(levels.len().max(shape.body_len() + 1), 0);
        levels[shape.body_len()] += 1;
        if rules.is_empty() {
            rules.push(compiler.rule());
        }
        compiler.compile(&shape, &mut rules[0]);
        let mut node = [Bitset::default(), Bitset::default()];
        let mut prove = |s: usize, out: &mut Bitset| {
            scratch.evaluate_side(&rules[0], sides[s], Some(&ids[s]), Some(&masks[s]), 1, out)
        };
        prove(0, &mut node[0]);
        if node[0].count() < settings.min_pos as usize {
            continue;
        }
        prove(1, &mut node[1]);
        let node = Rc::new(node);
        let succs = ilp_oracle::successors(&shape, bottom, settings.max_body);
        for group in succs.chunks(64) {
            while rules.len() < 1 + group.len() {
                rules.push(compiler.rule());
            }
            let mut which = 0u64;
            for (m, succ) in group.iter().enumerate() {
                compiler.compile(succ, &mut rules[1 + m]);
                if rules[1 + m].extends(&rules[0]) {
                    which |= 1 << m;
                }
            }
            if which == 0 {
                continue;
            }
            checked.parents += 1;
            let (parent, members) = rules.split_first().expect("a parent");
            let members = &members[..group.len()];
            for (s, lits) in sides.iter().enumerate() {
                if s == 1 {
                    // The negatives are asked of members that reach `min_pos`.
                    let reach =
                        |m: usize| answers[0].covered(m).count() >= settings.min_pos as usize;
                    which = (0..group.len())
                        .filter(|&m| which & (1 << m) != 0 && reach(m))
                        .fold(0, |w, m| w | (1 << m));
                }
                let (ids, live) = (Some(&ids[s]), &node[s]);
                let answers_s = &mut answers[s];
                scratch.eval_pack(parent, members, which, lits, ids, live, 1, answers_s);
                for (m, member) in members.iter().enumerate() {
                    if which & (1 << m) == 0 {
                        continue;
                    }
                    checked.members[s] += 1;
                    let steps = alone.evaluate_side(member, lits, ids, Some(live), 1, &mut covered);
                    assert_eq!(
                        (answers[s].covered(m), answers[s].steps(m)),
                        (&covered, steps),
                        "{}: member {:?} of {:?}, side {s}",
                        ds.name,
                        group[m].lits,
                        shape.lits
                    );
                }
            }
        }
        queue.extend(succs.into_iter().map(|s| (s, Rc::clone(&node))));
    }
    checked.tabled += scratch.tabled().0;
    levels
}

/// The sequential covering loop of `run_sequential`, each of its searches
/// checked pack by pack.
fn check_covering_loop(ds: &Dataset) -> Checked {
    let (kb, settings, ex) = (&ds.engine.kb, &ds.engine.settings, &ds.examples);
    let mut checked = Checked::default();
    let mut memo = CoverageMemo::new();
    let mut live = ex.full_pos_live();
    while let Some(seed) = live.first() {
        let Some(bottom) = ds.engine.saturate(&ex.pos[seed]) else {
            live.clear(seed);
            continue;
        };
        let levels = check_search(ds, &bottom, &live, &mut checked);
        let search = Search {
            live_pos: Some(&live),
            keep: 1,
            ..Search::new(kb, settings, &bottom, ex)
        };
        let found = search.run(&mut memo);
        let mut rounds = Vec::new();
        let count = |clause: &Clause| {
            let cov = evaluate_rule(kb, settings.proof, clause, ex, Some(&live), None);
            (cov.pos_count(), cov.neg_count())
        };
        let Ok(batched) = search.run_batched(usize::MAX, |clauses| {
            rounds.push(clauses.len());
            Ok::<_, Infallible>(clauses.iter().map(count).collect())
        });
        let what = format!("{}, seed {seed}", ds.name);
        assert_eq!(batched.best(), found.best(), "{what}: best rule");
        assert_eq!(batched.nodes, found.nodes, "{what}: nodes");
        assert_eq!(rounds, levels, "{what}: a round is a breadth-first level");
        checked.batched += 1;
        if let Some(best) = found.best() {
            let clause = best.shape.to_clause(&bottom);
            let cov = evaluate_rule(kb, settings.proof, &clause, ex, Some(&live), None);
            live.difference_with(&cov.pos);
        }
        live.clear(seed);
    }
    checked
}

#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimised; run with --release")]
fn every_parent_of_the_benchmark_searches_matches_its_members_alone() {
    // (dataset, whether its call tables must answer some call)
    let datasets = [
        (p2mdie::datasets::carcinogenesis(0.3, 2005), true),
        (p2mdie::datasets::mesh(1.0, 2005), false),
        (p2mdie::datasets::pyrimidines(0.25, 2005), false),
    ];
    for (ds, tables) in &datasets {
        let checked = check_covering_loop(ds);
        println!(
            "{}: {} packs, {} members on the positives and {} on the negatives, each equal to \
             its proof alone; {} extra-literal calls tabled; {} searches equal to their batched \
             twin",
            ds.name,
            checked.parents,
            checked.members[0],
            checked.members[1],
            checked.tabled,
            checked.batched
        );
        assert!(
            checked.parents > 0 && checked.members[1] > 0,
            "{}: nothing was packed",
            ds.name
        );
        if *tables {
            assert!(checked.tabled > 0, "{}: no call was tabled", ds.name);
        }
    }
}
