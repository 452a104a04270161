//! The oracle of the search's differential tests: the search as it stood
//! before any memo, written against public API only
//! (`evaluate_side_threads`) and with a successor rule of its own
//! ([`successors`]) — an eager queue with a visited set, every node
//! compiled and proved, nothing remembered — and the covering loops it is
//! compared on, under the memo evaluator and under the batched one.
//!
//! Compiled twice: into `tests/variant_memo.rs`, which hands the loops a
//! memo as any caller gets one, and into the crate's own unit tests
//! (`src/memo.rs`), which hand them a memo with a budget of a few records —
//! something no public API can build — so that eviction and refusal run on
//! every case.
#![allow(dead_code)]

use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::bottom::{saturate, BottomClause};
use p2mdie_ilp::coverage::{evaluate_rule, evaluate_side_threads};
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::modes::ModeSet;
use p2mdie_ilp::refine::{splitmix64, LatticeSlice, RuleShape};
use p2mdie_ilp::search::{ScoredRule, Search, SearchOutcome};
use p2mdie_ilp::settings::Settings;
use p2mdie_ilp::CoverageMemo;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::ProofLimits;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use std::collections::{HashSet, VecDeque};
use std::convert::Infallible;
use std::rc::Rc;

/// A node's covered positives and negatives: its successors' live masks.
pub type Masks = Rc<(Bitset, Bitset)>;

/// The reference's successor rule, written from the refinement contract
/// rather than shared with the search: `shape` with one literal of ⊥e past
/// its last appended, for each such literal whose input variables the
/// shape binds — the head's variables and every variable of its literals —
/// in index order; none once the body has `max_body` literals.
pub fn successors(shape: &RuleShape, bottom: &BottomClause, max_body: usize) -> Vec<RuleShape> {
    if shape.body_len() >= max_body {
        return Vec::new();
    }
    let chosen = shape.lits.iter().map(|&i| &bottom.lits[i as usize]);
    let lit_vars = chosen.flat_map(|l| l.inputs.iter().chain(&l.outputs));
    let bound: HashSet<_> = bottom.head_vars.iter().chain(lit_vars).collect();
    let from = shape.lits.last().map_or(0, |&i| i as usize + 1);
    (from..bottom.lits.len())
        .filter(|&j| bottom.lits[j].inputs.iter().all(|v| bound.contains(v)))
        .map(|j| RuleShape::from_indices([&shape.lits[..], &[j as u32]].concat()))
        .collect()
}

/// The memo-free search: Figure 2 with monotone masks, Figure 7 seeds and
/// the lattice-slice hook, one proof per node.
pub fn memo_free_search(
    kb: &KnowledgeBase,
    settings: &Settings,
    bottom: &BottomClause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    seeds: &[RuleShape],
    slice: Option<&LatticeSlice>,
) -> SearchOutcome {
    memo_free_levels(kb, settings, bottom, examples, live_pos, seeds, slice).0
}

/// [`memo_free_search`], with the number of nodes it evaluated of each
/// breadth-first level: the roots, their successors, theirs, ….
pub fn memo_free_levels(
    kb: &KnowledgeBase,
    settings: &Settings,
    bottom: &BottomClause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    seeds: &[RuleShape],
    slice: Option<&LatticeSlice>,
) -> (SearchOutcome, Vec<usize>) {
    let mut out = SearchOutcome::default();
    let mut levels: Vec<usize> = Vec::new();
    let mut queue: VecDeque<(RuleShape, Option<Masks>, usize)> = VecDeque::new();
    let mut visited: HashSet<RuleShape> = HashSet::new();
    let seed_set: HashSet<&RuleShape> = seeds.iter().collect();
    if seeds.is_empty() {
        queue.push_back((RuleShape::empty(), None, 0));
    } else {
        let mut queued = HashSet::new();
        for s in seeds {
            if queued.insert(s) {
                queue.push_back((s.clone(), None, 0));
            }
        }
    }
    let scored = |shape: &RuleShape, pos, neg| ScoredRule {
        shape: shape.clone(),
        pos,
        neg,
        score: settings.score.score(pos, neg, shape.body_len()),
    };

    while let Some((shape, parent_cov, level)) = queue.pop_front() {
        if out.nodes >= settings.max_nodes {
            break;
        }
        if !visited.insert(shape.clone()) {
            continue;
        }
        levels.resize(levels.len().max(level + 1), 0);
        levels[level] += 1;
        let is_seed = seed_set.contains(&shape);
        let clause = shape.to_clause(bottom);
        let (live_p, live_n) = match &parent_cov {
            Some(m) => (Some(&m.0), Some(&m.1)),
            None => (live_pos, None),
        };
        out.nodes += 1;
        let (pos_bits, pos_steps) =
            evaluate_side_threads(kb, settings.proof, &clause, &examples.pos, live_p, 1);
        out.steps += pos_steps;
        let pos = pos_bits.count() as u32;
        if pos < settings.min_pos && !is_seed {
            continue;
        }
        let (neg_bits, neg_steps) =
            evaluate_side_threads(kb, settings.proof, &clause, &examples.neg, live_n, 1);
        out.steps += neg_steps;
        let neg = neg_bits.count() as u32;
        if is_seed {
            out.seed_scored.push(scored(&shape, pos, neg));
        }
        if settings.is_good(pos, neg) {
            out.good.push(scored(&shape, pos, neg));
        }
        if pos < settings.min_pos {
            continue;
        }
        let masks = Rc::new((pos_bits, neg_bits));
        let mut succs = successors(&shape, bottom, settings.max_body);
        if let Some(slice) = slice {
            succs.retain(|s| slice.admits(s));
        }
        for succ in succs {
            if !visited.contains(&succ) {
                queue.push_back((succ, Some(Rc::clone(&masks)), level + 1));
            }
        }
    }
    out.good.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
    (out, levels)
}

/// `examples` dealt round-robin to `ranks` ranks, each part with its share
/// of the `live` positives: what the workers of a coverage-parallel run
/// hold.
pub fn dealt(examples: &Examples, live: &Bitset, ranks: usize) -> Vec<(Examples, Bitset)> {
    (0..ranks)
        .map(|rank| {
            let pos: Vec<usize> = (rank..examples.num_pos()).step_by(ranks).collect();
            let neg: Vec<usize> = (rank..examples.num_neg()).step_by(ranks).collect();
            let part_live = (0..pos.len()).filter(|&i| live.get(pos[i]));
            let part_live = Bitset::from_indices(pos.len(), part_live);
            (examples.subset(&pos, &neg), part_live)
        })
        .collect()
}

/// `search` under the batched evaluator, in rounds of at most `batch`
/// nodes, its callback summing [`evaluate_rule`] over the `dealt` parts as
/// the coverage-parallel baseline sums its ranks' counts; with the size of
/// every round.
pub fn batched_search(
    search: &Search<'_>,
    dealt: &[(Examples, Bitset)],
    batch: usize,
) -> (SearchOutcome, Vec<usize>) {
    let mut rounds = Vec::new();
    let count = |clause: &Clause| {
        dealt.iter().fold((0, 0), |(pos, neg), (part, live)| {
            let proof = search.settings.proof;
            let cov = evaluate_rule(search.kb, proof, clause, part, Some(live), None);
            (pos + cov.pos_count(), neg + cov.neg_count())
        })
    };
    let Ok(out) = search.run_batched(batch, |clauses| {
        rounds.push(clauses.len());
        Ok::<_, Infallible>(clauses.iter().map(count).collect())
    });
    (out, rounds)
}

/// What a batched search can observe — good rules, seed scores and nodes;
/// it proves nothing, so it charges no steps — must be the reference's.
pub fn assert_same_rules(batched: &SearchOutcome, plain: &SearchOutcome, what: &str) {
    let observable = |o: &SearchOutcome| (o.good.clone(), o.seed_scored.clone(), o.nodes);
    let (batched_sees, plain_sees) = (observable(batched), observable(plain));
    assert!(
        batched_sees == plain_sees,
        "{what}: batched {batched_sees:?} != memo-free {plain_sees:?}"
    );
}

/// Small molecules: `atm(Mol, Atom, Elem, Charge)` over three elements (so
/// every bottom clause repeats the `atm(M,_,c,_)` shape several times),
/// typed `bond/4` chains, a charge test, and a recursive `linked/3` so that
/// proofs expand rules and run into the step bound.
pub struct World {
    pub kb: KnowledgeBase,
    pub modes: ModeSet,
    pub examples: Examples,
}

pub fn world(seed: u64, molecules: usize) -> World {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let mut state = seed;
    let mut draw = move |n: u64| {
        state = splitmix64(state);
        state % n
    };
    let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
    let sym = |name: String| Term::Sym(t.intern(&name));

    let (mut pos, mut neg) = (Vec::new(), Vec::new());
    for m in 0..molecules {
        let mol = sym(format!("m{m}"));
        let atoms: Vec<Term> = (0..5 + draw(4)).map(|a| sym(format!("m{m}a{a}"))).collect();
        for a in &atoms {
            let elem = sym(["c", "c", "c", "c", "h", "o"][draw(6) as usize].to_owned());
            let charge = Term::Int(draw(3) as i64 - 1);
            kb.assert_fact(lit("atm", vec![mol.clone(), a.clone(), elem, charge]));
        }
        for w in atoms.windows(2) {
            let ty = Term::Int(1 + draw(2) as i64);
            kb.assert_fact(lit(
                "bond",
                vec![mol.clone(), w[0].clone(), w[1].clone(), ty],
            ));
        }
        let example = lit("active", vec![mol]);
        if draw(2) == 0 {
            pos.push(example);
        } else {
            neg.push(example);
        }
    }
    kb.assert_fact(lit("charged", vec![Term::Int(1)]));
    let v = Term::Var;
    // linked(M,A,B) :- bond(M,A,B,T).   linked(M,A,C) :- bond(M,A,B,T), linked(M,B,C).
    kb.assert_rule(Clause::new(
        lit("linked", vec![v(0), v(1), v(2)]),
        vec![lit("bond", vec![v(0), v(1), v(2), v(3)])],
    ));
    kb.assert_rule(Clause::new(
        lit("linked", vec![v(0), v(1), v(3)]),
        vec![
            lit("bond", vec![v(0), v(1), v(2), v(4)]),
            lit("linked", vec![v(0), v(2), v(3)]),
        ],
    ));
    let modes = ModeSet::parse(
        &t,
        "active(+mol)",
        &[
            (6, "atm(+mol, -atom, #elem, -charge)"),
            (4, "bond(+mol, -atom, -atom, #btype)"),
            (1, "charged(+charge)"),
            (2, "linked(+mol, +atom, -atom)"),
        ],
    )
    .expect("static templates parse");
    World {
        kb,
        modes,
        examples: Examples::new(pos, neg),
    }
}

/// The shapes of the first two lattice levels, in BFS order: where seeds
/// are drawn from, so that seeds have non-seed variants next to them.
pub fn shallow_shapes(bottom: &BottomClause, max_body: usize) -> Vec<RuleShape> {
    let mut shapes = vec![RuleShape::empty()];
    let level1 = successors(&RuleShape::empty(), bottom, max_body);
    for s in &level1 {
        shapes.extend(successors(s, bottom, max_body));
    }
    shapes.splice(1..1, level1);
    shapes
}

/// Everything a caller can observe of a search, `reused` aside, must be
/// the same with and without the memo.
pub fn assert_same(memo: &SearchOutcome, plain: &SearchOutcome, what: &str) {
    let observable = |o: &SearchOutcome| (o.good.clone(), o.seed_scored.clone(), o.nodes, o.steps);
    let (memo_sees, plain_sees) = (observable(memo), observable(plain));
    assert!(
        memo_sees == plain_sees,
        "{what}: memoised {memo_sees:?} != memo-free {plain_sees:?}"
    );
    assert!(memo.reused <= memo.nodes, "{what}: reused nodes are nodes");
}

/// One randomised covering loop, drawn from a seed.
#[derive(Clone, Debug)]
pub struct Case {
    /// Seed and size of the [`world`].
    pub world_seed: u64,
    pub molecules: usize,
    /// Search constraints, with tight proof bounds.
    pub settings: Settings,
    /// How many bottom clauses the loop searches under.
    pub bottoms: usize,
    /// Which shallow shapes are the Figure 7 seeds (indices modulo their
    /// number, shifted per bottom clause).
    pub seed_picks: Vec<usize>,
    /// The lattice slice (of two) the sliced searches keep to.
    pub rank: u64,
}

impl Case {
    /// The case of `seed`: the same for every caller.
    pub fn draw(seed: u64) -> Case {
        let mut state = seed;
        let mut below = move |n: u64| {
            state = splitmix64(state);
            state % n
        };
        Case {
            world_seed: below(u64::MAX),
            molecules: 8 + below(16) as usize,
            settings: Settings {
                noise: below(3) as u32,
                min_pos: 1 + below(3) as u32,
                max_body: 3,
                max_nodes: 10 + below(150) as usize,
                max_var_depth: 2,
                max_bottom_literals: 40,
                proof: ProofLimits {
                    max_depth: 2 + below(3) as u32,
                    max_steps: 25 + below(475),
                },
                eval_threads: 1,
                ..Settings::default()
            },
            bottoms: 2 + below(4) as usize,
            seed_picks: (0..below(5)).map(|_| below(1000) as usize).collect(),
            rank: below(2),
        }
    }
}

/// Runs `case`'s covering loop — a rank's life in small: per bottom clause
/// a seedless and a seeded search (Figure 7 seeds from the first lattice
/// levels, so that seeds meet their non-seed variants), each over the whole
/// lattice and again inside one slice of it; then a rank's `Evaluate` of
/// the round's good rules on the live set (what `MarkCovered` and
/// `ReplayTheory` run too), held against a plain
/// [`evaluate_rule`]; then the positives the round's best rule covers leave
/// the live set — with every search and every evaluation going through the
/// one `memo`, and each search held against [`memo_free_search`]. The memo's
/// accounting is audited after every one of them.
pub fn covering_loop_matches_the_memo_free_search(case: &Case, memo: &mut CoverageMemo) {
    let w = world(case.world_seed, case.molecules);
    let settings = &case.settings;
    let mut live = w.examples.full_pos_live();
    let mut cursor = None;
    for round in 0..case.bottoms {
        let Some(seed_idx) = live.next_after(cursor) else {
            break;
        };
        cursor = Some(seed_idx);
        let Some(bottom) = saturate(&w.kb, &w.modes, settings, &w.examples.pos[seed_idx]) else {
            live.clear(seed_idx);
            continue;
        };
        // The first round passes the full live set the way a caller
        // without one does.
        let live_pos = (round > 0).then_some(&live);
        let shallow = shallow_shapes(&bottom, settings.max_body);
        let seeds: Vec<RuleShape> = case
            .seed_picks
            .iter()
            .map(|&i| shallow[(i + round) % shallow.len()].clone())
            .collect();
        let half = LatticeSlice {
            rank: case.rank,
            of: 2,
            salt: case.world_seed,
        };
        for seeds in [&[][..], &seeds[..]] {
            for slice in [None, Some(&half)] {
                let what = format!(
                    "{case:?}, bottom {round}, {} live, {} seeds, slice {slice:?}",
                    live.count(),
                    seeds.len(),
                );
                let search = Search {
                    live_pos,
                    seeds,
                    slice,
                    ..Search::new(&w.kb, settings, &bottom, &w.examples)
                };
                let memoised = search.run(memo);
                let (plain, levels) = memo_free_levels(
                    &w.kb,
                    settings,
                    &bottom,
                    &w.examples,
                    live_pos,
                    seeds,
                    slice,
                );
                assert_same(&memoised, &plain, &what);
                // The batched evaluator, over the examples dealt to two and
                // to three ranks, a node a round and a level a round.
                for ranks in [2, 3] {
                    let dealt = dealt(&w.examples, &live, ranks);
                    for (batch, rounds) in [(1, vec![1; plain.nodes]), (usize::MAX, levels.clone())]
                    {
                        let what = format!("{what}, {ranks} ranks, rounds of {batch}");
                        let (batched, sizes) = batched_search(&search, &dealt, batch);
                        assert_same_rules(&batched, &plain, &what);
                        assert_eq!(sizes, rounds, "{what}: round sizes");
                    }
                }
                assert!(
                    memo.stats().peak_bytes <= memo.budget(),
                    "{what}: the memo outgrew its budget"
                );
                assert_eq!(memo.bytes(), memo.recount(), "{what}: accounted bytes");
            }
        }

        // The master's `Evaluate` round: the bag — the good rules of an
        // unsliced, seedless pass — scored on the live set as it stands,
        // twice: the second time nothing is proved, and nothing may differ.
        let whole = memo_free_search(&w.kb, settings, &bottom, &w.examples, live_pos, &[], None);
        let bag: Vec<Clause> = whole
            .good
            .iter()
            .take(6)
            .map(|r| r.shape.to_clause(&bottom))
            .collect();
        for pass in 0..2 {
            let run_before = memo.stats().steps_run;
            let scored = memo.evaluate_rules(&w.kb, settings, &bag, &w.examples, &live);
            for (rule, cov) in bag.iter().zip(&scored) {
                let plain =
                    evaluate_rule(&w.kb, settings.proof, rule, &w.examples, Some(&live), None);
                assert_eq!(
                    cov, &plain,
                    "{case:?}, bottom {round}, evaluate pass {pass}"
                );
            }
            // A memo that never came near its budget stored all of pass 0.
            let roomy = memo.stats().peak_bytes < memo.budget() / 2;
            assert!(
                pass == 0 || !roomy || memo.stats().steps_run == run_before,
                "{case:?}, bottom {round}: the second pass proved something"
            );
            assert_eq!(memo.bytes(), memo.recount(), "{case:?}: accounted bytes");
        }

        // The covering step: what the unsliced pass's best rule covers goes,
        // and the seed with it.
        if let Some(best) = whole.best() {
            let clause = best.shape.to_clause(&bottom);
            let (covered, _) = evaluate_side_threads(
                &w.kb,
                settings.proof,
                &clause,
                &w.examples.pos,
                Some(&live),
                1,
            );
            live.difference_with(&covered);
        }
        if live.get(seed_idx) {
            live.clear(seed_idx);
        }
    }
}
