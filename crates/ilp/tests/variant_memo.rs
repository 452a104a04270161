//! Differential test of the search's variant memo: `search_rules_guided`
//! must report exactly what a memo-free breadth-first search reports —
//! good rules, seed scores, node count, *charged steps*, dead frontier and
//! cut count — on worlds whose bottom clauses are full of literals that
//! differ only in variable names (several atoms of one element per
//! molecule), under every hook the search has and tight proof bounds.
//!
//! The oracle below is the search as it stood before the memo, written
//! against public API only (`evaluate_side_threads`, `RuleShape::successors`):
//! every node is compiled and proved, nothing is remembered.

use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::bottom::{saturate, BottomClause};
use p2mdie_ilp::coverage::evaluate_side_threads;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::modes::ModeSet;
use p2mdie_ilp::refine::{splitmix64, ConstraintStore, LatticeSlice, RuleShape};
use p2mdie_ilp::search::{search_rules_guided, ScoredRule, SearchGuide, SearchOutcome};
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::ProofLimits;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

/// A node's covered positives and negatives: its successors' live masks.
type Masks = Rc<(Bitset, Bitset)>;

/// The memo-free search: Figure 2 with monotone masks, Figure 7 seeds and
/// the strategy hooks, one proof per node.
#[allow(clippy::too_many_arguments)]
fn memo_free_search(
    kb: &KnowledgeBase,
    settings: &Settings,
    bottom: &BottomClause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    seeds: &[RuleShape],
    guide: &SearchGuide,
    constraints: Option<&ConstraintStore>,
) -> SearchOutcome {
    let mut out = SearchOutcome::default();
    let mut rng = guide.explore_seed.map(splitmix64);
    let mut queue: VecDeque<(RuleShape, Option<Masks>)> = VecDeque::new();
    let mut visited: HashSet<RuleShape> = HashSet::new();
    let seed_set: HashSet<&RuleShape> = seeds.iter().collect();
    if seeds.is_empty() {
        queue.push_back((RuleShape::empty(), None));
    } else {
        let mut queued = HashSet::new();
        for s in seeds {
            if queued.insert(s) {
                queue.push_back((s.clone(), None));
            }
        }
    }
    let scored = |shape: &RuleShape, pos, neg| ScoredRule {
        shape: shape.clone(),
        pos,
        neg,
        score: settings.score.score(pos, neg, shape.body_len()),
    };

    while let Some((shape, parent_cov)) = queue.pop_front() {
        if out.nodes >= settings.max_nodes {
            break;
        }
        if !visited.insert(shape.clone()) {
            continue;
        }
        let is_seed = seed_set.contains(&shape);
        if !is_seed && constraints.is_some_and(|c| c.prunes(&shape)) {
            out.cut += 1;
            continue;
        }
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
            if guide.collect_dead && out.dead.len() < guide.dead_cap {
                out.dead.push(shape);
            }
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
        let mut succs = shape.successors(bottom, settings.max_body);
        if let Some(slice) = &guide.slice {
            succs.retain(|s| slice.admits(s));
        }
        if let Some(state) = rng.as_mut() {
            for i in (1..succs.len()).rev() {
                *state = splitmix64(*state);
                succs.swap(i, (*state % (i as u64 + 1)) as usize);
            }
        }
        for succ in succs {
            if !visited.contains(&succ) {
                queue.push_back((succ, Some(Rc::clone(&masks))));
            }
        }
    }
    out.good.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
    out
}

/// Small molecules: `atm(Mol, Atom, Elem, Charge)` over three elements (so
/// every bottom clause repeats the `atm(M,_,c,_)` shape several times),
/// typed `bond/4` chains, a charge test, and a recursive `linked/3` so that
/// proofs expand rules and run into the step bound.
struct World {
    kb: KnowledgeBase,
    modes: ModeSet,
    examples: Examples,
}

fn world(seed: u64, molecules: usize) -> World {
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
fn shallow_shapes(bottom: &BottomClause, max_body: usize) -> Vec<RuleShape> {
    let mut shapes = vec![RuleShape::empty()];
    let level1 = RuleShape::empty().successors(bottom, max_body);
    for s in &level1 {
        shapes.extend(s.successors(bottom, max_body));
    }
    shapes.splice(1..1, level1);
    shapes
}

/// Everything a caller can observe of a search, `reused` aside.
fn assert_same(
    memo: &SearchOutcome,
    plain: &SearchOutcome,
    what: &str,
) -> Result<(), TestCaseError> {
    let observable = |o: &SearchOutcome| {
        (
            o.good.clone(),
            o.seed_scored.clone(),
            o.nodes,
            o.steps,
            o.dead.clone(),
            o.cut,
        )
    };
    let (memo_sees, plain_sees) = (observable(memo), observable(plain));
    prop_assert!(
        memo_sees == plain_sees,
        "{what}: memoised {memo_sees:?} != memo-free {plain_sees:?}"
    );
    prop_assert!(memo.reused <= memo.nodes, "{what}: reused nodes are nodes");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoised_search_equals_the_memo_free_search(
        seed in any::<u64>(),
        molecules in 8usize..20,
        max_nodes in 10usize..160,
        min_pos in 1u32..4,
        noise in 0u32..3,
        max_steps in 25u64..500,
        max_depth in 2u32..5,
        seed_picks in proptest::collection::vec(0usize..1000, 0..5),
        explore in 0u64..4,
        rank in 0u64..2,
    ) {
        let w = world(seed, molecules);
        prop_assume!(!w.examples.pos.is_empty());
        let settings = Settings {
            noise,
            min_pos,
            max_body: 3,
            max_nodes,
            max_var_depth: 2,
            max_bottom_literals: 40,
            proof: ProofLimits { max_depth, max_steps },
            eval_threads: 1,
            ..Settings::default()
        };
        let Some(bottom) = saturate(&w.kb, &w.modes, &settings, &w.examples.pos[0]) else {
            return Ok(());
        };
        // Every second positive retired, as deep into a covering loop.
        let live = Bitset::from_indices(
            w.examples.num_pos(),
            (0..w.examples.num_pos()).filter(|i| i % 2 == 0),
        );
        // Seeds from the first lattice levels, the root among them when 0
        // is drawn: a seed is proved under the caller's masks, its non-seed
        // variants under their parent's.
        let shallow = shallow_shapes(&bottom, settings.max_body);
        let seeds: Vec<RuleShape> = seed_picks
            .iter()
            .map(|&i| shallow[i % shallow.len()].clone())
            .collect();

        let plain_guide = SearchGuide::default();
        let hooked_guide = SearchGuide {
            slice: Some(LatticeSlice { rank, of: 2, salt: seed }),
            explore_seed: (explore > 0).then_some(explore),
            collect_dead: true,
            dead_cap: 6,
        };
        // A non-empty constraint store: the dead frontier of an unsliced,
        // seedless pass over the same bottom clause.
        let collect_all = SearchGuide { collect_dead: true, dead_cap: 64, ..SearchGuide::default() };
        let frontier =
            memo_free_search(&w.kb, &settings, &bottom, &w.examples, None, &[], &collect_all, None);
        let mut store = ConstraintStore::new();
        store.merge(&frontier.dead);

        for live_pos in [None, Some(&live)] {
            for seeds in [&[][..], &seeds[..]] {
                for (guide, constraints) in [(&plain_guide, None), (&hooked_guide, Some(&store))] {
                    let what = format!(
                        "live_pos {} / {} seeds / slice {:?} / {} constraints",
                        live_pos.is_some(),
                        seeds.len(),
                        guide.slice,
                        constraints.map_or(0, ConstraintStore::len),
                    );
                    let memo = search_rules_guided(
                        &w.kb, &settings, &bottom, &w.examples, live_pos, seeds, guide, constraints,
                    );
                    let plain = memo_free_search(
                        &w.kb, &settings, &bottom, &w.examples, live_pos, seeds, guide, constraints,
                    );
                    assert_same(&memo, &plain, &what)?;
                }
            }
        }
    }
}

/// The differential test above proves nothing if the memo never fires or
/// the mask-mismatch path is never taken; this pins both on one world.
#[test]
fn repeated_atoms_hit_the_memo_and_seeds_miss_it() {
    let w = world(2005, 16);
    let settings = Settings {
        noise: 2,
        min_pos: 2,
        max_body: 3,
        max_nodes: 400,
        max_bottom_literals: 40,
        eval_threads: 1,
        ..Settings::default()
    };
    let bottom = saturate(&w.kb, &w.modes, &settings, &w.examples.pos[0]).expect("head matches");
    let search = |seeds: &[RuleShape]| {
        let guide = SearchGuide::default();
        let memo = search_rules_guided(
            &w.kb,
            &settings,
            &bottom,
            &w.examples,
            None,
            seeds,
            &guide,
            None,
        );
        let plain = memo_free_search(
            &w.kb,
            &settings,
            &bottom,
            &w.examples,
            None,
            seeds,
            &guide,
            None,
        );
        assert_same(&memo, &plain, "pinned world").expect("memoised == memo-free");
        memo
    };

    let seedless = search(&[]);
    assert!(
        seedless.reused * 4 > seedless.nodes,
        "a bottom clause with repeated atoms must reuse many of its {} nodes, reused {}",
        seedless.nodes,
        seedless.reused
    );

    // Seeds: the root and the first one-literal shape. The root's other
    // children that are variants of that seed find its entry, proved under
    // other masks (the caller's, not the root's coverage): they must be
    // proved themselves, so fewer nodes are reused than without seeds.
    let first = RuleShape::empty().successors(&bottom, settings.max_body)[0].clone();
    let seeded = search(&[RuleShape::empty(), first]);
    assert_eq!(seeded.nodes, seedless.nodes, "same lattice, same budget");
    assert!(
        seeded.reused < seedless.reused,
        "variants of a seed must not be served from its entry: {} vs {}",
        seeded.reused,
        seedless.reused
    );
}
