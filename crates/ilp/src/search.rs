//! Top-down breadth-first rule search (the paper's `learn_rule`, Figure 2).
//!
//! Starting from seed shapes (the most-general rule by default, or the rules
//! received from the previous pipeline stage in `learn_rule'`, Figure 7),
//! the search expands the refinement lattice breadth-first, evaluates every
//! candidate on the (local) examples, collects the "good" rules, and stops
//! on the node budget — April's "threshold on the number of rules that can
//! be generated on each search" (§5.2).
//!
//! # Monotone coverage pruning
//!
//! Refinement only ever appends body literals, and an SLD proof of the
//! extended body passes through a proof of the prefix within the same step
//! and depth budget — so a child rule can only cover a *subset* of its
//! parent's coverage, even under bounded proofs. The search exploits this:
//! each evaluated node's covered-positive/covered-negative bitsets are
//! threaded down (shared via `Rc` among its successors) as the live masks
//! for child evaluation. A child is then evaluated on O(|parent coverage|)
//! examples instead of O(|E|), with bit-identical results; examples the
//! parent already failed to cover are never touched again anywhere in that
//! subtree.
//!
//! # Coverage memo
//!
//! A breadth-first walk over subsets of ⊥e meets the same clause *up to
//! variable renaming* again and again: ⊥e of a 20-atom molecule holds half
//! a dozen `atm(M,Ai,c,Ci)` literals, so `{atm₁}`, `{atm₂}`, … and all
//! their pairs are alphabetic variants of each other. And a covering loop
//! meets the same clauses search after search: consecutive bottom clauses
//! share their shallow lattice (1 776 distinct clauses in the 15 201 nodes
//! of a `carcinogenesis(0.3)` run), and on a pipeline rank stage k of one
//! pipeline walks what stage 1 of another walked. The loop that owns the
//! live set therefore owns one [`CoverageMemo`] and hands it to every
//! search; a search without a loop around it ([`search_rules`]) brings its
//! own. A node the memo can answer is not compiled and not proved, and its
//! steps are charged exactly as if it had been: the work is skipped, the
//! fuel is kept — the convention of the prover's bulk-charged plans — so
//! `good`, `seed_scored`, `nodes` and `steps`, and with them every theory,
//! virtual time and table, are bit-identical to the memo-free search
//! whatever the memo holds. [`SearchOutcome::reused`],
//! [`CoverageMemo::stats`] and the `search_memo_*` hot counters say how
//! nodes were served.
//!
//! *The key* is the node's *canonical* clause: variables renamed in
//! first-occurrence order — head first — literal order kept, written as one
//! skeleton id per literal (the literal with its variables blanked, interned
//! for the memo's lifetime) followed by its renamed variables. It does not
//! mention ⊥e: equal keys are the same clause under any bottom clause.
//!
//! *The rule.* An entry holds, per side, the mask `T` the clause was last
//! evaluated on, the covered set `C ⊆ T` and the step total `S = Σ_{i∈T}
//! steps_i`. A node with live mask `L` takes `gone = T∖L` and `fresh =
//! L∖T`. Both empty: `(C, S)` is the answer. Fewer of them than `|L|`: the
//! clause is proved on `gone` for its steps and on `fresh`, and the answer
//! is `C' = (C ∩ L) ∪ C(fresh)`, `S' = S − S(gone) + S(fresh)`. Else `L` is
//! proved. Either way the entry becomes `(L, C', S')`.
//! An example's `(covered, steps)` is a function of the clause, the example,
//! the KB and the proof limits — not of the examples evaluated with it —
//! so a side's result is a sum over its mask and sums over disjoint masks
//! add: `L = (T ∖ gone) ⊎ fresh` gives the two formulas.
//! This one rule covers variants within a search (their BFS parents are
//! variants, so `T = L`), the live set shrinking between epochs (`gone` is
//! what was covered since; each entry proves it once, then it has left
//! `T`), and Figure 7 seeds, which are evaluated on the caller's `live_pos`
//! and every negative, against their non-seed variants (`fresh` is what the
//! parent did not cover). The lazy negative side survives: an entry made by
//! a node below `min_pos` holds the positive side only, and the first node
//! that needs more proves the negatives and completes it; the sides are
//! valid independently.
//!
//! *Validity.* A memo stands for one example list, one `ProofLimits` and the
//! KB as rule bodies see it, and its owner clears it when one changes: a
//! worker rank on a new partition, on adopted examples and on a new KB
//! snapshot. The KB also changes when `mark_covered` asserts an accepted
//! rule (Fig. 6, `B ∪ {R}`) — but what a candidate body proves changes only
//! if the body can *call* `R`, i.e. the target is a body-mode predicate or
//! occurs in a rule body of the KB
//! ([`crate::engine::IlpEngine::callable_from_bodies`]). On fact-only KBs
//! with non-recursive targets — every dataset here — it never does, and
//! clearing on every accepted rule would forfeit the memo exactly where it
//! pays, between epochs. The sequential loop asserts nothing.
//!
//! A *job* is not a boundary. Every rank is resident: its memo outlives
//! its jobs (a one-shot run's single job starts a new one, on a new mesh),
//! and the same three conditions decide at the seam: it is cleared when a
//! job ships the rank another example subset, when a job's `ProofLimits`
//! are not the previous job's, on a KB snapshot between jobs — and at the
//! end of a job that asserted a rule bodies can call, because the job's
//! rules leave the KB with the job and whatever was stored after that
//! assert saw them. A job that asserted only rules no body can call leaves
//! the memo standing, so the next job on the same examples — a coverage
//! query, a rule search, a whole learning run — starts from what the last
//! one proved.
//!
//! *One path.* Scoring a clause on its own — the master's `Evaluate` of a
//! bag, `MarkCovered`, a theory replay — goes through the same memo as a
//! search node ([`CoverageMemo::evaluate_rules`]): the clause is keyed as
//! the shape it came from was (`shape.to_clause(⊥e)` and `shape` under `⊥e`
//! share a key), looked up by the same rule on the live positives and
//! every negative, and charged as if proved. A bag round re-scores clauses
//! a stage has just scored as Figure 7 seeds on the same masks, and the
//! next round scores them again on a live set that lost what was accepted.
//!
//! *Memory* is bounded by construction: keys, masks and step totals are
//! records in one flat arena behind an open-addressing index, every byte
//! allocated is counted against a fixed budget, and an insert that does not
//! fit first evicts entries the *current* search has not touched — least
//! recently used first — and else is dropped ([`crate::memo`] has the
//! layout). The budget is 128 KiB per memo, a constant and not a setting:
//! results do not depend on it. It was sized on executed proof steps of the
//! sequential `carcinogenesis(0.3, 2005)` run (37.9 M charged; 15.6 M
//! executed with the per-search memo this one replaces): 15.6 M at 32 KiB,
//! 10.8 M at 64, 7.5 M at 128, 6.9 M at 256 and unbounded — 128 KiB is
//! the knee, an entry there being about 120 bytes, most of it key. What
//! caps it is resident memory of a *mesh*, where every rank has a memo,
//! against the benchmark's 10 % bound on peak RSS: the issue's prototype,
//! which trimmed only between searches, read +13 % at 256 KiB on
//! `pyr-svc-tcp` — whose peak is its set-up learn on two ranks — and +5
//! to +9 % at 128 KiB; with the hard in-search budget and the flat layout
//! 128 KiB reads +0.3 % (`carc-seq`), +1.5 % (`carc-pipe-p2`), +2.7 %
//! (`mesh-pipe-p2-tcp`) and +1.4 % (`pyr-svc-tcp`) over ten paired runs.
//! On `mesh(1.0)` and `pyrimidines(1.0)` a mask is 23 to 45 words, and an
//! entry that carried `T` and `C` dense was 0.4 to 0.8 KB; but most deep
//! nodes are tried on a handful of examples and cover fewer, so an entry
//! holds `C` and `T∖C`, each as a run of indices when that is shorter
//! ([`crate::memo`], "Layout") — on a rank of a two-rank mesh run a record
//! averages 18 words where it took 63, and three times as many fit. What
//! the proofs really run at the one budget, per `tests/memo_budget.rs`
//! (dense records before the arrow): the two ranks of the `mesh(1.0)`
//! learn 3 199 539 → 2 215 099 of 9 318 456 charged steps (1 976 710 with
//! no budget at all); sequential `mesh(1.0)` 1 986 431 → 1 870 606 of
//! 2 705 644; sequential `pyrimidines(1.0)` 35 814 235 → 29 188 772 of
//! 43 163 555; `carcinogenesis(0.3)`, whose masks are one word, 7 485 847
//! before and after. A sequential run's clauses still do not fit any such
//! budget (3.5 MB and 1.5 MB unbounded): there the memo serves what it can
//! — mostly within a search — and what a record is made of now is a third
//! key, a third sets and a tenth step totals.
//!
//! Skipping the *expansion* of variant subtrees is a different algorithm:
//! it changes what the `max_nodes` budget buys, hence the theories.

use crate::bitset::Bitset;
use crate::bottom::BottomClause;
use crate::coverage::prepare_rule;
use crate::examples::Examples;
use crate::memo::{proving, ClauseKeys, CoverageMemo, Ran};
use crate::refine::{LatticeSlice, RuleShape};
use crate::settings::Settings;
use p2mdie_logic::fxhash::FxHashSet;
use p2mdie_logic::kb::KnowledgeBase;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

/// A rule with its (local) coverage and score.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScoredRule {
    /// The rule as bottom-clause indices (wire-friendly).
    pub shape: RuleShape,
    /// Covered positive examples (on the evaluating subset).
    pub pos: u32,
    /// Covered negative examples (on the evaluating subset).
    pub neg: u32,
    /// Score under the configured [`crate::settings::ScoreFn`].
    pub score: i64,
}
p2mdie_logic::wire_struct!(ScoredRule {
    shape,
    pos,
    neg,
    score
});

impl ScoredRule {
    /// Deterministic ordering: higher score first, then shorter body, then
    /// lexicographically smaller shape.
    pub fn rank_key(&self) -> (i64, i64, &[u32]) {
        (-self.score, self.shape.body_len() as i64, &self.shape.lits)
    }
}

/// The outcome of one search.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// Good rules found, best first (deterministic order).
    pub good: Vec<ScoredRule>,
    /// Every seed rule with its local score, good or not. The pipelined
    /// `learn_rule'` (paper Fig. 7) initializes `Good = S`: rules received
    /// from the previous stage stay in the stream even when the local
    /// subset dislikes them — the master's *global* evaluation decides.
    pub seed_scored: Vec<ScoredRule>,
    /// Nodes (candidate rules) evaluated.
    pub nodes: usize,
    /// Inference steps spent evaluating candidates (virtual-time fuel).
    pub steps: u64,
    /// Nodes (of `nodes`) that ran no proof at all: the coverage memo held
    /// their result for exactly their live masks. Counted and step-charged
    /// like any other. A node served by a difference proof is not one of
    /// these; the memo's statistics and the `search_memo_*` counters tell
    /// the three kinds apart.
    pub reused: usize,
}

impl SearchOutcome {
    /// The best good rule, if any.
    pub fn best(&self) -> Option<&ScoredRule> {
        self.good.first()
    }
}

/// The covered positives and negatives of an evaluated node: the live masks
/// of its successors, shared among them while they wait in the queue.
type Masks = Rc<(Bitset, Bitset)>;

/// Runs one breadth-first search over `bottom`'s refinement lattice.
///
/// * `live_pos` — positive examples still uncovered (dead ones are skipped).
/// * `seeds` — starting shapes; when empty, starts from the most-general
///   rule. Seeds are also evaluated (they may already be good here even if
///   they were found on another worker's subset).
pub fn search_rules(
    kb: &KnowledgeBase,
    settings: &Settings,
    bottom: &BottomClause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    seeds: &[RuleShape],
) -> SearchOutcome {
    search_rules_guided(
        kb,
        settings,
        bottom,
        examples,
        live_pos,
        seeds,
        None,
        &mut CoverageMemo::new(),
    )
}

/// [`search_rules`] with its two hooks: an optional slice of the refinement
/// lattice to stay inside (hypothesis-parallel search — successors outside
/// the slice are never enqueued; slices are subtree-closed, so this loses
/// nothing the slice owns), and the coverage memo of the covering loop the
/// search is part of (see the module docs for what a memo may be shared
/// across). With no slice and a new memo this is exactly the plain search.
#[allow(clippy::too_many_arguments)]
pub fn search_rules_guided(
    kb: &KnowledgeBase,
    settings: &Settings,
    bottom: &BottomClause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    seeds: &[RuleShape],
    slice: Option<&LatticeSlice>,
    memo: &mut CoverageMemo,
) -> SearchOutcome {
    let mut out = SearchOutcome::default();
    // Each queued node carries its parent's coverage masks (shared among
    // siblings); roots and seeds evaluate under the caller's live mask.
    let mut queue: VecDeque<(RuleShape, Option<Masks>)> = VecDeque::new();
    let mut visited: FxHashSet<RuleShape> = FxHashSet::default();
    let mut seed_set: HashSet<&RuleShape> = HashSet::new();
    memo.begin_search(examples.num_pos(), examples.num_neg());
    let mut keys = ClauseKeys::new(bottom, memo);
    // What a root or seed is evaluated on: the caller's live positives and
    // every negative.
    let every_pos = examples.full_pos_live();
    let root_pos = live_pos.unwrap_or(&every_pos);
    let every_neg = Bitset::full(examples.num_neg());

    if seeds.is_empty() {
        queue.push_back((RuleShape::empty(), None));
    } else {
        let mut queued: HashSet<&RuleShape> = HashSet::new();
        for s in seeds {
            seed_set.insert(s);
            if queued.insert(s) {
                queue.push_back((s.clone(), None));
            }
        }
    }

    while let Some((shape, parent_cov)) = queue.pop_front() {
        if out.nodes >= settings.max_nodes {
            break;
        }
        if !visited.insert(shape.clone()) {
            continue;
        }
        out.nodes += 1;
        let is_seed = seed_set.contains(&shape);
        // Lazy negative side: a non-seed node below `min_pos` can never be
        // good, reports nothing, and is not expanded — its negative
        // coverage is unobservable, so don't pay for it.
        let needs_neg = |pos: u32| pos >= settings.min_pos || is_seed;
        // Monotonicity: the child's coverage is a subset of the parent's, so
        // the parent's covered sets are exact live masks for the child.
        let live = match &parent_cov {
            Some(m) => [&m.0, &m.1],
            None => [root_pos, &every_neg],
        };
        let compile = || prepare_rule(kb, &shape.to_clause(bottom));
        let prove = proving(kb, settings, examples, compile);
        let node = memo.evaluate(keys.key_of(&shape), live, needs_neg, prove);
        out.reused += usize::from(node.ran == Ran::Nothing);
        out.steps += node.pos_steps;
        let pos = node.pos.count() as u32;
        let Some((neg_bits, neg_steps)) = node.neg else {
            // Below `min_pos` and not a seed: nothing to report or expand.
            continue;
        };
        out.steps += neg_steps;
        let neg = neg_bits.count() as u32;

        if is_seed {
            out.seed_scored.push(ScoredRule {
                shape: shape.clone(),
                pos,
                neg,
                score: settings.score.score(pos, neg, shape.body_len()),
            });
        }

        if settings.is_good(pos, neg) {
            out.good.push(ScoredRule {
                shape: shape.clone(),
                pos,
                neg,
                score: settings.score.score(pos, neg, shape.body_len()),
            });
            if out.good.len() > settings.good_cap {
                // Keep the cap loose: sort and truncate only when exceeded.
                out.good.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
                out.good.truncate(settings.good_cap);
            }
        }

        // Specializing cannot regain positive cover: prune hopeless subtrees.
        if pos < settings.min_pos {
            continue;
        }
        let mut succs = shape.successors(bottom, settings.max_body);
        if let Some(slice) = slice {
            succs.retain(|s| slice.admits(s));
        }
        let masks = Rc::new((node.pos, neg_bits));
        for succ in succs {
            if !visited.contains(&succ) {
                queue.push_back((succ, Some(Rc::clone(&masks))));
            }
        }
    }

    out.good.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
    out
}

/// Selects the top `cap` rules of an already-ranked good list (the pipeline
/// width `W` applied when forwarding; paper §4.1).
pub fn take_top(mut good: Vec<ScoredRule>, cap: usize) -> Vec<ScoredRule> {
    good.truncate(cap);
    good
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom::saturate;
    use crate::modes::ModeSet;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// Numbers 1..20; target div6; BK: even/1, div3/1.
    fn world() -> (SymbolTable, KnowledgeBase, ModeSet, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=20i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(t.intern("even"), vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(t.intern("div3"), vec![Term::Int(i)]));
            }
        }
        let tgt = t.intern("div6");
        let pos: Vec<Literal> = [6i64, 12, 18]
            .iter()
            .map(|&i| Literal::new(tgt, vec![Term::Int(i)]))
            .collect();
        let neg: Vec<Literal> = [2i64, 3, 4, 9, 10, 15]
            .iter()
            .map(|&i| Literal::new(tgt, vec![Term::Int(i)]))
            .collect();
        let modes =
            ModeSet::parse(&t, "div6(+num)", &[(1, "even(+num)"), (1, "div3(+num)")]).unwrap();
        (t, kb, modes, Examples::new(pos, neg))
    }

    use p2mdie_logic::kb::KnowledgeBase;

    #[test]
    fn finds_the_conjunction_rule() {
        let (t, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let best = out.best().expect("must find a rule");
        assert_eq!(best.pos, 3);
        assert_eq!(best.neg, 0);
        let c = best.shape.to_clause(&bottom);
        assert_eq!(
            c.body.len(),
            2,
            "needs both even and div3: {:?}",
            c.display(&t).to_string()
        );
        assert!(out.nodes >= 3);
    }

    #[test]
    fn node_budget_caps_search() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            max_nodes: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        assert_eq!(out.nodes, 1);
        assert!(out.good.is_empty(), "root rule covers all negatives");
    }

    #[test]
    fn noise_admits_impure_rules() {
        let (_, kb, modes, ex) = world();
        // With noise 3, "div6(X) :- even(X)" (3 pos, 3 neg: 2/4/10) becomes
        // good, as does "div6(X) :- div3(X)" (3 neg: 3/9/15).
        let settings = Settings {
            noise: 3,
            min_pos: 2,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        assert!(out.good.len() >= 2);
    }

    #[test]
    fn seeded_search_extends_seed_rules() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        // Seed with {even} only; search must refine it to {even, div3}.
        let seed = RuleShape::from_indices(vec![0]);
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[seed]);
        let best = out.best().expect("refined rule");
        assert_eq!(best.neg, 0);
    }

    #[test]
    fn live_mask_changes_counts() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 1,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let mut live = Bitset::new(ex.num_pos());
        live.set(0);
        let out = search_rules(&kb, &settings, &bottom, &ex, Some(&live), &[]);
        let best = out.best().unwrap();
        assert_eq!(best.pos, 1);
    }

    #[test]
    fn deterministic_ordering() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            noise: 3,
            min_pos: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let a = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let b = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        assert_eq!(a.good, b.good);
    }

    #[test]
    fn seeds_are_scored_even_when_locally_bad() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        // The empty shape covers every negative: never "good", but as a
        // seed it must still come back scored (Fig. 7's Good = S).
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[RuleShape::empty()]);
        assert_eq!(out.seed_scored.len(), 1);
        assert_eq!(out.seed_scored[0].pos, 3);
        assert_eq!(out.seed_scored[0].neg, 6);
    }

    /// The guided search's defaults change nothing: with no slice, or with
    /// the one-slice partition that admits the whole lattice, and a new memo
    /// it is the plain search.
    #[test]
    fn default_guide_is_a_strict_no_op() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            noise: 3,
            min_pos: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let plain = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let whole = LatticeSlice {
            rank: 0,
            of: 1,
            salt: 11,
        };
        for slice in [None, Some(&whole)] {
            let guided = search_rules_guided(
                &kb,
                &settings,
                &bottom,
                &ex,
                None,
                &[],
                slice,
                &mut CoverageMemo::new(),
            );
            assert_eq!(plain.good, guided.good);
            assert_eq!(plain.seed_scored, guided.seed_scored);
            assert_eq!(plain.nodes, guided.nodes);
            assert_eq!(plain.steps, guided.steps);
        }
    }

    #[test]
    fn sliced_searches_union_to_the_full_search() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            noise: 3,
            min_pos: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let plain = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let full: std::collections::HashSet<RuleShape> =
            plain.good.iter().map(|r| r.shape.clone()).collect();
        for of in [2u64, 3] {
            let mut union = std::collections::HashSet::new();
            for rank in 0..of {
                let out = search_rules_guided(
                    &kb,
                    &settings,
                    &bottom,
                    &ex,
                    None,
                    &[],
                    Some(&LatticeSlice { rank, of, salt: 11 }),
                    &mut CoverageMemo::new(),
                );
                for r in &out.good {
                    assert!(
                        union.insert(r.shape.clone()),
                        "slices must be disjoint: {:?} found twice",
                        r.shape
                    );
                }
            }
            assert_eq!(union, full, "slices must be collectively exhaustive");
        }
    }

    #[test]
    fn take_top_truncates() {
        let rules: Vec<ScoredRule> = (0..5)
            .map(|i| ScoredRule {
                shape: RuleShape::from_indices(vec![i]),
                pos: 1,
                neg: 0,
                score: 1,
            })
            .collect();
        assert_eq!(take_top(rules.clone(), 2).len(), 2);
        assert_eq!(take_top(rules, 100).len(), 5);
    }
}
