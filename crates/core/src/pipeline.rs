//! One pipeline stage: the paper's `learn_rule'` (Figure 7).
//!
//! A stage receives (or, at stage 1, creates) a token carrying ⊥e and a set
//! of rules `S`, runs a seeded breadth-first search on the *local* example
//! subset, merges `Good = S ∪ {new good rules}`, ranks by local score, cuts
//! to the pipeline width `W`, and forwards — to the next worker, or to the
//! master when this was stage `p`.
//!
//! Every strategy runs this one stage. A rank that holds the full example
//! set (hypothesis-parallel) runs a pipeline over a ring of itself, so its
//! stage 1 is also its last, and its search stays inside the rank's slice of
//! the refinement lattice.

use p2mdie_ilp::refine::RuleShape;
use p2mdie_ilp::search::{ScoredRule, Search};
use p2mdie_ilp::settings::Width;
use p2mdie_ilp::CoverageMemo;
use std::collections::HashSet;

/// What a stage computed: the outgoing ranked rules and the fuel burnt.
#[derive(Clone, Debug)]
pub struct StageResult {
    /// `Good` after the width cut, ranked by local score.
    pub rules: Vec<ScoredRule>,
    /// Inference steps consumed by the stage's search.
    pub steps: u64,
}

/// Runs the search part of one pipeline stage on the local subset.
///
/// `search` is the stage's search as the caller builds it — its KB,
/// settings, ⊥e, local examples, live positives and, on a replicated rank,
/// its lattice slice; the stage sets its seeds and how many good rules it
/// keeps. `incoming` is `S`, the rules from the previous stage (empty at
/// stage 1). Per Figure 7 the incoming rules *stay in the stream* even when
/// the local subset scores them badly; they are re-ranked with local scores
/// where available, keeping their previous-stage scores when the node budget
/// ran out before re-scoring them. `memo` is the rank's coverage memo: every
/// stage of every pipeline passing through the rank shares it, so a clause
/// one pipeline evaluated here is not proved again for another.
pub fn run_stage_search(
    search: Search,
    incoming: &[ScoredRule],
    width: Width,
    memo: &mut CoverageMemo,
) -> StageResult {
    let seeds: Vec<RuleShape> = incoming.iter().map(|r| r.shape.clone()).collect();
    let out = Search {
        seeds: &seeds,
        keep: width.cap().min(search.settings.good_cap),
        ..search
    }
    .run(memo);

    // Good = S ∪ new-good. Locally re-scored seeds replace their incoming
    // versions; seeds the budget never reached keep their old scores. Merged
    // and ranked by reference: only the rules that go on are copied.
    let mut taken: HashSet<&RuleShape> = HashSet::new();
    let mut merged: Vec<&ScoredRule> = out
        .seed_scored
        .iter()
        .chain(&out.good)
        .chain(incoming)
        .filter(|r| taken.insert(&r.shape))
        .collect();
    merged.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
    merged.truncate(width.cap());

    StageResult {
        rules: merged.into_iter().cloned().collect(),
        steps: out.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_ilp::bitset::Bitset;
    use p2mdie_ilp::bottom::BottomClause;
    use p2mdie_ilp::engine::IlpEngine;
    use p2mdie_ilp::examples::Examples;
    use p2mdie_ilp::modes::ModeSet;
    use p2mdie_ilp::settings::Settings;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::kb::KnowledgeBase;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    fn engine_and_examples() -> (SymbolTable, IlpEngine, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=30i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(t.intern("even"), vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(t.intern("div3"), vec![Term::Int(i)]));
            }
        }
        let modes =
            ModeSet::parse(&t, "div6(+num)", &[(1, "even(+num)"), (1, "div3(+num)")]).unwrap();
        let tgt = t.intern("div6");
        let ex = Examples::new(
            (1..=30i64)
                .filter(|i| i % 6 == 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
            (1..=30i64)
                .filter(|i| i % 6 != 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
        );
        let engine = IlpEngine::new(
            kb,
            modes,
            Settings {
                min_pos: 2,
                noise: 0,
                ..Settings::default()
            },
        );
        (t, engine, ex)
    }

    /// A stage on `ex` with a fresh memo, `live` the live positives.
    fn stage(
        engine: &IlpEngine,
        ex: &Examples,
        live: &Bitset,
        bottom: &BottomClause,
        incoming: &[ScoredRule],
        width: Width,
    ) -> StageResult {
        let search = Search {
            live_pos: Some(live),
            ..Search::new(&engine.kb, &engine.settings, bottom, ex)
        };
        run_stage_search(search, incoming, width, &mut CoverageMemo::new())
    }

    #[test]
    fn stage_one_finds_and_ranks_rules() {
        let (_, engine, ex) = engine_and_examples();
        let live = ex.full_pos_live();
        let bottom = engine.saturate(&ex.pos[0]).unwrap();
        let r = stage(&engine, &ex, &live, &bottom, &[], Width::Unlimited);
        assert!(!r.rules.is_empty());
        assert!(r.steps > 0);
        // Best rule must be the clean conjunction.
        assert_eq!(r.rules[0].neg, 0);
    }

    #[test]
    fn width_truncates_the_stream() {
        let (_, mut engine, ex) = engine_and_examples();
        // Allow noisy rules so that {even}, {div3} and {even, div3} are all
        // good and the stream has something to truncate.
        engine.settings.noise = 10;
        let live = ex.full_pos_live();
        let bottom = engine.saturate(&ex.pos[0]).unwrap();
        let wide = stage(&engine, &ex, &live, &bottom, &[], Width::Unlimited);
        let narrow = stage(&engine, &ex, &live, &bottom, &[], Width::Limit(1));
        assert!(wide.rules.len() > 1);
        assert_eq!(narrow.rules.len(), 1);
        assert_eq!(
            narrow.rules[0], wide.rules[0],
            "width cut keeps the best rules"
        );
    }

    #[test]
    fn incoming_rules_survive_even_if_locally_bad() {
        let (_, engine, ex) = engine_and_examples();
        // A live mask with zero live examples: nothing can be locally good.
        let live = Bitset::new(ex.num_pos());
        let bottom = engine.saturate(&ex.pos[0]).unwrap();
        let incoming = vec![ScoredRule {
            shape: RuleShape::from_indices(vec![0]),
            pos: 5,
            neg: 0,
            score: 5,
        }];
        let r = stage(&engine, &ex, &live, &bottom, &incoming, Width::Unlimited);
        assert!(
            r.rules.iter().any(|x| x.shape == incoming[0].shape),
            "Good = S must keep incoming rules in the stream"
        );
    }

    #[test]
    fn incoming_rules_are_rescored_locally() {
        let (_, engine, ex) = engine_and_examples();
        let live = ex.full_pos_live();
        let bottom = engine.saturate(&ex.pos[0]).unwrap();
        let incoming = vec![ScoredRule {
            shape: RuleShape::from_indices(vec![0]),
            pos: 999, // bogus score from "elsewhere"
            neg: 0,
            score: 999,
        }];
        let r = stage(&engine, &ex, &live, &bottom, &incoming, Width::Unlimited);
        let re = r
            .rules
            .iter()
            .find(|x| x.shape == incoming[0].shape)
            .unwrap();
        assert!(
            re.pos <= ex.num_pos() as u32,
            "local re-scoring replaced the bogus count"
        );
    }
}
