//! The [`IlpEngine`] facade: one bundle of KB + modes + settings used by
//! the sequential baseline, the parallel workers, and the evaluation code.

use crate::bitset::Bitset;
use crate::bottom::{saturate, BottomClause};
use crate::coverage::Coverage;
use crate::examples::Examples;
use crate::mdie::{run_sequential, SequentialOutcome};
use crate::modes::{ModeDecl, ModeSet};
use crate::settings::Settings;
use p2mdie_logic::clause::{Clause, Literal, PredKey};
use p2mdie_logic::kb::KnowledgeBase;

/// An ILP problem instance: background knowledge, language bias, and the
/// search constraints. Cheap to clone (the KB's symbol table is shared).
#[derive(Clone, Debug)]
pub struct IlpEngine {
    /// Background knowledge `B`.
    pub kb: KnowledgeBase,
    /// Language bias (mode declarations).
    pub modes: ModeSet,
    /// Constraints `C`.
    pub settings: Settings,
}

impl IlpEngine {
    /// Bundles an engine. The mode declarations double as an index-tuning
    /// signal: posting lists on argument positions the language bias can
    /// never bind — output slots whose type occurs nowhere else, so no
    /// shared variable can ever reach them bound — are pruned from the KB
    /// (see [`ModeSet::bound_positions`]). Facts asserted *after* this
    /// pruning (late arrivals, incremental loads) respect it: pruned
    /// positions stay pruned and plans remain bit-identical to the
    /// prune-first construction order (pinned by the `late_asserts_*`
    /// regression tests in `crates/logic`).
    pub fn new(mut kb: KnowledgeBase, modes: ModeSet, settings: Settings) -> Self {
        for (key, keep) in modes.bound_positions() {
            kb.retain_indexes(key, &keep);
        }
        IlpEngine {
            kb,
            modes,
            settings,
        }
    }

    /// A clone of this engine with an *empty* KB sharing the symbol table —
    /// the worker-startup shape when the master ships its compiled KB as a
    /// snapshot instead of relying on shared data.
    pub fn with_empty_kb(&self) -> IlpEngine {
        IlpEngine {
            kb: KnowledgeBase::new(self.kb.symbols().clone()),
            modes: self.modes.clone(),
            settings: self.settings.clone(),
        }
    }

    /// Builds ⊥e for a seed example (`build_msh`, Fig. 1 step 5).
    pub fn saturate(&self, example: &Literal) -> Option<BottomClause> {
        saturate(&self.kb, &self.modes, &self.settings, example)
    }

    /// Evaluates one rule (`evalOnExamples`, Fig. 2 step 6), fanning out
    /// over `settings.eval_threads` when the example set is large enough.
    pub fn evaluate(
        &self,
        rule: &Clause,
        examples: &Examples,
        live_pos: Option<&Bitset>,
        live_neg: Option<&Bitset>,
    ) -> Coverage {
        crate::coverage::evaluate_rule_threads(
            &self.kb,
            self.settings.proof,
            rule,
            examples,
            live_pos,
            live_neg,
            self.settings.eval_threads,
        )
    }

    /// Runs the full sequential covering loop (Fig. 1).
    pub fn run_sequential(&self, examples: &Examples) -> SequentialOutcome {
        run_sequential(&self.kb, &self.modes, &self.settings, examples)
    }

    /// Adds an accepted rule to the background knowledge (the paper's
    /// `mark_covered` asserts `B ∪ {R}`, Fig. 6).
    pub fn assert_rule(&mut self, rule: Clause) {
        self.kb.assert_rule(rule);
    }

    /// True when the body of a candidate rule can reach predicate `key`: it
    /// is a body mode's predicate, or occurs in the body of a rule the KB
    /// holds (a superset of what body modes reach through rules). Asserting
    /// a rule for such a predicate changes what candidate bodies prove, so
    /// coverage computed before it no longer stands — the owner of a
    /// [`crate::CoverageMemo`] clears it then, and only then.
    pub fn callable_from_bodies(&self, key: PredKey) -> bool {
        let called = |l: &Literal| l.key() == key;
        let by_mode = |m: &ModeDecl| m.pred == key.pred && m.args.len() as u32 == key.arity;
        self.modes.body.iter().any(by_mode)
            || self.kb.predicates().any(|p| {
                self.kb
                    .rules_for(p)
                    .iter()
                    .any(|r| r.body.iter().any(called))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    #[test]
    fn facade_round_trip() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=10i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(t.intern("even"), vec![Term::Int(i)]));
            }
        }
        let modes = ModeSet::parse(&t, "tgt(+num)", &[(1, "even(+num)")]).unwrap();
        let engine = IlpEngine::new(
            kb,
            modes,
            Settings {
                min_pos: 1,
                ..Settings::default()
            },
        );
        let tgt = t.intern("tgt");
        let ex = Examples::new(
            vec![
                Literal::new(tgt, vec![Term::Int(2)]),
                Literal::new(tgt, vec![Term::Int(4)]),
            ],
            vec![Literal::new(tgt, vec![Term::Int(3)])],
        );
        let bottom = engine.saturate(&ex.pos[0]).unwrap();
        let found =
            crate::search::search_rules(&engine.kb, &engine.settings, &bottom, &ex, None, &[]);
        let best = found.best().unwrap();
        assert_eq!(best.pos, 2);
        assert_eq!(best.neg, 0);
        let clause = best.shape.to_clause(&bottom);
        let cov = engine.evaluate(&clause, &ex, None, None);
        assert_eq!(cov.pos_count(), 2);
        let seq = engine.run_sequential(&ex);
        assert_eq!(seq.theory.len(), 1);
    }
}
