//! The master's rule bag (paper Fig. 5, steps 9–22).
//!
//! Rules arriving from the `p` pipelines are pooled, scored *globally* (one
//! `evaluate` broadcast collects per-subset counts), then consumed: pick the
//! globally best, mark its positives covered everywhere, re-evaluate what
//! remains, drop what is no longer good, repeat.

use p2mdie_ilp::settings::{ScoreFn, Settings};
use p2mdie_logic::clause::Clause;
use std::collections::HashSet;

/// One bag entry with its latest global evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct BagRule {
    /// The candidate rule.
    pub clause: Clause,
    /// Pipeline origin (worker rank), for tracing.
    pub origin: u8,
    /// Latest per-worker `(pos, neg)` counts, aligned with worker ranks
    /// `1..=p` (empty until the first evaluation).
    pub per_worker: Vec<(u32, u32)>,
}

impl BagRule {
    /// Aggregate positive cover over all subsets.
    pub fn global_pos(&self) -> u32 {
        self.per_worker.iter().map(|c| c.0).sum()
    }

    /// Aggregate negative cover over all subsets.
    pub fn global_neg(&self) -> u32 {
        self.per_worker.iter().map(|c| c.1).sum()
    }

    /// Global score under `f`.
    pub fn global_score(&self, f: ScoreFn) -> i64 {
        f.score(self.global_pos(), self.global_neg(), self.clause.length())
    }
}

/// The bag of candidate rules awaiting global consumption.
#[derive(Clone, Debug, Default)]
pub struct RuleBag {
    rules: Vec<BagRule>,
    seen: HashSet<Clause>,
}

impl RuleBag {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a rule unless an α-variant is already present. Returns
    /// whether it was inserted.
    pub fn insert(&mut self, clause: Clause, origin: u8) -> bool {
        let key = clause.normalize();
        if !self.seen.insert(key) {
            return false;
        }
        self.rules.push(BagRule {
            clause,
            origin,
            per_worker: Vec::new(),
        });
        true
    }

    /// Number of rules currently in the bag.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The clauses in bag order (what an `Evaluate` broadcast carries).
    pub fn clauses(&self) -> Vec<Clause> {
        self.rules.iter().map(|r| r.clause.clone()).collect()
    }

    /// Stores fresh evaluation results. `results[k]` is worker `k+1`'s
    /// count vector, aligned with the bag order of the `clauses()` call the
    /// evaluation was broadcast from.
    ///
    /// # Panics
    /// Panics when a vector's length disagrees with the bag: the caller
    /// checks what a worker sent before storing it.
    pub fn set_results(&mut self, results: &[Vec<(u32, u32)>]) {
        for (k, counts) in results.iter().enumerate() {
            // invariant: the master refuses an `EvalResult` of another
            // length before it gets here (`master::evaluate_bag`).
            assert_eq!(
                counts.len(),
                self.rules.len(),
                "worker {} returned {} counts for a bag of {}",
                k + 1,
                counts.len(),
                self.rules.len()
            );
        }
        for (i, rule) in self.rules.iter_mut().enumerate() {
            rule.per_worker = results.iter().map(|r| r[i]).collect();
        }
    }

    /// Removes and returns the globally best rule (highest score; ties go
    /// to the shorter clause, then to bag order). `None` on an empty bag.
    pub fn pick_best(&mut self, f: ScoreFn) -> Option<BagRule> {
        let best = self
            .rules
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| (-r.global_score(f), r.clause.length() as i64, *i))
            .map(|(i, _)| i)?;
        Some(self.rules.remove(best))
    }

    /// Drops every rule whose *global* coverage no longer satisfies the
    /// goodness criteria (Fig. 5 step 20, `notGood`). Returns how many were
    /// dropped.
    pub fn drop_not_good(&mut self, settings: &Settings) -> usize {
        let before = self.rules.len();
        self.rules
            .retain(|r| settings.is_good(r.global_pos(), r.global_neg()));
        before - self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    fn clause(t: &SymbolTable, body_preds: &[&str]) -> Clause {
        Clause::new(
            Literal::new(t.intern("h"), vec![Term::Var(0)]),
            body_preds
                .iter()
                .map(|p| Literal::new(t.intern(p), vec![Term::Var(0)]))
                .collect(),
        )
    }

    #[test]
    fn insert_dedups_alpha_variants() {
        let t = SymbolTable::new();
        let mut bag = RuleBag::new();
        assert!(bag.insert(clause(&t, &["q"]), 1));
        // Same clause with different variable ids.
        let variant = Clause::new(
            Literal::new(t.intern("h"), vec![Term::Var(7)]),
            vec![Literal::new(t.intern("q"), vec![Term::Var(7)])],
        );
        assert!(!bag.insert(variant, 2));
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn results_align_and_aggregate() {
        let t = SymbolTable::new();
        let mut bag = RuleBag::new();
        bag.insert(clause(&t, &["q"]), 1);
        bag.insert(clause(&t, &["r"]), 2);
        bag.set_results(&[vec![(3, 0), (1, 2)], vec![(2, 1), (4, 0)]]);
        assert_eq!(bag.rules[0].global_pos(), 5);
        assert_eq!(bag.rules[0].global_neg(), 1);
        assert_eq!(bag.rules[1].global_pos(), 5);
        assert_eq!(bag.rules[1].global_neg(), 2);
    }

    #[test]
    fn pick_best_is_global_and_deterministic() {
        let t = SymbolTable::new();
        let mut bag = RuleBag::new();
        bag.insert(clause(&t, &["q"]), 1);
        bag.insert(clause(&t, &["r"]), 2);
        bag.set_results(&[vec![(3, 0), (6, 1)]]);
        let best = bag.pick_best(ScoreFn::Coverage).unwrap();
        assert_eq!(best.global_pos(), 6);
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn ties_prefer_shorter_then_bag_order() {
        let t = SymbolTable::new();
        let mut bag = RuleBag::new();
        bag.insert(clause(&t, &["q", "r"]), 1);
        bag.insert(clause(&t, &["s"]), 2);
        bag.set_results(&[vec![(3, 0), (3, 0)]]);
        let best = bag.pick_best(ScoreFn::Coverage).unwrap();
        assert_eq!(best.clause.length(), 1);
    }

    #[test]
    fn drop_not_good_filters_globally() {
        let t = SymbolTable::new();
        let mut bag = RuleBag::new();
        bag.insert(clause(&t, &["q"]), 1);
        bag.insert(clause(&t, &["r"]), 2);
        // Rule 0: 1 pos (below min_pos 2); rule 1: fine.
        bag.set_results(&[vec![(1, 0), (5, 0)]]);
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            ..Settings::default()
        };
        assert_eq!(bag.drop_not_good(&settings), 1);
        assert_eq!(bag.len(), 1);
        assert_eq!(bag.rules[0].global_pos(), 5);
    }

    #[test]
    #[should_panic(expected = "returned")]
    fn misaligned_results_panic() {
        let t = SymbolTable::new();
        let mut bag = RuleBag::new();
        bag.insert(clause(&t, &["q"]), 1);
        bag.set_results(&[vec![]]);
    }

    #[test]
    fn empty_bag_behaviour() {
        let mut bag = RuleBag::new();
        assert!(bag.is_empty());
        assert!(bag.pick_best(ScoreFn::Coverage).is_none());
        assert_eq!(bag.drop_not_good(&Settings::default()), 0);
    }
}
