//! The sequential MDIE covering loop (paper Figure 1) — the `p = 1`
//! baseline every speedup in Tables 2–3 is measured against.

use crate::bottom::saturate;
use crate::coverage::evaluate_rule;
use crate::examples::Examples;
use crate::memo::CoverageMemo;
use crate::modes::ModeSet;
use crate::search::Search;
use crate::settings::Settings;
use p2mdie_logic::clause::Clause;
use p2mdie_logic::kb::KnowledgeBase;

/// A rule accepted into the theory, with its coverage at acceptance time.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LearnedRule {
    /// The accepted clause.
    pub clause: Clause,
    /// Positive examples it covered among those still live.
    pub pos: u32,
    /// Negative examples it covered.
    pub neg: u32,
}

/// The outcome of a sequential covering run.
#[derive(Clone, Debug, Default)]
pub struct SequentialOutcome {
    /// The induced theory, in acceptance order.
    pub theory: Vec<LearnedRule>,
    /// Number of epochs (= rules attempted; one rule learned per epoch).
    pub epochs: usize,
    /// Total inference steps (saturation + search + re-evaluation): the
    /// sequential virtual time is `steps × t_step`.
    pub steps: u64,
    /// Positive examples set aside because no good rule was found for them.
    pub set_aside: usize,
}

/// Runs the MDIE covering loop of Figure 1: pick an uncovered positive
/// example, saturate, search for the best good rule, accept it, remove the
/// covered positives, repeat until everything is covered or set aside.
pub fn run_sequential(
    kb: &KnowledgeBase,
    modes: &ModeSet,
    settings: &Settings,
    examples: &Examples,
) -> SequentialOutcome {
    let mut out = SequentialOutcome::default();
    let mut live = examples.full_pos_live();
    // One memo for the whole loop: the KB, the examples and the proof limits
    // stay as they are, only `live` shrinks.
    let mut memo = CoverageMemo::new();

    while let Some(seed_idx) = live.first() {
        out.epochs += 1;
        let seed = &examples.pos[seed_idx];

        let Some(bottom) = saturate(kb, modes, settings, seed) else {
            // Example incompatible with the head mode: set it aside.
            live.clear(seed_idx);
            out.set_aside += 1;
            continue;
        };
        out.steps += bottom.steps;

        let found = Search {
            live_pos: Some(&live),
            keep: 1,
            ..Search::new(kb, settings, &bottom, examples)
        }
        .run(&mut memo);
        out.steps += found.steps;

        match found.best() {
            None => {
                live.clear(seed_idx);
                out.set_aside += 1;
            }
            Some(best) => {
                let clause = best.shape.to_clause(&bottom);
                let cov = evaluate_rule(kb, settings.proof, &clause, examples, Some(&live), None);
                out.steps += cov.steps;
                live.difference_with(&cov.pos);
                // Guarantee progress even if proof bounds made the accepted
                // rule miss its own seed on re-evaluation.
                if live.get(seed_idx) {
                    live.clear(seed_idx);
                    out.set_aside += 1;
                }
                out.theory.push(LearnedRule {
                    clause,
                    pos: best.pos,
                    neg: best.neg,
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// Two disjoint concepts: div6 = even∧div3; div10 would need even∧div5.
    /// Target `special(X)` true for multiples of 6 and of 10.
    fn world() -> (SymbolTable, KnowledgeBase, ModeSet, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=40i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(t.intern("even"), vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(t.intern("div3"), vec![Term::Int(i)]));
            }
            if i % 5 == 0 {
                kb.assert_fact(Literal::new(t.intern("div5"), vec![Term::Int(i)]));
            }
        }
        let tgt = t.intern("special");
        let pos: Vec<Literal> = (1..=40i64)
            .filter(|i| i % 6 == 0 || i % 10 == 0)
            .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
            .collect();
        let neg: Vec<Literal> = (1..=40i64)
            .filter(|i| i % 6 != 0 && i % 10 != 0)
            .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
            .collect();
        let modes = ModeSet::parse(
            &t,
            "special(+num)",
            &[(1, "even(+num)"), (1, "div3(+num)"), (1, "div5(+num)")],
        )
        .unwrap();
        (t, kb, modes, Examples::new(pos, neg))
    }

    #[test]
    fn learns_a_complete_consistent_theory() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            max_body: 3,
            ..Settings::default()
        };
        let out = run_sequential(&kb, &modes, &settings, &ex);
        assert!(out.theory.len() >= 2, "needs one rule per disjunct");
        assert_eq!(out.set_aside, 0);
        assert!(out.epochs >= out.theory.len());
        assert!(out.steps > 0);
        // The theory must cover every positive and no negative.
        let mut covered = crate::bitset::Bitset::new(ex.num_pos());
        for r in &out.theory {
            let cov = evaluate_rule(&kb, settings.proof, &r.clause, &ex, None, None);
            covered.union_with(&cov.pos);
            assert_eq!(cov.neg_count(), 0);
        }
        assert_eq!(covered.count(), ex.num_pos());
    }

    #[test]
    fn one_rule_per_epoch() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            max_body: 3,
            ..Settings::default()
        };
        let out = run_sequential(&kb, &modes, &settings, &ex);
        assert_eq!(out.epochs, out.theory.len() + out.set_aside);
    }

    #[test]
    fn impossible_settings_set_everything_aside() {
        let (_, kb, modes, ex) = world();
        // min_pos larger than |E+| makes every rule bad.
        let settings = Settings {
            min_pos: ex.num_pos() as u32 + 1,
            noise: 0,
            ..Settings::default()
        };
        let out = run_sequential(&kb, &modes, &settings, &ex);
        assert!(out.theory.is_empty());
        assert_eq!(out.set_aside, ex.num_pos());
    }

    #[test]
    fn deterministic_runs() {
        let (_, kb, modes, ex) = world();
        let settings = Settings::default();
        let a = run_sequential(&kb, &modes, &settings, &ex);
        let b = run_sequential(&kb, &modes, &settings, &ex);
        assert_eq!(a.theory, b.theory);
        assert_eq!(a.steps, b.steps);
    }
}
