//! A carcinogenesis-shaped dataset (Srinivasan et al. 1997 by proxy).
//!
//! The original molecules are not redistributable, so this generator
//! produces synthetic molecules with the same *shape*: the exact
//! |E+| = 162 / |E−| = 136 of the paper's Table 1, an atom/bond relational
//! schema, numeric charges probed through threshold predicates, a planted
//! ground-truth theory of three clauses, and 8% label noise. What the
//! paper's experiments measure — search and evaluation cost scaling, rule
//! bags, accuracy stability under partitioning — depends on these shape
//! parameters, not on true chemistry (the dataset substitution, stated in
//! the [crate docs](crate)).

use crate::common::{scaled, Dataset};
use p2mdie_ilp::coverage::evaluate_rule;
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::modes::ModeSet;
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::Literal;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::parser::Parser;
use p2mdie_logic::prover::ProofLimits;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::{Term, F64};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

const ELEMS: &[(&str, f64)] = &[
    ("c", 0.58),
    ("h", 0.20),
    ("o", 0.10),
    ("n", 0.08),
    ("cl", 0.02),
    ("s", 0.02),
];
const LABEL_NOISE: f64 = 0.18;

/// The planted ground-truth theory (must stay inside the mode language).
const PLANTED: &str = "
    active(M) :- atm(M, A, n, C), gteq_chg(C, 0.25).
    active(M) :- bond(M, A, B, 7), atmel(M, A, o).
    active(M) :- bond(M, A, B, 3), atmel(M, A, s).
";

fn pick_elem(rng: &mut StdRng) -> &'static str {
    let mut x: f64 = rng.random();
    for (e, p) in ELEMS {
        if x < *p {
            return e;
        }
        x -= p;
    }
    "c"
}

/// Generates the carcinogenesis-shaped dataset. `scale` multiplies the
/// paper's example counts (1.0 reproduces Table 1's 162/136).
pub fn carcinogenesis(scale: f64, seed: u64) -> Dataset {
    let pos_target = scaled(162, scale, 8);
    let neg_target = scaled(136, scale, 8);

    let syms = SymbolTable::new();
    let mut kb = KnowledgeBase::new(syms.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    let atm = syms.intern("atm");
    let bond = syms.intern("bond");
    let atmel = syms.intern("atmel");
    let active = syms.intern("active");

    // Charge-threshold helpers. Descending for >=, ascending for =<, so a
    // small saturation recall captures the *tightest* satisfied thresholds.
    for lvl in [0.5, 0.25, 0.0, -0.25, -0.5] {
        kb.assert_fact(Literal::new(
            syms.intern("chg_desc"),
            vec![Term::Float(F64(lvl))],
        ));
    }
    for lvl in [-0.5, -0.25, 0.0, 0.25, 0.5] {
        kb.assert_fact(Literal::new(
            syms.intern("chg_asc"),
            vec![Term::Float(F64(lvl))],
        ));
    }
    let helper_rules = "
        gteq_chg(C, L) :- chg_desc(L), C >= L.
        lteq_chg(C, L) :- chg_asc(L), C =< L.
    ";
    for c in Parser::new(&syms, helper_rules)
        .expect("lex")
        .parse_program()
        .expect("parse")
    {
        kb.assert(c);
    }

    // Generate molecules in batches until both label quotas are met.
    let mut candidates: Vec<Term> = Vec::new();
    let mut mol_id = 0usize;
    let mut gen_batch =
        |kb: &mut KnowledgeBase, rng: &mut StdRng, candidates: &mut Vec<Term>, n: usize| {
            for _ in 0..n {
                let mol = Term::Sym(syms.intern(&format!("m{mol_id}")));
                mol_id += 1;
                let n_atoms = rng.random_range(8..=20);
                let atoms: Vec<Term> = (0..n_atoms)
                    .map(|a| Term::Sym(syms.intern(&format!("m{}_a{a}", mol_id - 1))))
                    .collect();
                for a in &atoms {
                    let elem = Term::Sym(syms.intern(pick_elem(rng)));
                    let charge = Term::Float(F64(
                        (rng.random::<f64>() * 2.0 - 1.0 + f64::EPSILON).round_to(2)
                    ));
                    kb.assert_fact(Literal::new(
                        atm,
                        vec![mol.clone(), a.clone(), elem.clone(), charge],
                    ));
                    kb.assert_fact(Literal::new(atmel, vec![mol.clone(), a.clone(), elem]));
                }
                // A connecting chain plus ~n/3 random extra bonds.
                let n_extra = n_atoms / 3;
                let add_bond = |kb: &mut KnowledgeBase, rng: &mut StdRng, i: usize, j: usize| {
                    let t: i64 = match rng.random::<f64>() {
                        x if x < 0.70 => 1,
                        x if x < 0.85 => 2,
                        x if x < 0.92 => 3,
                        _ => 7,
                    };
                    kb.assert_fact(Literal::new(
                        bond,
                        vec![
                            mol.clone(),
                            atoms[i].clone(),
                            atoms[j].clone(),
                            Term::Int(t),
                        ],
                    ));
                };
                for i in 1..n_atoms {
                    add_bond(kb, rng, i - 1, i);
                }
                for _ in 0..n_extra {
                    let i = rng.random_range(0..n_atoms);
                    let j = rng.random_range(0..n_atoms);
                    if i != j {
                        add_bond(kb, rng, i, j);
                    }
                }
                candidates.push(mol);
            }
        };

    // Label candidates with the planted theory, then flip 8%.
    let planted: Vec<p2mdie_logic::clause::Clause> = Parser::new(&syms, PLANTED)
        .expect("lex")
        .parse_program()
        .expect("parse");
    let proof = ProofLimits {
        max_depth: 4,
        max_steps: 4_000,
    };

    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for _round in 0..40 {
        if pos.len() >= pos_target && neg.len() >= neg_target {
            break;
        }
        let mut fresh = Vec::new();
        gen_batch(&mut kb, &mut rng, &mut fresh, 128);
        let cand_examples = Examples::new(
            fresh
                .iter()
                .map(|m| Literal::new(active, vec![m.clone()]))
                .collect(),
            vec![],
        );
        let mut truth = p2mdie_ilp::bitset::Bitset::new(fresh.len());
        for rule in &planted {
            let cov = evaluate_rule(&kb, proof, rule, &cand_examples, None, None);
            truth.union_with(&cov.pos);
        }
        for (i, m) in fresh.iter().enumerate() {
            let mut label = truth.get(i);
            if rng.random_bool(LABEL_NOISE) {
                label = !label;
            }
            let ex = Literal::new(active, vec![m.clone()]);
            if label && pos.len() < pos_target {
                pos.push(ex);
            } else if !label && neg.len() < neg_target {
                neg.push(ex);
            }
        }
        candidates.extend(fresh);
    }
    assert_eq!(
        pos.len(),
        pos_target,
        "generator could not reach the positive quota"
    );
    assert_eq!(
        neg.len(),
        neg_target,
        "generator could not reach the negative quota"
    );
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);

    let modes = ModeSet::parse(
        &syms,
        "active(+mol)",
        &[
            (10, "atm(+mol, -atom, #elem, -charge)"),
            (8, "bond(+mol, -atom, -atom, #btype)"),
            (1, "atmel(+mol, +atom, #elem)"),
            (2, "gteq_chg(+charge, #lvl)"),
            (2, "lteq_chg(+charge, #lvl)"),
        ],
    )
    .expect("static templates parse");

    let settings = Settings {
        noise: (neg_target as f64 * 0.01).round().max(1.0) as u32,
        min_pos: 2,
        max_body: 3,
        max_nodes: 800,
        max_var_depth: 2,
        max_bottom_literals: 120,
        proof: ProofLimits {
            max_depth: 4,
            max_steps: 3_000,
        },
        ..Settings::default()
    };

    // Release the generators' load-time over-allocation (arena, columns,
    // posting lists) before the KB is cloned per rank.
    kb.optimize();

    Dataset {
        name: "carcinogenesis",
        syms,
        engine: IlpEngine::new(kb, modes, settings),
        examples: Examples::new(pos, neg),
    }
}

trait Round2 {
    fn round_to(self, digits: u32) -> f64;
}
impl Round2 for f64 {
    fn round_to(self, digits: u32) -> f64 {
        let m = 10f64.powi(digits as i32);
        (self * m).round() / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_at_full_scale() {
        let d = carcinogenesis(1.0, 7);
        assert_eq!(d.characterization(), (162, 136));
    }

    #[test]
    fn scaled_counts() {
        let d = carcinogenesis(0.25, 7);
        assert_eq!(d.characterization(), (41, 34));
    }

    #[test]
    fn learnable_with_reasonable_quality() {
        let d = carcinogenesis(0.25, 7);
        let run = d.engine.run_sequential(&d.examples);
        assert!(!run.theory.is_empty(), "must learn something");
        // Training accuracy of the theory must beat the majority class:
        // count covered pos and neg over the full set.
        let mut cp = p2mdie_ilp::bitset::Bitset::new(d.examples.num_pos());
        let mut cn = p2mdie_ilp::bitset::Bitset::new(d.examples.num_neg());
        for r in &run.theory {
            let cov = d.engine.evaluate(&r.clause, &d.examples, None, None);
            cp.union_with(&cov.pos);
            cn.union_with(&cov.neg);
        }
        let correct = cp.count() + (d.examples.num_neg() - cn.count());
        let acc = correct as f64 / d.examples.len() as f64;
        assert!(acc > 0.6, "training accuracy too low: {acc}");
    }

    #[test]
    fn deterministic() {
        let a = carcinogenesis(0.2, 3);
        let b = carcinogenesis(0.2, 3);
        assert_eq!(a.examples, b.examples);
    }

    #[test]
    fn saturation_reaches_planted_literals() {
        let d = carcinogenesis(0.2, 3);
        // Some seed must have a bottom clause mentioning the charge
        // threshold predicate (the planted R1 shape).
        let gteq = d.syms.intern("gteq_chg");
        let found = d.examples.pos.iter().take(10).any(|e| {
            d.engine
                .saturate(e)
                .map(|b| b.lits.iter().any(|l| l.lit.pred == gteq))
                .unwrap_or(false)
        });
        assert!(found, "gteq_chg literals must appear in bottom clauses");
    }
}
