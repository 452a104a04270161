//! A mesh-design-shaped dataset (Dolšak & Bratko's finite-element mesh by
//! proxy): learn how many finite elements each edge of a structure should
//! be subdivided into — `mesh(Edge, N)` with `N ∈ 1..=12`.
//!
//! The generator plants a deterministic mapping from three edge attributes
//! (length × support × load: 3 × 2 × 2 = 12 combinations) to the element
//! count, corrupts 12% of the counts (noise), and adds neighbour/opposite
//! relations so the hypothesis space contains many shallow, partially-good
//! rules — the property that makes the real mesh dataset produce
//! "some thousand rules at the end of one pipeline" (paper §5.3).

use crate::common::{scaled, Dataset};
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::modes::ModeSet;
use p2mdie_ilp::settings::Settings;
use p2mdie_logic::clause::Literal;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::ProofLimits;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

const COUNT_NOISE: f64 = 0.12;
/// Edges per simulated structure (neighbour rings are built within one).
const STRUCTURE_SIZE: usize = 40;

/// Generates the mesh-shaped dataset. `scale` multiplies the paper's
/// example counts (1.0 reproduces Table 1's 2840/278).
pub fn mesh(scale: f64, seed: u64) -> Dataset {
    let pos_target = scaled(2840, scale, 24);
    let neg_target = scaled(278, scale, 8);

    let syms = SymbolTable::new();
    let mut kb = KnowledgeBase::new(syms.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    let mesh_p = syms.intern("mesh");
    let lens = [
        syms.intern("short"),
        syms.intern("mid_len"),
        syms.intern("long"),
    ];
    let sups = [syms.intern("fixed"), syms.intern("free")];
    let loads = [syms.intern("loaded"), syms.intern("unloaded")];
    let neighbour = syms.intern("neighbour");
    let opposite = syms.intern("opposite");

    let mut pos = Vec::new();
    let mut edges: Vec<Term> = Vec::new();

    for e in 0..pos_target {
        let edge = Term::Sym(syms.intern(&format!("e{e}")));
        let len: usize = rng.random_range(0..3);
        let sup: usize = rng.random_range(0..2);
        let load: usize = rng.random_range(0..2);
        kb.assert_fact(Literal::new(lens[len], vec![edge.clone()]));
        kb.assert_fact(Literal::new(sups[sup], vec![edge.clone()]));
        kb.assert_fact(Literal::new(loads[load], vec![edge.clone()]));

        // Planted mapping: combo index 1..=12.
        let mut count = (len * 4 + sup * 2 + load + 1) as i64;
        if rng.random_bool(COUNT_NOISE) {
            // Noise: displace to a different class.
            let wrong = rng.random_range(1..=12i64);
            count = if wrong == count {
                (count % 12) + 1
            } else {
                wrong
            };
        }
        pos.push(Literal::new(mesh_p, vec![edge.clone(), Term::Int(count)]));
        edges.push(edge);
    }

    // Neighbour rings (both directions) and opposite pairs within each
    // structure of STRUCTURE_SIZE edges.
    for chunk in edges.chunks(STRUCTURE_SIZE) {
        let n = chunk.len();
        if n < 2 {
            continue;
        }
        for i in 0..n {
            let j = (i + 1) % n;
            kb.assert_fact(Literal::new(
                neighbour,
                vec![chunk[i].clone(), chunk[j].clone()],
            ));
            kb.assert_fact(Literal::new(
                neighbour,
                vec![chunk[j].clone(), chunk[i].clone()],
            ));
        }
        for i in 0..n / 2 {
            let j = i + n / 2;
            kb.assert_fact(Literal::new(
                opposite,
                vec![chunk[i].clone(), chunk[j].clone()],
            ));
            kb.assert_fact(Literal::new(
                opposite,
                vec![chunk[j].clone(), chunk[i].clone()],
            ));
        }
    }

    // Negatives: wrong (edge, count) pairs.
    let mut neg = Vec::new();
    while neg.len() < neg_target {
        let i = rng.random_range(0..pos.len());
        let Term::Int(right) = pos[i].args[1] else {
            unreachable!("counts are ints")
        };
        let mut wrong = rng.random_range(1..=12i64);
        if wrong == right {
            wrong = (wrong % 12) + 1;
        }
        neg.push(Literal::new(
            mesh_p,
            vec![pos[i].args[0].clone(), Term::Int(wrong)],
        ));
    }
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);

    let modes = ModeSet::parse(
        &syms,
        "mesh(+edge, #count)",
        &[
            (1, "short(+edge)"),
            (1, "mid_len(+edge)"),
            (1, "long(+edge)"),
            (1, "fixed(+edge)"),
            (1, "free(+edge)"),
            (1, "loaded(+edge)"),
            (1, "unloaded(+edge)"),
            (2, "neighbour(+edge, -edge)"),
            (2, "opposite(+edge, -edge)"),
        ],
    )
    .expect("static templates parse");

    let settings = Settings {
        noise: (neg_target as f64 * 0.03).round().max(2.0) as u32,
        min_pos: 3,
        max_body: 3,
        max_nodes: 250,
        max_var_depth: 2,
        max_bottom_literals: 40,
        proof: ProofLimits {
            max_depth: 4,
            max_steps: 1_500,
        },
        ..Settings::default()
    };

    // Release the generators' load-time over-allocation (arena, columns,
    // posting lists) before the KB is cloned per rank.
    kb.optimize();

    Dataset {
        name: "mesh",
        syms,
        engine: IlpEngine::new(kb, modes, settings),
        examples: Examples::new(pos, neg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_at_full_scale() {
        let d = mesh(1.0, 11);
        assert_eq!(d.characterization(), (2840, 278));
    }

    #[test]
    fn learns_attribute_rules() {
        let d = mesh(0.05, 11); // 142 pos, 14 neg — fast
        let run = d.engine.run_sequential(&d.examples);
        assert!(!run.theory.is_empty());
        // Most positives follow the planted 12-combo mapping; a good chunk
        // must be covered by clean rules.
        let mut cp = p2mdie_ilp::bitset::Bitset::new(d.examples.num_pos());
        for r in &run.theory {
            let cov = d.engine.evaluate(&r.clause, &d.examples, None, None);
            cp.union_with(&cov.pos);
        }
        let frac = cp.count() as f64 / d.examples.num_pos() as f64;
        assert!(frac > 0.7, "coverage fraction too low: {frac}");
    }

    #[test]
    fn rule_bags_are_large() {
        // The mesh shape must produce many good rules per search — the
        // paper's justification for bounding the pipeline width.
        let d = mesh(0.05, 11);
        let bottom = d.engine.saturate(&d.examples.pos[0]).unwrap();
        let (kb, settings) = (&d.engine.kb, &d.engine.settings);
        let out = p2mdie_ilp::search_rules(kb, settings, &bottom, &d.examples, None, &[]);
        assert!(out.good.len() >= 5, "only {} good rules", out.good.len());
    }

    #[test]
    fn deterministic() {
        let a = mesh(0.05, 2);
        let b = mesh(0.05, 2);
        assert_eq!(a.examples, b.examples);
    }
}
