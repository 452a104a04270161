//! Benchmark harness crate: hosts the `reproduce` binary (regenerates every
//! table and figure of the paper) and `bench_prover` (the before/after gate
//! behind `BENCH_prover.json`). See `src/bin/`.
//!
//! This crate also hosts verbatim replicas of the *pre-refactor* deduction
//! hot path ([`legacy`]) so `bench_prover` can pin the speedup of the PR-1
//! prover and coverage rework against the true seed implementation rather
//! than a reconstruction. The replicas build on [`p2mdie_logic::prover::reference`]
//! (the seed's clone-per-expansion prover, kept in-tree for differential
//! testing).

pub mod legacy {
    //! The seed's coverage evaluation and breadth-first search, exactly as
    //! they stood before the zero-allocation prover, monotone coverage
    //! pruning, and parallel evaluation landed.

    use p2mdie_ilp::bitset::Bitset;
    use p2mdie_ilp::bottom::BottomClause;
    use p2mdie_ilp::coverage::Coverage;
    use p2mdie_ilp::examples::Examples;
    use p2mdie_ilp::refine::RuleShape;
    use p2mdie_ilp::search::{ScoredRule, SearchOutcome};
    use p2mdie_ilp::settings::Settings;
    use p2mdie_logic::clause::Clause;
    use p2mdie_logic::kb::KnowledgeBase;
    use p2mdie_logic::prover::{reference, ProofLimits};
    use p2mdie_logic::subst::Bindings;
    use std::collections::{HashSet, VecDeque};

    /// Seed `evaluate_rule`: reference prover, one fresh binding store per
    /// example, no masks, no fan-out.
    pub fn evaluate_rule(
        kb: &KnowledgeBase,
        proof: ProofLimits,
        rule: &Clause,
        examples: &Examples,
        live_pos: Option<&Bitset>,
        live_neg: Option<&Bitset>,
    ) -> Coverage {
        let prover = reference::Prover::new(kb, proof);
        let mut steps = 0u64;

        let mut eval_side = |lits: &[p2mdie_logic::clause::Literal], live: Option<&Bitset>| {
            let mut bits = Bitset::new(lits.len());
            for (i, ex) in lits.iter().enumerate() {
                if let Some(l) = live {
                    if !l.get(i) {
                        continue;
                    }
                }
                steps += 1; // head-match attempt
                let mut b = Bindings::with_capacity(rule.var_span() as usize);
                if !b.unify_literals(&rule.head, ex, false) {
                    continue;
                }
                let (ok, st) = prover.prove_with_bindings(&rule.body, b);
                steps += st.steps;
                if ok {
                    bits.set(i);
                }
            }
            bits
        };

        let pos = eval_side(&examples.pos, live_pos);
        let neg = eval_side(&examples.neg, live_neg);
        Coverage { pos, neg, steps }
    }

    /// Seed `search_rules`: every node evaluated on the full live set (no
    /// parent-coverage masks), through [`evaluate_rule`] above.
    pub fn search_rules(
        kb: &KnowledgeBase,
        settings: &Settings,
        bottom: &BottomClause,
        examples: &Examples,
        live_pos: Option<&Bitset>,
        seeds: &[RuleShape],
    ) -> SearchOutcome {
        let mut out = SearchOutcome::default();
        let mut queue: VecDeque<RuleShape> = VecDeque::new();
        let mut visited: HashSet<RuleShape> = HashSet::new();
        let mut seed_set: HashSet<&RuleShape> = HashSet::new();

        if seeds.is_empty() {
            queue.push_back(RuleShape::empty());
        } else {
            let mut queued: HashSet<&RuleShape> = HashSet::new();
            for s in seeds {
                seed_set.insert(s);
                if queued.insert(s) {
                    queue.push_back(s.clone());
                }
            }
        }

        while let Some(shape) = queue.pop_front() {
            if out.nodes >= settings.max_nodes {
                break;
            }
            if !visited.insert(shape.clone()) {
                continue;
            }
            let clause = shape.to_clause(bottom);
            let cov = evaluate_rule(kb, settings.proof, &clause, examples, live_pos, None);
            out.nodes += 1;
            out.steps += cov.steps;
            let (pos, neg) = (cov.pos_count(), cov.neg_count());

            if seed_set.contains(&shape) {
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
                    out.good.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
                    out.good.truncate(settings.good_cap);
                }
            }

            if pos < settings.min_pos {
                continue;
            }
            for succ in shape.successors(bottom, settings.max_body) {
                if !visited.contains(&succ) {
                    queue.push_back(succ);
                }
            }
        }

        out.good.sort_by(|a, b| a.rank_key().cmp(&b.rank_key()));
        out
    }
}

pub mod workloads {
    //! Shared benchmark worlds (used by the Criterion benches and the
    //! `bench_prover` gate binary).

    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::kb::KnowledgeBase;
    use p2mdie_logic::prover::{reference, ProofLimits, Prover};
    use p2mdie_logic::subst::Bindings;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// A `bond/4`-style world where the paper's datasets punish first-arg-only
    /// indexing: bond chains over globally-unique atom names, probed with the
    /// *second* argument bound and the molecule unbound ("which bonds leave
    /// this atom?"). The seed index has nothing to narrow on and scans every
    /// fact per query; the multi-argument join index touches ~1.
    pub fn bond_world() -> (SymbolTable, KnowledgeBase, Vec<Literal>) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let bond = t.intern("bond");
        for m in 0..200 {
            let mol = Term::Sym(t.intern(&format!("m{m}")));
            for k in 0..30 {
                let a = Term::Sym(t.intern(&format!("m{m}_a{k}")));
                let b = Term::Sym(t.intern(&format!("m{m}_a{}", k + 1)));
                kb.assert_fact(Literal::new(
                    bond,
                    vec![mol.clone(), a, b, Term::Int((k % 3) + 1)],
                ));
            }
        }
        kb.optimize();
        let queries = (0..100)
            .map(|i| {
                let m = (i * 37) % 200;
                let k = (i * 13) % 30;
                Literal::new(
                    bond,
                    vec![
                        Term::Var(0),
                        Term::Sym(t.intern(&format!("m{m}_a{k}"))),
                        Term::Var(1),
                        Term::Var(2),
                    ],
                )
            })
            .collect();
        (t, kb, queries)
    }

    /// Proof limits generous enough that every query enumerates to
    /// exhaustion (the retrieval cost, not the budget, dominates).
    pub fn bond_limits() -> ProofLimits {
        ProofLimits {
            max_depth: 4,
            max_steps: 10_000_000,
        }
    }

    /// Enumerates every solution of every query on the seed (first-arg-only)
    /// prover; returns the solution count as a checksum.
    pub fn run_bond_reference(kb: &KnowledgeBase, queries: &[Literal]) -> usize {
        let p = reference::Prover::new(kb, bond_limits());
        let mut n = 0usize;
        for q in queries {
            p.run(std::slice::from_ref(q), Bindings::new(), &mut |_| {
                n += 1;
                true
            });
        }
        n
    }

    /// The same enumeration on the compiled-KB prover (multi-arg indexes).
    pub fn run_bond_compiled(kb: &KnowledgeBase, queries: &[Literal]) -> usize {
        let p = Prover::new(kb, bond_limits());
        let mut scratch = Bindings::new();
        let mut n = 0usize;
        for q in queries {
            scratch.reset(0);
            p.run_reusing(std::slice::from_ref(q), &mut scratch, &mut |_| {
                n += 1;
                true
            });
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::legacy;
    use p2mdie_datasets::carcinogenesis;
    use p2mdie_ilp::coverage::evaluate_rule;
    use p2mdie_ilp::search::search_rules;

    /// The second-arg-bound workload must enumerate the same solutions on
    /// both provers — the benched ≥3x is pure retrieval, not semantics.
    #[test]
    fn bond_workload_counts_agree() {
        let (_t, kb, queries) = super::workloads::bond_world();
        let a = super::workloads::run_bond_reference(&kb, &queries);
        let b = super::workloads::run_bond_compiled(&kb, &queries);
        assert_eq!(a, b);
        assert!(a > 0, "queries must hit");
    }

    /// The legacy replicas and the optimized implementations must agree on
    /// coverage bits and search outcomes — this is what makes the benched
    /// speedup a like-for-like comparison.
    #[test]
    fn legacy_and_optimized_agree_on_carcinogenesis() {
        let d = carcinogenesis(0.08, 7);
        let bottom = d.engine.saturate(&d.examples.pos[0]).expect("saturates");
        let shapes = [
            p2mdie_ilp::refine::RuleShape::empty(),
            p2mdie_ilp::refine::RuleShape::from_indices(vec![0]),
        ];
        for shape in &shapes {
            let clause = shape.to_clause(&bottom);
            let old = legacy::evaluate_rule(
                &d.engine.kb,
                d.engine.settings.proof,
                &clause,
                &d.examples,
                None,
                None,
            );
            let new = evaluate_rule(
                &d.engine.kb,
                d.engine.settings.proof,
                &clause,
                &d.examples,
                None,
                None,
            );
            assert_eq!(old.pos, new.pos);
            assert_eq!(old.neg, new.neg);
            assert_eq!(old.steps, new.steps);
        }

        let old = legacy::search_rules(
            &d.engine.kb,
            &d.engine.settings,
            &bottom,
            &d.examples,
            None,
            &[],
        );
        let new = search_rules(
            &d.engine.kb,
            &d.engine.settings,
            &bottom,
            &d.examples,
            None,
            &[],
        );
        assert_eq!(old.good, new.good, "search outcomes diverged");
        assert_eq!(old.nodes, new.nodes);
        // `steps` intentionally differs: monotone pruning is the point.
        assert!(
            new.steps <= old.steps,
            "pruned search must not spend more fuel"
        );
    }
}
