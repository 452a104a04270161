//! Property tests pinning the compiled knowledge base to the reference
//! prover of `oracle/` (a naive prover over the asserted rows):
//!
//! 1. **Differential proving** — on randomized programs (multi-argument
//!    facts, irregular rows, arity-0 facts, ground compound first
//!    arguments, recursive rules, builtins, first arguments bound through
//!    chains of variables) and randomized queries/limits, the compiled-KB
//!    prover reports exactly the oracle's
//!    `(proved, steps, depth_cuts, aborted)` and the same solution list —
//!    including when multi-argument join indexes narrow fact retrieval and
//!    the skipped candidates are bulk-charged.
//! 2. **Index vs. linear scan** — a retrieval plan tries exactly the rows
//!    of the reference walk R that a linear scan finds matching the bound
//!    pattern, in R's order, and reports R's size.

mod oracle;
mod worlds;

use oracle::{PlainProgram, Subst};
use p2mdie_logic::clause::Literal;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::{ProofLimits, Prover};
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use proptest::prelude::*;
use worlds::{atom_term, bond_row, build_program, build_query, mol_term, path_rules};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled-KB proving is bit-identical to the oracle on randomized
    /// programs, queries, and resource limits.
    #[test]
    fn compiled_prover_matches_reference(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
        atms in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..60),
        vals in proptest::collection::vec(0i64..40, 0..20),
        queries in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 1..5)), 1..6),
        max_steps in 1u64..3000,
        max_depth in 0u32..6,
        recall in 0usize..8,
    ) {
        let (t, prog) = build_program(&bonds, &atms, &vals);
        let kb = prog.to_kb();
        let limits = ProofLimits { max_depth, max_steps };
        let new = Prover::new(&kb, limits);
        let old = prog.prover(limits);
        for (pick, seeds) in &queries {
            let goal = build_query(&t, *pick, seeds);
            let a = new.prove_ground(&goal);
            let b = old.prove_ground(&goal);
            prop_assert_eq!(a, b, "prove diverged on {:?}", goal);
            let (sols_new, st_new) = new.solutions(&goal, recall);
            let (sols_old, st_old) = old.solutions(&goal, recall);
            prop_assert_eq!(&sols_new, &sols_old, "solutions diverged on {:?}", goal);
            prop_assert_eq!(st_new, st_old, "solution stats diverged on {:?}", goal);
        }
    }

    /// Indexed retrieval tries exactly the rows of R a linear scan matches
    /// under the bound pattern, in R's order, and reports R's size.
    #[test]
    fn indexed_retrieval_matches_linear_scan(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..200),
        pattern in proptest::collection::vec(any::<u8>(), 4),
    ) {
        let (t, prog) = build_program(&bonds, &[], &[]);
        let kb = prog.to_kb();
        let bound: Vec<Option<Term>> = pattern
            .iter()
            .enumerate()
            .map(|(p, &s)| match s % 3 {
                0 => None,
                _ => Some(match p {
                    0 if s % 7 == 6 => Term::Sym(t.intern("m6")), // absent
                    0 => mol_term(&t, s),
                    3 => Term::Int((s % 5) as i64),                   // incl. absent type 4
                    _ if s % 7 == 6 => {
                        // Ground compound probes (incl. absent instances).
                        Term::app(t.intern("at"), vec![Term::Int((s % 26) as i64)])
                    }
                    _ => Term::Sym(t.intern(&format!("a{}", s % 26))),
                }),
            })
            .collect();
        let goal = Literal::new(
            t.intern("bond"),
            bound
                .iter()
                .enumerate()
                .map(|(p, b)| b.clone().unwrap_or(Term::Var(p as u32)))
                .collect(),
        );
        let (tried, total) = kb.plan_candidates(goal.key(), &bound);
        let facts = prog.facts(goal.key());
        // Linear scan: which facts match every bound position? A fact's
        // non-ground argument matches anything.
        let matches = |fact: &Literal| {
            bound
                .iter()
                .zip(fact.args.iter())
                .all(|(b, a)| b.as_ref().is_none_or(|c| c == a || !a.is_ground()))
        };
        for (i, fact) in facts.iter().enumerate() {
            if matches(fact) {
                prop_assert!(
                    tried.contains(&(i as u32)),
                    "plan missed matching fact {} under {:?}", i, bound
                );
            }
        }
        // And nothing else: exactly R's matching rows, in R's order.
        let walk = prog.reference_walk(&goal, &Subst::new());
        let exact: Vec<u32> = walk
            .iter()
            .filter(|&&row| matches(&facts[row]))
            .map(|&row| row as u32)
            .collect();
        prop_assert_eq!(&tried, &exact, "plan tries other rows than R's matching ones under {:?}", bound);
        // The reference budget itself: R's size.
        prop_assert_eq!(total, walk.len() as u64, "reference step budget drifted");
    }

    /// Late fact arrival after mode-driven pruning (`retain_indexes`) and
    /// `optimize` must leave plans, candidate sets, and the prover's step
    /// accounting identical to the oracle's — and identical to the "prune
    /// before loading anything" construction order (the regression: a late
    /// assert re-creating a pruned posting or drifting `unindexed` would
    /// silently change plans, steps, or worse, results).
    #[test]
    fn late_asserts_after_pruning_stay_bit_identical(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 2..150),
        split in any::<u8>(),
        keep2 in any::<bool>(),
        queries in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 1..5)), 1..5),
        max_steps in 1u64..3000,
    ) {
        let keep: &[usize] = if keep2 { &[2] } else { &[] };
        // One shared symbol table keeps literals comparable across the two
        // construction orders.
        let t = SymbolTable::new();
        let rows: Vec<Literal> = bonds.iter().map(|b| bond_row(&t, b)).collect();
        let key = rows[0].key();
        let mut prog = PlainProgram::new(&t);
        for r in &rows {
            prog.fact(r.clone());
        }
        path_rules(&t, &mut prog);
        let mut rules = PlainProgram::new(&t);
        path_rules(&t, &mut rules);

        // KB A: prune first, then load everything. KB B: load a prefix,
        // prune + optimize mid-stream, then append the rest late.
        let mut a = rules.to_kb();
        a.retain_indexes(key, keep);
        for r in &rows {
            a.assert_fact(r.clone());
        }
        let cut = split as usize % (rows.len() + 1);
        let mut b = rules.to_kb();
        for r in &rows[..cut] {
            b.assert_fact(r.clone());
        }
        b.retain_indexes(key, keep);
        b.optimize();
        for r in &rows[cut..] {
            b.assert_fact(r.clone());
        }
        prop_assert_eq!(a.num_facts(), b.num_facts());

        let limits = ProofLimits { max_depth: 4, max_steps };
        for (pick, seeds) in &queries {
            // bond- or path-shaped goals over the shared table.
            let goal = build_query(&t, (pick % 2) * 3, seeds);
            // The optimized prover on the late-assert KB agrees with the
            // oracle on the same rows...
            let new_b = Prover::new(&b, limits).prove_ground(&goal);
            let ref_b = prog.prover(limits).prove_ground(&goal);
            prop_assert_eq!(new_b, ref_b, "late-assert KB diverged from the oracle on {:?}", goal);
            // ...and the two construction orders agree with each other.
            let new_a = Prover::new(&a, limits).prove_ground(&goal);
            prop_assert_eq!(new_a, new_b, "construction order changed results on {:?}", goal);
        }
        // Plans and candidate sets, position by position.
        for pos in 0..4usize {
            for &(m, a_, b_, ty) in bonds.iter().take(8) {
                let mut bound: Vec<Option<Term>> = vec![None; 4];
                bound[pos] = Some(match pos {
                    0 => mol_term(&t, m),
                    3 => Term::Int((ty % 4) as i64),
                    1 => atom_term(&t, a_),
                    _ => atom_term(&t, b_),
                });
                prop_assert_eq!(
                    a.plan_candidates(key, &bound),
                    b.plan_candidates(key, &bound),
                    "plans diverged at pos {} for {:?}", pos, bound
                );
            }
        }
    }

    /// The CSR posting store is bit-identical to the retired
    /// `FxHashMap<TermId, Vec<u32>>` layout it replaced: after `optimize`
    /// seals the pending tail, every per-key run equals the hashmap a
    /// naive rebuild produces, keys are strictly sorted, and the unsealed
    /// (pending-splice) store answers every query — plans, solutions, and
    /// step accounting — exactly like the sealed one and like the oracle.
    #[test]
    fn csr_postings_match_naive_hashmap(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..300),
        queries in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 1..5)), 1..5),
        max_steps in 1u64..2000,
    ) {
        let (t, prog) = build_program(&bonds, &[], &[]);
        let unsealed = prog.to_kb();
        let mut sealed = prog.to_kb();
        sealed.optimize();
        let key = Literal::new(t.intern("bond"), vec![Term::Int(0); 4]).key();
        let pid = sealed.pred_id(key).unwrap();
        let facts = prog.facts(key);

        for pos in 0..4usize {
            // The hashmap reference the CSR layout replaced: key -> sorted
            // ascending fact indices, over the rows ground at `pos`.
            let mut naive: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            let mut open = 0;
            for (i, f) in facts.iter().enumerate() {
                match sealed.arena().lookup(&f.args[pos]) {
                    Some(tid) => naive.entry(tid.index() as u32).or_default().push(i as u32),
                    None => open += 1,
                }
            }
            let (keys, offs, idx, pending) = sealed.posting_parts(pid, pos).expect("indexed pos");
            prop_assert_eq!(pending, 0, "optimize left a pending tail at pos {}", pos);
            prop_assert_eq!(keys.len(), naive.len(), "key count drifted at pos {}", pos);
            prop_assert!(
                keys.windows(2).all(|w| w[0].index() < w[1].index()),
                "CSR keys not strictly sorted at pos {}", pos
            );
            for (k, (tid, run)) in naive.iter().enumerate() {
                prop_assert_eq!(keys[k].index() as u32, *tid, "key order drifted at pos {}", pos);
                let got = &idx[offs[k] as usize..offs[k + 1] as usize];
                prop_assert_eq!(got, run.as_slice(), "run for key {} drifted at pos {}", tid, pos);
            }
            // Unsealed: merged runs plus the pending tail cover every
            // ground row exactly once.
            let (_, _, uidx, upending) = unsealed.posting_parts(pid, pos).expect("indexed pos");
            prop_assert_eq!(uidx.len() + upending + open, facts.len(), "unsealed postings lost facts");
        }

        // Query-level: pending-splice retrieval answers exactly like the
        // sealed CSR and like the oracle.
        let limits = ProofLimits { max_depth: 4, max_steps };
        let pu = Prover::new(&unsealed, limits);
        let ps = Prover::new(&sealed, limits);
        for (pick, seeds) in &queries {
            let goal = build_query(&t, (pick % 2) * 3, seeds); // bond or path
            let u = pu.solutions(&goal, 6);
            let s = ps.solutions(&goal, 6);
            prop_assert_eq!(&u, &s, "sealed vs unsealed diverged on {:?}", goal);
            let r = prog.prover(limits).solutions(&goal, 6);
            prop_assert_eq!(&u, &r, "unsealed CSR diverged from the oracle on {:?}", goal);
        }
    }

    /// The columnar stripe store *is* the fact store: `facts_for`
    /// round-trips every asserted literal (including irregular non-ground
    /// rows) verbatim and in assertion order, before and after `optimize`
    /// compacts the stripes, and every ground fact stays provable.
    #[test]
    fn stripes_match_row_oracle(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..200),
    ) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let rows: Vec<Literal> = bonds.iter().map(|b| bond_row(&t, b)).collect();
        let key = rows[0].key();
        for r in &rows {
            kb.assert_fact(r.clone());
        }
        prop_assert_eq!(&kb.facts_for(key), &rows, "stripe store dropped or reordered rows");
        kb.optimize();
        prop_assert_eq!(&kb.facts_for(key), &rows, "stripe compaction changed rows");
        let prover = Prover::new(&kb, ProofLimits { max_depth: 2, max_steps: 100_000 });
        for r in rows.iter().filter(|r| r.is_ground()).take(16) {
            prop_assert!(prover.prove_ground(r).0, "ground fact {:?} unprovable", r);
        }
    }
}
