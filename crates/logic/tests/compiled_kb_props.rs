//! Property tests pinning the compiled knowledge base to the seed
//! semantics:
//!
//! 1. **Differential proving** — on randomized programs (multi-argument
//!    facts, recursive rules, builtins) and randomized queries/limits, the
//!    compiled-KB prover reports exactly the oracle's
//!    `(proved, steps, depth_cuts, aborted)` and the same solution list —
//!    including when multi-argument join indexes narrow fact retrieval and
//!    the skipped candidates are bulk-charged.
//! 2. **Index vs. linear scan** — a retrieval plan's candidate set contains
//!    every fact a linear scan finds matching the bound pattern, and never
//!    exceeds the reference (first-argument) candidate set.

use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::{reference, ProofLimits, ProofStats, Prover};
use p2mdie_logic::subst::Bindings;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use proptest::prelude::*;

const ELEMS: [&str; 3] = ["c", "n", "o"];

/// Builds a molecule-flavored KB from raw byte seeds: `bond/4` and `atm/3`
/// fact tables (dense enough for posting collisions), a `val/1` numeric
/// table, a `wide/6` relation whose arity overflows [`MAX_INDEXED_ARGS`]
/// (columns exist for every position, posting lists only for the prefix),
/// a recursive `path/3` relation, and a builtin-using rule `big/1`.
fn build_kb(
    bonds: &[(u8, u8, u8, u8)],
    atms: &[(u8, u8, u8)],
    vals: &[i64],
) -> (SymbolTable, KnowledgeBase) {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let mol = |m: u8| Term::Sym(t.intern(&format!("m{}", m % 6)));
    // Every fifth atom is a ground *compound* (`at(N)`), exercising the
    // compound-keyed posting lists on both provers.
    let atom = |a: u8| {
        if a % 5 == 4 {
            Term::app(t.intern("at"), vec![Term::Int((a % 25) as i64)])
        } else {
            Term::Sym(t.intern(&format!("a{}", a % 25)))
        }
    };
    for &(m, a, b, ty) in bonds {
        kb.assert_fact(Literal::new(
            t.intern("bond"),
            vec![mol(m), atom(a), atom(b), Term::Int((ty % 4) as i64)],
        ));
    }
    for &(m, a, e) in atms {
        kb.assert_fact(Literal::new(
            t.intern("atm"),
            vec![
                mol(m),
                atom(a),
                Term::Sym(t.intern(ELEMS[(e % 3) as usize])),
            ],
        ));
    }
    for &v in vals {
        kb.assert_fact(Literal::new(t.intern("val"), vec![Term::Int(v % 20)]));
    }
    // wide/6 reuses the bond seeds: positions past MAX_INDEXED_ARGS get
    // columns (they unify column-natively) but no posting lists.
    for &(m, a, b, ty) in bonds {
        kb.assert_fact(Literal::new(
            t.intern("wide"),
            vec![
                mol(m),
                atom(a),
                atom(b),
                Term::Int((ty % 4) as i64),
                Term::Int((a % 7) as i64),
                Term::Sym(t.intern(ELEMS[(b % 3) as usize])),
            ],
        ));
    }
    // path(M,A,B) :- bond(M,A,B,T).
    // path(M,A,C) :- bond(M,A,B,T), path(M,B,C).
    let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
    kb.assert_rule(Clause::new(
        lit("path", vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
        vec![lit(
            "bond",
            vec![Term::Var(0), Term::Var(1), Term::Var(2), Term::Var(3)],
        )],
    ));
    kb.assert_rule(Clause::new(
        lit("path", vec![Term::Var(0), Term::Var(1), Term::Var(4)]),
        vec![
            lit(
                "bond",
                vec![Term::Var(0), Term::Var(1), Term::Var(2), Term::Var(3)],
            ),
            lit("path", vec![Term::Var(0), Term::Var(2), Term::Var(4)]),
        ],
    ));
    // big(X) :- val(X), X >= 10.
    kb.assert_rule(Clause::new(
        lit("big", vec![Term::Var(0)]),
        vec![
            lit("val", vec![Term::Var(0)]),
            lit(">=", vec![Term::Var(0), Term::Int(10)]),
        ],
    ));
    (t, kb)
}

/// An atom-position probe term matching `build_kb`'s pool shape: atomic
/// constants with every fifth a ground compound `at(N)`.
fn atom_term(t: &SymbolTable, s: u8) -> Term {
    if s % 5 == 4 {
        Term::app(t.intern("at"), vec![Term::Int((s % 25) as i64)])
    } else {
        Term::Sym(t.intern(&format!("a{}", s % 25)))
    }
}

/// Builds a query literal for one of the KB's predicates from raw seeds:
/// each argument becomes a (possibly shared) variable, an in-pool constant,
/// or an absent constant.
fn build_query(t: &SymbolTable, pred_pick: u8, seeds: &[u8]) -> Literal {
    let (name, arity) = match pred_pick % 6 {
        0 => ("bond", 4),
        1 => ("atm", 3),
        2 => ("val", 1),
        3 => ("path", 3),
        4 => ("wide", 6),
        _ => ("big", 1),
    };
    let mut args = Vec::with_capacity(arity);
    for p in 0..arity {
        let s = seeds[p % seeds.len()].wrapping_add(p as u8);
        let term = match s % 4 {
            // Shared variables exercise bound-by-earlier-goal paths.
            0 => Term::Var((s / 4 % 3) as u32),
            1 => match (name, p) {
                ("bond", 0) | ("atm", 0) | ("path", 0) | ("wide", 0) => {
                    Term::Sym(t.intern(&format!("m{}", s % 6)))
                }
                ("bond", 3) | ("wide", 3) | ("wide", 4) => Term::Int((s % 4) as i64),
                ("val", _) | ("big", _) => Term::Int((s % 20) as i64),
                ("atm", 2) | ("wide", 5) => Term::Sym(t.intern(ELEMS[(s % 3) as usize])),
                _ => atom_term(t, s),
            },
            2 => match (name, p) {
                ("val", _) | ("big", _) | ("bond", 3) | ("wide", 3) | ("wide", 4) => {
                    Term::Int((s % 25) as i64)
                }
                _ => atom_term(t, s),
            },
            // A constant no fact mentions.
            _ => Term::Sym(t.intern("zz_absent")),
        };
        args.push(term);
    }
    Literal::new(t.intern(name), args)
}

/// The oracle's version of [`Prover::solutions`] (same dedup + recall cut).
fn ref_solutions(
    kb: &KnowledgeBase,
    limits: ProofLimits,
    goal: &Literal,
    max: usize,
) -> (Vec<Literal>, ProofStats) {
    let mut out: Vec<Literal> = Vec::new();
    if max == 0 {
        return (out, ProofStats::default());
    }
    let mut seen = std::collections::HashSet::new();
    let p = reference::Prover::new(kb, limits);
    let stats = p.run(std::slice::from_ref(goal), Bindings::new(), &mut |b| {
        let inst = b.resolve_literal(goal);
        if seen.insert(inst.clone()) {
            out.push(inst);
        }
        out.len() < max
    });
    (out, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled-KB proving is bit-identical to `prover::reference` on
    /// randomized programs, queries, and resource limits.
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
        let (t, kb) = build_kb(&bonds, &atms, &vals);
        let limits = ProofLimits { max_depth, max_steps };
        let new = Prover::new(&kb, limits);
        let old = reference::Prover::new(&kb, limits);
        for (pick, seeds) in &queries {
            let goal = build_query(&t, *pick, seeds);
            let a = new.prove_ground(&goal);
            let b = old.prove_ground(&goal);
            prop_assert_eq!(a, b, "prove diverged on {:?}", goal);
            let (sols_new, st_new) = new.solutions(&goal, recall);
            let (sols_old, st_old) = ref_solutions(&kb, limits, &goal, recall);
            prop_assert_eq!(&sols_new, &sols_old, "solutions diverged on {:?}", goal);
            prop_assert_eq!(st_new, st_old, "solution stats diverged on {:?}", goal);
        }
    }

    /// Indexed retrieval returns every fact a linear scan matches under the
    /// bound pattern, within the reference candidate budget.
    #[test]
    fn indexed_retrieval_matches_linear_scan(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..200),
        pattern in proptest::collection::vec(any::<u8>(), 4),
    ) {
        let (t, kb) = build_kb(&bonds, &[], &[]);
        let key = Literal::new(t.intern("bond"), vec![Term::Int(0); 4]).key();
        let bound: Vec<Option<Term>> = pattern
            .iter()
            .enumerate()
            .map(|(p, &s)| match s % 3 {
                0 => None,
                _ => Some(match p {
                    0 => Term::Sym(t.intern(&format!("m{}", s % 7))), // incl. absent m6
                    3 => Term::Int((s % 5) as i64),                   // incl. absent type 4
                    _ if s % 7 == 6 => {
                        // Ground compound probes (incl. absent instances).
                        Term::app(t.intern("at"), vec![Term::Int((s % 26) as i64)])
                    }
                    _ => Term::Sym(t.intern(&format!("a{}", s % 26))),
                }),
            })
            .collect();
        let (tried, total) = kb.plan_candidates(key, &bound);
        let facts = kb.facts_for(key);
        // Linear scan: which facts match every bound position?
        for (i, fact) in facts.iter().enumerate() {
            let matches = bound
                .iter()
                .zip(fact.args.iter())
                .all(|(b, a)| b.as_ref().is_none_or(|c| c == a));
            if matches {
                prop_assert!(
                    tried.contains(&(i as u32)),
                    "plan missed matching fact {} under {:?}", i, bound
                );
            }
        }
        prop_assert!(tried.len() as u64 <= total, "plan larger than reference set");
        // The reference budget itself: first-arg candidates or the scan.
        let ref_count = kb.candidate_facts(key, bound[0].as_ref()).count() as u64;
        prop_assert_eq!(total, ref_count, "reference step budget drifted");
    }

    /// Late fact arrival after mode-driven pruning (`retain_indexes`) and
    /// `optimize` must leave plans, candidate sets, and the prover's step
    /// accounting bit-identical to the seed model — and identical to the
    /// "prune before loading anything" construction order (the regression:
    /// a late assert re-creating a pruned posting or drifting `unindexed`
    /// would silently change plans, steps, or worse, results).
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
        let bond = t.intern("bond");
        let key = Literal::new(bond, vec![Term::Int(0); 4]).key();
        let fact = |&(m, a, b, ty): &(u8, u8, u8, u8)| -> Literal {
            Literal::new(
                bond,
                vec![
                    Term::Sym(t.intern(&format!("m{}", m % 6))),
                    atom_term(&t, a),
                    atom_term(&t, b),
                    Term::Int((ty % 4) as i64),
                ],
            )
        };
        let add_rules = |kb: &mut KnowledgeBase| {
            let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
            kb.assert_rule(Clause::new(
                lit("path", vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
                vec![lit("bond", vec![Term::Var(0), Term::Var(1), Term::Var(2), Term::Var(3)])],
            ));
            kb.assert_rule(Clause::new(
                lit("path", vec![Term::Var(0), Term::Var(1), Term::Var(4)]),
                vec![
                    lit("bond", vec![Term::Var(0), Term::Var(1), Term::Var(2), Term::Var(3)]),
                    lit("path", vec![Term::Var(0), Term::Var(2), Term::Var(4)]),
                ],
            ));
        };

        // KB A: prune first, then load everything. KB B: load a prefix,
        // prune + optimize mid-stream, then append the rest late.
        let mut a = KnowledgeBase::new(t.clone());
        add_rules(&mut a);
        a.retain_indexes(key, keep);
        for f in &bonds {
            a.assert_fact(fact(f));
        }
        let cut = split as usize % (bonds.len() + 1);
        let mut b = KnowledgeBase::new(t.clone());
        add_rules(&mut b);
        for f in &bonds[..cut] {
            b.assert_fact(fact(f));
        }
        b.retain_indexes(key, keep);
        b.optimize();
        for f in &bonds[cut..] {
            b.assert_fact(fact(f));
        }
        prop_assert_eq!(a.num_facts(), b.num_facts());

        let limits = ProofLimits { max_depth: 4, max_steps };
        for (pick, seeds) in &queries {
            // bond- or path-shaped goals over the shared table.
            let goal = build_query(&t, (pick % 2) * 3, seeds);
            // Seed model: the optimized prover on the late-assert KB agrees
            // with the reference prover on that same KB...
            let new_b = Prover::new(&b, limits).prove_ground(&goal);
            let ref_b = reference::Prover::new(&b, limits).prove_ground(&goal);
            prop_assert_eq!(new_b, ref_b, "late-assert KB diverged from seed on {:?}", goal);
            // ...and the two construction orders agree with each other.
            let new_a = Prover::new(&a, limits).prove_ground(&goal);
            prop_assert_eq!(new_a, new_b, "construction order changed results on {:?}", goal);
        }
        // Plans and candidate sets, position by position.
        for pos in 0..4usize {
            for &(m, a_, b_, ty) in bonds.iter().take(8) {
                let mut bound: Vec<Option<Term>> = vec![None; 4];
                bound[pos] = Some(match pos {
                    0 => Term::Sym(t.intern(&format!("m{}", m % 6))),
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
    /// step accounting — exactly like the sealed one and like
    /// `prover::reference`.
    #[test]
    fn csr_postings_match_naive_hashmap(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..300),
        queries in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 1..5)), 1..5),
        max_steps in 1u64..2000,
    ) {
        let (t, unsealed) = build_kb(&bonds, &[], &[]);
        let (_, mut sealed) = build_kb(&bonds, &[], &[]);
        sealed.optimize();
        let key = Literal::new(t.intern("bond"), vec![Term::Int(0); 4]).key();
        let pid = sealed.pred_id(key).unwrap();
        let facts = sealed.facts_for(key);

        for pos in 0..4usize {
            // The hashmap reference the CSR layout replaced: key -> sorted
            // ascending fact indices.
            let mut naive: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            for (i, f) in facts.iter().enumerate() {
                let tid = sealed.arena().lookup(&f.args[pos]).expect("ground fact arg interned");
                naive.entry(tid.index() as u32).or_default().push(i as u32);
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
            // Unsealed: merged runs plus the pending tail cover every fact
            // exactly once.
            let (_, _, uidx, upending) = unsealed.posting_parts(pid, pos).expect("indexed pos");
            prop_assert_eq!(uidx.len() + upending, facts.len(), "unsealed postings lost facts");
        }

        // Query-level: pending-splice retrieval answers exactly like the
        // sealed CSR and like the seed reference on both stores.
        let limits = ProofLimits { max_depth: 4, max_steps };
        let pu = Prover::new(&unsealed, limits);
        let ps = Prover::new(&sealed, limits);
        for (pick, seeds) in &queries {
            let goal = build_query(&t, (pick % 2) * 3, seeds); // bond or path
            let u = pu.solutions(&goal, 6);
            let s = ps.solutions(&goal, 6);
            prop_assert_eq!(&u, &s, "sealed vs unsealed diverged on {:?}", goal);
            let r = ref_solutions(&unsealed, limits, &goal, 6);
            prop_assert_eq!(&u, &r, "unsealed CSR diverged from reference on {:?}", goal);
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
        let bond = t.intern("bond");
        let key = Literal::new(bond, vec![Term::Int(0); 4]).key();
        let rows: Vec<Literal> = bonds
            .iter()
            .map(|&(m, a, b, ty)| {
                // Every eleventh row is irregular (keeps a variable arg).
                let second = if m % 11 == 10 {
                    Term::Var(0)
                } else {
                    atom_term(&t, a)
                };
                Literal::new(
                    bond,
                    vec![
                        Term::Sym(t.intern(&format!("m{}", m % 6))),
                        second,
                        atom_term(&t, b),
                        Term::Int((ty % 4) as i64),
                    ],
                )
            })
            .collect();
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
