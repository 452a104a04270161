//! Property tests pinning snapshot-loaded knowledge bases to freshly built
//! ones:
//!
//! 1. **Differential proving** — on the random worlds of `worlds/` and
//!    randomized queries/limits, a KB restored from
//!    `to_snapshot()`/`from_snapshot()` reports exactly what the freshly
//!    built KB and the oracle report, `(proved, steps, depth_cuts,
//!    aborted)` and the same solution list in the same order — whether
//!    restored into a fresh symbol table or into the shared one.
//! 2. **Index plans survive the round trip** — the restored KB's retrieval
//!    plans (tried set and reference candidate count) match the original's
//!    for every bound pattern, i.e. posting lists and columns really were
//!    adopted, not rebuilt differently.
//! 3. **Undone asserts leave no trace** — rules asserted after a
//!    `rule_mark()` and undone with `undo_rules` leave the snapshot and
//!    every proof as they were (what a resident rank does at a job's end).

mod oracle;
mod worlds;

use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::{ProofLimits, Prover};
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use proptest::prelude::*;
use worlds::{build_program, build_query, mol_term};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot-loaded KBs prove bit-identically to the freshly built KB.
    #[test]
    fn snapshot_loaded_kb_matches_fresh_kb(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..100),
        atms in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..50),
        vals in proptest::collection::vec(0i64..40, 0..16),
        queries in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 1..5)), 1..6),
        max_steps in 1u64..2500,
        max_depth in 0u32..6,
        recall in 0usize..8,
        seal in any::<bool>(),
    ) {
        let (t, prog) = build_program(&bonds, &atms, &vals);
        let mut kb = prog.to_kb();
        if seal {
            kb.optimize();
        }
        // Build the queries *before* snapshotting, so every query symbol is
        // part of the captured dictionary and ids agree across tables.
        let goals: Vec<Literal> = queries
            .iter()
            .map(|(pick, seeds)| build_query(&t, *pick, seeds))
            .collect();

        let snap = kb.to_snapshot();
        let loaded_fresh =
            KnowledgeBase::from_snapshot(snap.clone(), SymbolTable::new()).unwrap();
        let loaded_shared = KnowledgeBase::from_snapshot(snap, t.clone()).unwrap();

        let limits = ProofLimits { max_depth, max_steps };
        let oracle = prog.prover(limits);
        let provers = [
            Prover::new(&kb, limits),
            Prover::new(&loaded_fresh, limits),
            Prover::new(&loaded_shared, limits),
        ];
        for goal in &goals {
            let want_prove = oracle.prove_ground(goal);
            let want_sols = oracle.solutions(goal, recall);
            for (i, p) in provers.iter().enumerate() {
                prop_assert_eq!(
                    p.prove_ground(goal), want_prove,
                    "prove diverged (KB {}) on {:?}", i, goal
                );
                let got = p.solutions(goal, recall);
                prop_assert_eq!(
                    &got.0, &want_sols.0,
                    "solutions diverged (KB {}) on {:?}", i, goal
                );
                prop_assert_eq!(
                    got.1, want_sols.1,
                    "solution stats diverged (KB {}) on {:?}", i, goal
                );
            }
        }
    }

    /// Retrieval plans — tried sets and reference candidate counts — are
    /// identical after a snapshot round trip.
    #[test]
    fn snapshot_preserves_index_plans(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..150),
        patterns in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 4), 1..5),
        seal in any::<bool>(),
    ) {
        let (t, prog) = build_program(&bonds, &[], &[]);
        let mut kb = prog.to_kb();
        if seal {
            kb.optimize();
        }
        let key = Literal::new(t.intern("bond"), vec![Term::Int(0); 4]).key();
        // Materialize probe terms before the capture (shared dictionary).
        let bounds: Vec<Vec<Option<Term>>> = patterns
            .iter()
            .map(|pattern| {
                pattern
                    .iter()
                    .enumerate()
                    .map(|(p, &s)| match s % 3 {
                        0 => None,
                        _ => Some(match p {
                            0 if s % 7 == 6 => Term::Sym(t.intern("m6")),
                            0 => mol_term(&t, s),
                            3 => Term::Int((s % 5) as i64),
                            _ if s % 5 == 4 => {
                                Term::app(t.intern("at"), vec![Term::Int((s % 26) as i64)])
                            }
                            _ => Term::Sym(t.intern(&format!("a{}", s % 26))),
                        }),
                    })
                    .collect()
            })
            .collect();
        let loaded =
            KnowledgeBase::from_snapshot(kb.to_snapshot(), SymbolTable::new()).unwrap();
        // Snapshots always ship sealed CSR runs: even when the source KB
        // still carried a pending tail, the restored store must not.
        let pid = loaded.pred_id(key).expect("bond restored");
        for pos in 0..4 {
            let (_, _, _, pending) = loaded.posting_parts(pid, pos).expect("indexed position");
            prop_assert_eq!(pending, 0, "restored posting at pos {} not sealed", pos);
        }
        for bound in &bounds {
            prop_assert_eq!(
                loaded.plan_candidates(key, bound),
                kb.plan_candidates(key, bound),
                "plan diverged under {:?}", bound
            );
        }
    }

    /// Undoing a run of rule asserts leaves no trace: the KB snapshots as
    /// before, and every query proves with the same `(proved, steps,
    /// depth_cuts, aborted)`. The rules are built from symbols already
    /// interned; their heads and bodies range over the world's predicates
    /// and over predicates the KB has no entry for (a fresh name, or a
    /// known name at another arity).
    #[test]
    fn undone_rule_asserts_leave_no_trace(
        bonds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..60),
        vals in proptest::collection::vec(0i64..40, 0..8),
        rules in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 1..4)), 1..4),
            1..5,
        ),
        queries in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 1..5)), 1..6),
        max_steps in 1u64..2500,
        seal in any::<bool>(),
    ) {
        let (t, prog) = build_program(&bonds, &[], &vals);
        let mut kb = prog.to_kb();
        if seal {
            kb.optimize();
        }
        let ghost = t.intern("ghost");
        // A literal over a world predicate, renamed to `ghost` (no entry
        // at any arity) or to `val` at its own arity (an entry only at
        // arity 1) on some picks.
        let lit = |(pick, seeds): &(u8, Vec<u8>)| {
            let mut l = build_query(&t, *pick, seeds);
            match pick / 8 % 4 {
                1 => l.pred = ghost,
                2 if l.args.len() != 1 => l.pred = t.intern("val"),
                _ => {}
            }
            l
        };
        let rules: Vec<Clause> = rules
            .iter()
            .map(|lits| Clause::new(lit(&lits[0]), lits[1..].iter().map(lit).collect()))
            .collect();
        let goals: Vec<Literal> = queries
            .iter()
            .map(|(pick, seeds)| build_query(&t, *pick, seeds))
            .collect();
        let limits = ProofLimits { max_depth: 4, max_steps };
        let proofs = |kb: &KnowledgeBase| -> Vec<_> {
            let prover = Prover::new(kb, limits);
            goals.iter().map(|g| prover.prove_ground(g)).collect()
        };
        let (before, proved_before) = (kb.to_snapshot(), proofs(&kb));

        let mark = kb.rule_mark();
        for rule in rules {
            kb.assert_rule(rule);
        }
        kb.undo_rules(&mark);
        prop_assert_eq!(kb.to_snapshot(), before, "the snapshot moved");
        prop_assert_eq!(proofs(&kb), proved_before, "a proof moved");
    }
}

/// The column-native contract: restoring a snapshot materializes **no** row
/// literals — the loaded KB holds only columns plus irregular side rows, the
/// same bytes as the KB it was taken from — while still proving, planning,
/// and rebuilding rows identically. Late facts asserted *after* a restore
/// keep the store consistent too.
#[test]
fn restore_materializes_no_rows() {
    let (t, mut prog) = build_program(
        &[(1, 2, 3, 1), (1, 9, 4, 2), (2, 2, 9, 0), (5, 14, 19, 3)],
        &[(1, 2, 0), (2, 9, 1)],
        &[3, 12, 17],
    );
    let mut kb = prog.to_kb();
    kb.optimize();

    let restored =
        KnowledgeBase::from_snapshot(kb.to_snapshot(), SymbolTable::new()).expect("snapshot loads");
    assert_eq!(restored.num_facts(), kb.num_facts());
    assert_eq!(
        restored.fact_store_bytes(),
        kb.fact_store_bytes(),
        "snapshot restore must hold exactly the columns and irregular rows"
    );
    // The rebuilt rows equal the originals, relation by relation.
    for key in kb.predicates() {
        assert_eq!(kb.facts_for(key), restored.facts_for(key));
    }
    // And a late assert after restore stays consistent (indexes, plans,
    // proofs).
    let mut grown = restored.clone();
    let bond = t.intern("bond");
    let late = Literal::new(
        bond,
        vec![
            Term::Sym(t.intern("m1")),
            Term::Sym(t.intern("a2")),
            Term::Sym(t.intern("a7")),
            Term::Int(1),
        ],
    );
    grown.assert_fact(late.clone());
    prog.fact(late);
    let key = Literal::new(bond, vec![Term::Int(0); 4]).key();
    assert_eq!(grown.facts_for(key), prog.facts(key));
    let goal = Literal::new(
        bond,
        vec![
            Term::Var(0),
            Term::Sym(t.intern("a2")),
            Term::Var(1),
            Term::Var(2),
        ],
    );
    let limits = ProofLimits::default();
    let a = Prover::new(&grown, limits).solutions(&goal, 16);
    assert_eq!(a, prog.prover(limits).solutions(&goal, 16));
    // Seeds give bond(m1,a2,a3,_) and bond(m2,a2,at(9),_); the late assert
    // adds bond(m1,a2,a7,_): three bonds out of a2 in total.
    assert_eq!(
        a.0.len(),
        3,
        "all bonds from a2 are found, late fact included"
    );
}
