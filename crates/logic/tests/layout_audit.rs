//! Memory-layout audit: pins the data-movement contracts the deduction
//! kernels rely on. These are *representation* guarantees, not behavior —
//! a refactor can pass every differential test and still silently reopen
//! the cache-miss regressions this PR closed, so CI checks the layout
//! directly:
//!
//! 1. `TermId` is a bare `u32` (`#[repr(transparent)]`): column stripes
//!    are dense 4-byte cells that plan building and the prover's ground
//!    compare read directly.
//! 2. After [`KnowledgeBase::optimize`], a predicate's column stripes are
//!    exactly adjacent — one position-major allocation with no capacity
//!    slack between positions.
//! 3. Sealed CSR posting runs tile one contiguous index buffer: run `k`
//!    ends exactly where run `k + 1` begins, keys strictly sorted, no
//!    pending tail.

use p2mdie_logic::clause::Literal;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use p2mdie_logic::TermId;

/// A bond/4 table dense enough that every position has several posting
/// keys with multi-fact runs.
fn sample_kb() -> (SymbolTable, KnowledgeBase) {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    for i in 0..200u32 {
        kb.assert_fact(Literal::new(
            t.intern("bond"),
            vec![
                Term::Sym(t.intern(&format!("m{}", i % 7))),
                Term::Sym(t.intern(&format!("a{}", i % 23))),
                Term::Sym(t.intern(&format!("a{}", (i * 5) % 23))),
                Term::Int((i % 4) as i64),
            ],
        ));
    }
    (t, kb)
}

#[test]
fn term_id_is_a_bare_u32() {
    assert_eq!(std::mem::size_of::<TermId>(), 4, "TermId must stay 4 bytes");
    assert_eq!(
        std::mem::align_of::<TermId>(),
        4,
        "TermId must stay u32-aligned"
    );
    assert_eq!(
        std::mem::size_of::<[TermId; 16]>(),
        64,
        "TermId stripes must pack with no padding"
    );
}

#[test]
fn stripes_are_adjacent_after_optimize() {
    let (t, mut kb) = sample_kb();
    kb.optimize();
    let key = Literal::new(t.intern("bond"), vec![Term::Int(0); 4]).key();
    let pid = kb.pred_id(key).expect("bond entry");
    let cols = kb.fact_cols(pid);
    let n = cols.len() as usize;
    assert_eq!(n, 200);
    for pos in 0..cols.arity() - 1 {
        let cur = cols.stripe(pos);
        let next = cols.stripe(pos + 1);
        assert_eq!(cur.len(), n);
        assert_eq!(
            cur.as_ptr().wrapping_add(cur.len()),
            next.as_ptr(),
            "stripe {} not adjacent to stripe {}: optimize left capacity slack",
            pos + 1,
            pos
        );
    }
}

#[test]
fn csr_runs_tile_one_buffer() {
    let (t, mut kb) = sample_kb();
    kb.optimize();
    let key = Literal::new(t.intern("bond"), vec![Term::Int(0); 4]).key();
    let pid = kb.pred_id(key).expect("bond entry");
    for pos in 0..4 {
        let (keys, offs, idx, pending) = kb.posting_parts(pid, pos).expect("indexed position");
        assert_eq!(
            pending, 0,
            "optimize must seal the pending tail (pos {pos})"
        );
        assert_eq!(offs.len(), keys.len() + 1, "one run per key (pos {pos})");
        assert_eq!(
            offs.first(),
            Some(&0),
            "runs start at the buffer head (pos {pos})"
        );
        assert_eq!(
            *offs.last().unwrap() as usize,
            idx.len(),
            "runs must cover the whole index buffer (pos {pos})"
        );
        assert!(
            offs.windows(2).all(|w| w[0] <= w[1]),
            "run offsets must be non-decreasing (pos {pos})"
        );
        assert!(
            keys.windows(2).all(|w| w[0].index() < w[1].index()),
            "posting keys must be strictly sorted (pos {pos})"
        );
        assert_eq!(
            idx.len(),
            200,
            "every fact posts exactly once per position (pos {pos})"
        );
        for k in 0..keys.len() {
            let run = &idx[offs[k] as usize..offs[k + 1] as usize];
            assert!(
                run.windows(2).all(|w| w[0] < w[1]),
                "run {k} must be strictly ascending (pos {pos})"
            );
        }
    }
}
