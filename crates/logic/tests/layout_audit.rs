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
//! 4. The key directory a sealed posting probes through costs at most half
//!    a `u32` entry — 2 bytes — per key, tiles the key array, and is absent
//!    from postings of 64 keys or fewer.

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

/// The directory's size bound, on the sample table (7, 23, 23 and 4 keys
/// per position: none gets a directory) and on a relation shaped like the
/// mesh KB's — one key per fact at the first position, thousands of them,
/// ids interleaved with the other positions' as the arena hands them out.
#[test]
fn key_directories_cost_two_bytes_a_key_at_most() {
    let (t, mut kb) = sample_kb();
    for e in 0..2840u32 {
        kb.assert_fact(Literal::new(
            t.intern("edge"),
            vec![
                Term::Sym(t.intern(&format!("e{e}"))),
                Term::Sym(t.intern(&format!("n{}", e % 900))),
                Term::Int((e % 13) as i64),
            ],
        ));
    }
    kb.optimize();
    let mut with_directory = 0;
    for (name, arity) in [("bond", 4), ("edge", 3)] {
        let key = Literal::new(t.intern(name), vec![Term::Int(0); arity]).key();
        let pid = kb.pred_id(key).expect("asserted above");
        for pos in 0..arity {
            let (keys, ..) = kb.posting_parts(pid, pos).expect("indexed position");
            let dir = kb.posting_directory(pid, pos).expect("indexed position");
            if keys.len() <= 64 {
                assert!(dir.is_empty(), "{name}/{pos}: {} keys", keys.len());
                continue;
            }
            with_directory += 1;
            assert!(
                std::mem::size_of_val(dir) <= 2 * keys.len(),
                "{name}/{pos}: {} entries over {} keys",
                dir.len(),
                keys.len()
            );
            assert_eq!(
                dir.first(),
                Some(&0),
                "{name}/{pos}: buckets start at key 0"
            );
            assert_eq!(
                dir.last().map(|&end| end as usize),
                Some(keys.len()),
                "{name}/{pos}: buckets cover every key"
            );
            assert!(dir.windows(2).all(|w| w[0] <= w[1]), "{name}/{pos}");
        }
    }
    assert_eq!(with_directory, 2, "edge/0 (2 840 keys) and edge/1 (900)");
}
