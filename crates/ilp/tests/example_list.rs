//! The shared example list against the `Vec<Literal>` it stands in for.
//!
//! Over random literal lists: an [`Examples`] encodes byte for byte as the
//! pair of `Vec<Literal>`s it holds and decodes back to an equal set; a
//! clone shares both allocations, where a set rebuilt from the same
//! literals is equal without sharing; and a list prints as its `Vec` does.

use p2mdie_ilp::examples::{ExampleList, Examples};
use p2mdie_logic::clause::Literal;
use p2mdie_logic::symbol::{SymbolId, SymbolTable};
use p2mdie_logic::term::{Term, F64};
use p2mdie_logic::wire::{decode_exact, Wire};
use proptest::prelude::*;

fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Symbols of one table, so every literal names interned ids.
fn symbols() -> Vec<SymbolId> {
    let t = SymbolTable::new();
    ["p", "q", "a", "b", "f"].map(|s| t.intern(s)).to_vec()
}

fn arb_term(syms: Vec<SymbolId>) -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        (0u32..4).prop_map(Term::Var),
        proptest::sample::select(syms.clone()).prop_map(Term::Sym),
        (-50i64..50).prop_map(Term::Int),
        (-8i64..8).prop_map(|x| Term::Float(F64(x as f64 / 4.0))),
    ];
    leaf.prop_recursive(2, 8, 3, move |inner| {
        let f = proptest::sample::select(syms.clone());
        (f, proptest::collection::vec(inner, 1..3)).prop_map(|(f, args)| Term::app(f, args))
    })
}

fn arb_literals() -> BoxedStrategy<Vec<Literal>> {
    let syms = symbols();
    let pred = proptest::sample::select(syms.clone());
    let lit = (pred, proptest::collection::vec(arb_term(syms), 0..4))
        .prop_map(|(pred, args)| Literal::new(pred, args));
    proptest::collection::vec(lit, 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encodes_as_its_vecs_and_round_trips(pos in arb_literals(), neg in arb_literals()) {
        let examples = Examples::new(pos.clone(), neg.clone());
        let bytes = to_bytes(&examples);
        prop_assert_eq!(&bytes, &to_bytes(&(pos, neg)));
        prop_assert_eq!(
            &bytes,
            &to_bytes(&(examples.pos.to_vec(), examples.neg.to_vec()))
        );
        let back: Examples = decode_exact(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, &examples);
        let list: ExampleList = decode_exact(&to_bytes(&examples.pos))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&list, &examples.pos);
    }

    #[test]
    fn a_clone_shares_both_lists(pos in arb_literals(), neg in arb_literals()) {
        let examples = Examples::new(pos, neg);
        let clone = examples.clone();
        prop_assert!(clone.pos.shares(&examples.pos));
        prop_assert!(clone.neg.shares(&examples.neg));
        prop_assert!(std::ptr::eq(clone.pos.as_ptr(), examples.pos.as_ptr()));
        prop_assert!(std::ptr::eq(clone.neg.as_ptr(), examples.neg.as_ptr()));
        let rebuilt = Examples::new(examples.pos.to_vec(), examples.neg.to_vec());
        prop_assert_eq!(&rebuilt, &examples);
        if !examples.pos.is_empty() {
            prop_assert!(!rebuilt.pos.shares(&examples.pos));
        }
    }

    #[test]
    fn prints_as_its_vec(lits in arb_literals()) {
        let list = ExampleList::from(lits.clone());
        prop_assert_eq!(format!("{list:?}"), format!("{lits:?}"));
        prop_assert_eq!(format!("{list:#?}"), format!("{lits:#?}"));
        let collected: ExampleList = lits.iter().cloned().collect();
        prop_assert_eq!(format!("{collected:?}"), format!("{lits:?}"));
        prop_assert_eq!(collected, list);
    }
}
