//! Property: pretty-printing a clause and parsing it back yields an
//! α-equivalent clause (display/parse round-trip) — builtin literals and
//! arithmetic terms included, with operators nested in every precedence
//! combination and operator names used as plain functors.

use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::parser::Parser;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::{Term, F64};
use proptest::prelude::*;

/// Every name the generator uses, interned in this order into each table
/// so that a clause's symbol ids mean the same names in both.
const NAMES: [&str; 22] = [
    "p", "qq", "a", "b", "cde", "x1", "f", "+", "-", "*", "/", "mod", "is", "<", "=<", ">", ">=",
    "=:=", "=\\=", "=", "\\=", "Odd name",
];

const CONSTS: [&str; 6] = ["a", "b", "cde", "x1", "mod", "Odd name"];
const ARITH: [&str; 5] = ["+", "-", "*", "/", "mod"];
const BUILTINS: [&str; 9] = ["is", "<", "=<", ">", ">=", "=:=", "=\\=", "=", "\\="];

fn table() -> SymbolTable {
    let t = SymbolTable::new();
    for n in NAMES {
        t.intern(n);
    }
    t
}

fn arb_term(t: &SymbolTable) -> BoxedStrategy<Term> {
    let consts: Vec<Term> = CONSTS.iter().map(|n| Term::Sym(t.intern(n))).collect();
    let f = t.intern("f");
    let minus = t.intern("-");
    let arith: Vec<_> = ARITH.iter().map(|n| t.intern(n)).collect();
    // Operator names at any arity: a comparison or `is` as a term, `*` and
    // `-` with one, two or three arguments.
    let odd: Vec<_> = ["<", "*", "-", "is"].iter().map(|n| t.intern(n)).collect();
    let leaf = prop_oneof![
        (0u32..5).prop_map(Term::Var),
        proptest::sample::select(consts),
        (-99i64..99).prop_map(Term::Int),
        // Floats chosen to print exactly (avoid 0.1 + parse mismatch).
        (-8i32..8).prop_map(|i| Term::Float(F64(i as f64 * 0.5))),
    ];
    leaf.prop_recursive(3, 24, 3, move |inner| {
        let arith = arith.clone();
        let odd = odd.clone();
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(move |args| Term::app(f, args)),
            (
                proptest::sample::select(arith),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Term::app(op, vec![l, r])),
            inner.clone().prop_map(move |x| Term::app(minus, vec![x])),
            (
                proptest::sample::select(odd),
                proptest::collection::vec(inner, 1..4)
            )
                .prop_map(|(op, args)| Term::app(op, args)),
        ]
    })
    .boxed()
}

fn arb_clause(t: &SymbolTable) -> impl Strategy<Value = Clause> {
    let p = t.intern("p");
    let q = t.intern("qq");
    let builtins: Vec<_> = BUILTINS.iter().map(|n| t.intern(n)).collect();
    let term = arb_term(t);
    let lit = prop_oneof![
        term.clone().prop_map(move |a| Literal::new(p, vec![a])),
        (term.clone(), term.clone()).prop_map(move |(a, b)| Literal::new(q, vec![a, b])),
    ];
    let body_lit = prop_oneof![
        lit.clone(),
        (proptest::sample::select(builtins), term.clone(), term)
            .prop_map(|(op, a, b)| Literal::new(op, vec![a, b])),
    ];
    (lit, proptest::collection::vec(body_lit, 0..4)).prop_map(|(h, b)| Clause::new(h, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn display_then_parse_is_alpha_identity(c in arb_clause(&table())) {
        let t = table();
        let text = format!("{}", c.display(&t));
        let parsed = Parser::new(&t, &text)
            .and_then(|mut p| p.parse_clause())
            .map_err(|e| TestCaseError::fail(format!("{e} in: {text}")))?;
        prop_assert_eq!(parsed.normalize(), c.normalize(), "text was: {}", text);
    }
}
