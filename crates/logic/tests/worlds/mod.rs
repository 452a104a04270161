//! The random worlds of the differential suites (`compiled_kb_props.rs`,
//! `snapshot_props.rs`): molecule-flavored programs built from raw byte
//! seeds, with every case the reference walk R defines — posting hits,
//! irregular rows (a variable at position 0 among them), arity-0 facts,
//! ground compound first arguments, and a first argument bound through a
//! chain of variables — and queries over them.
#![allow(dead_code)]

use crate::oracle::PlainProgram;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;

const ELEMS: [&str; 3] = ["c", "n", "o"];

/// A molecule term: `m0`..`m4`, and the ground compound `grp(5)` in place
/// of `m5`, so first arguments are sometimes compounds.
pub fn mol_term(t: &SymbolTable, m: u8) -> Term {
    match m % 6 {
        5 => Term::app(t.intern("grp"), vec![Term::Int(5)]),
        k => Term::Sym(t.intern(&format!("m{k}"))),
    }
}

/// An atom-position term: atomic constants with every fifth a ground
/// compound `at(N)`.
pub fn atom_term(t: &SymbolTable, s: u8) -> Term {
    if s % 5 == 4 {
        Term::app(t.intern("at"), vec![Term::Int((s % 25) as i64)])
    } else {
        Term::Sym(t.intern(&format!("a{}", s % 25)))
    }
}

/// A `bond/4` row from raw seeds. Every eleventh row keeps a variable in
/// its second argument, and every thirteenth in its first — the irregular
/// rows R enumerates after the posting hits.
pub fn bond_row(t: &SymbolTable, &(m, a, b, ty): &(u8, u8, u8, u8)) -> Literal {
    let first = if m % 13 == 12 {
        Term::Var(7)
    } else {
        mol_term(t, m)
    };
    let second = if m % 11 == 10 {
        Term::Var(8)
    } else {
        atom_term(t, a)
    };
    Literal::new(
        t.intern("bond"),
        vec![first, second, atom_term(t, b), Term::Int((ty % 4) as i64)],
    )
}

/// `path/3` over `bond/4`: one base clause, one recursive.
pub fn path_rules(t: &SymbolTable, prog: &mut PlainProgram) {
    let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
    let v = Term::Var;
    // path(M,A,B) :- bond(M,A,B,T).
    prog.rule(Clause::new(
        lit("path", vec![v(0), v(1), v(2)]),
        vec![lit("bond", vec![v(0), v(1), v(2), v(3)])],
    ));
    // path(M,A,C) :- bond(M,A,B,T), path(M,B,C).
    prog.rule(Clause::new(
        lit("path", vec![v(0), v(1), v(4)]),
        vec![
            lit("bond", vec![v(0), v(1), v(2), v(3)]),
            lit("path", vec![v(0), v(2), v(4)]),
        ],
    ));
}

/// A molecule-flavored program from raw byte seeds: `bond/4` and `atm/3`
/// fact tables (dense enough for posting collisions), a `val/1` numeric
/// table, a `wide/6` relation whose arity overflows `MAX_INDEXED_ARGS`
/// (columns exist for every position, posting lists only for the prefix),
/// arity-0 `flag` facts, a recursive `path/3` relation, a builtin-using
/// rule `big/1`, and `hop/2`, whose `bond` goal finds its first argument
/// at the end of a chain of two variable links.
pub fn build_program(
    bonds: &[(u8, u8, u8, u8)],
    atms: &[(u8, u8, u8)],
    vals: &[i64],
) -> (SymbolTable, PlainProgram) {
    let t = SymbolTable::new();
    let mut prog = PlainProgram::new(&t);
    for b in bonds {
        prog.fact(bond_row(&t, b));
    }
    for &(m, a, e) in atms {
        prog.fact(Literal::new(
            t.intern("atm"),
            vec![
                mol_term(&t, m),
                atom_term(&t, a),
                Term::Sym(t.intern(ELEMS[(e % 3) as usize])),
            ],
        ));
    }
    for &v in vals {
        prog.fact(Literal::new(t.intern("val"), vec![Term::Int(v % 20)]));
    }
    for _ in 0..vals.len() % 3 {
        prog.fact(Literal::new(t.intern("flag"), vec![]));
    }
    // wide/6 reuses the bond seeds: positions past MAX_INDEXED_ARGS get
    // columns (they unify column-natively) but no posting lists.
    for &(m, a, b, ty) in bonds {
        prog.fact(Literal::new(
            t.intern("wide"),
            vec![
                mol_term(&t, m),
                atom_term(&t, a),
                atom_term(&t, b),
                Term::Int((ty % 4) as i64),
                Term::Int((a % 7) as i64),
                Term::Sym(t.intern(ELEMS[(b % 3) as usize])),
            ],
        ));
    }
    path_rules(&t, &mut prog);
    let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
    let v = Term::Var;
    // big(X) :- val(X), X >= 10.
    prog.rule(Clause::new(
        lit("big", vec![v(0)]),
        vec![lit("val", vec![v(0)]), lit(">=", vec![v(0), Term::Int(10)])],
    ));
    // hop(A,B) :- N = K, K = M, atm(M,A,E), bond(N,A,B,T).
    prog.rule(Clause::new(
        lit("hop", vec![v(0), v(1)]),
        vec![
            lit("=", vec![v(2), v(3)]),
            lit("=", vec![v(3), v(4)]),
            lit("atm", vec![v(4), v(0), v(5)]),
            lit("bond", vec![v(2), v(0), v(1), v(6)]),
        ],
    ));
    (t, prog)
}

/// Builds a query literal for one of the program's predicates from raw
/// seeds: each argument becomes a (possibly shared) variable, an in-pool
/// constant, or an absent constant.
pub fn build_query(t: &SymbolTable, pred_pick: u8, seeds: &[u8]) -> Literal {
    let (name, arity) = match pred_pick % 8 {
        0 => ("bond", 4),
        1 => ("atm", 3),
        2 => ("val", 1),
        3 => ("path", 3),
        4 => ("wide", 6),
        5 => ("big", 1),
        6 => ("hop", 2),
        _ => ("flag", 0),
    };
    let mut args = Vec::with_capacity(arity);
    for p in 0..arity {
        let s = seeds[p % seeds.len()].wrapping_add(p as u8);
        let term = match s % 4 {
            // Shared variables exercise bound-by-earlier-goal paths.
            0 => Term::Var((s / 4 % 3) as u32),
            1 => match (name, p) {
                ("bond", 0) | ("atm", 0) | ("path", 0) | ("wide", 0) => mol_term(t, s),
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
