//! First-order terms.

use crate::symbol::{SymbolId, SymbolTable};
use crate::wire::{decode_seq, DecodeError, Wire};
use std::fmt;

/// Identifier of a logic variable. Variables are clause-local; the prover
/// renames clauses apart by offsetting variable ids.
pub type VarId = u32;

/// An `f64` with total ordering and hashing (by bit pattern), so terms can
/// be used as map keys. NaN is permitted but compares by bits.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct F64(pub f64);
crate::wire_struct!(F64 { 0 });

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for F64 {}
impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state)
    }
}
impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A first-order term.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub enum Term {
    /// A logic variable.
    Var(VarId),
    /// An atomic constant (interned name).
    Sym(SymbolId),
    /// An integer constant.
    Int(i64),
    /// A floating-point constant.
    Float(F64),
    /// A compound term `f(t1, ..., tn)` with `n >= 1`.
    App(SymbolId, Box<[Term]>),
}

/// How deep `App` may nest inside `App` in a term off the wire. Decoding a
/// term recurses once per level, and so does everything done to it after
/// (dropping it, to begin with): a frame of nothing but `App` tags — nine
/// bytes a level — would otherwise pick the depth of the receiver's stack.
/// No dataset nests deeper than a few levels; a list of this many cells
/// would.
pub const MAX_TERM_DEPTH: usize = 256;

/// A one-byte tag, then the variant's fields — the layout a `wire_enum!`
/// table would give — written out because decoding counts the nesting.
impl Wire for Term {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Term::Var(v) => (0u8, *v).encode(out),
            Term::Sym(s) => (1u8, *s).encode(out),
            Term::Int(i) => (2u8, *i).encode(out),
            Term::Float(x) => (3u8, *x).encode(out),
            Term::App(f, args) => {
                (4u8, *f).encode(out);
                args.encode(out);
            }
        }
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Term::decode_nested(inp, 0)
    }
}

impl Term {
    /// Decodes a term found `depth` levels of `App` down.
    fn decode_nested(inp: &mut &[u8], depth: usize) -> Result<Term, DecodeError> {
        Ok(match u8::decode(inp)? {
            0 => Term::Var(Wire::decode(inp)?),
            1 => Term::Sym(Wire::decode(inp)?),
            2 => Term::Int(Wire::decode(inp)?),
            3 => Term::Float(Wire::decode(inp)?),
            4 if depth < MAX_TERM_DEPTH => {
                let f = Wire::decode(inp)?;
                let args = decode_seq(inp, |inp| Term::decode_nested(inp, depth + 1))?;
                Term::App(f, args.into_boxed_slice())
            }
            4 => return Err(DecodeError::new("term nesting")),
            _ => return Err(DecodeError::new("term tag")),
        })
    }

    /// Convenience constructor for a compound term.
    pub fn app(f: SymbolId, args: Vec<Term>) -> Term {
        Term::App(f, args.into_boxed_slice())
    }

    /// True when the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Sym(_) | Term::Int(_) | Term::Float(_) => true,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// True when the term is a constant (not a variable or compound).
    pub fn is_constant(&self) -> bool {
        matches!(self, Term::Sym(_) | Term::Int(_) | Term::Float(_))
    }

    /// Collects every variable id occurring in the term (with duplicates).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::App(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// The largest variable id occurring in the term, if any.
    pub fn max_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::App(_, args) => args.iter().filter_map(Term::max_var).max(),
            _ => None,
        }
    }

    /// Returns a copy with every variable id shifted by `offset`.
    pub fn offset_vars(&self, offset: VarId) -> Term {
        match self {
            Term::Var(v) => Term::Var(v + offset),
            Term::App(f, args) => {
                Term::App(*f, args.iter().map(|a| a.offset_vars(offset)).collect())
            }
            t => t.clone(),
        }
    }

    /// Applies `map` to every variable id, returning the rewritten term.
    pub fn map_vars(&self, map: &mut impl FnMut(VarId) -> Term) -> Term {
        match self {
            Term::Var(v) => map(*v),
            Term::App(f, args) => Term::App(*f, args.iter().map(|a| a.map_vars(map)).collect()),
            t => t.clone(),
        }
    }

    /// Structural size (number of symbol/constant/variable nodes).
    pub fn size(&self) -> usize {
        match self {
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            _ => 1,
        }
    }

    /// Pretty-prints the term against a symbol table.
    pub fn display<'a>(&'a self, syms: &'a SymbolTable) -> TermDisplay<'a> {
        TermDisplay { term: self, syms }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "_{v}"),
            Term::Sym(s) => write!(f, "{s:?}"),
            Term::Int(i) => write!(f, "{i}"),
            Term::Float(x) => write!(f, "{}", x.0),
            Term::App(s, args) => {
                write!(f, "{s:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Display adapter produced by [`Term::display`].
pub struct TermDisplay<'a> {
    term: &'a Term,
    syms: &'a SymbolTable,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(f, self.term, self.syms)
    }
}

/// Writes `term` in the syntax [`crate::parser`] reads back: arithmetic
/// (`+ - * / mod`, unary `-`) infix with parentheses where precedence needs
/// them, any other compound in prefix form, and an atom that does not lex
/// as one quoted.
pub fn write_term(f: &mut fmt::Formatter<'_>, term: &Term, syms: &SymbolTable) -> fmt::Result {
    write_at(f, term, syms, ARG_PRIORITY)
}

/// Priority an argument or either side of a builtin literal may have
/// unparenthesized: any arithmetic expression.
const ARG_PRIORITY: u32 = 999;

/// Priority of unary minus (`fy`).
const NEG_PRIORITY: u32 = 200;

/// Priority of a binary arithmetic functor the parser reads infix (all
/// left-associative, `yfx`).
fn infix_priority(name: &str) -> Option<u32> {
    match name {
        "+" | "-" => Some(500),
        "*" | "/" | "mod" => Some(400),
        _ => None,
    }
}

/// Writes `term`, in parentheses if its priority exceeds `max`.
fn write_at(f: &mut fmt::Formatter<'_>, term: &Term, syms: &SymbolTable, max: u32) -> fmt::Result {
    match term {
        Term::Var(v) => write!(f, "{}", var_name(*v)),
        Term::Sym(s) => write_prefix(f, &syms.name(*s), &[], syms),
        Term::Int(i) => write!(f, "{i}"),
        // Keep a decimal point so the token re-parses as a float.
        Term::Float(x) if x.0.fract() == 0.0 && x.0.is_finite() => write!(f, "{:.1}", x.0),
        Term::Float(x) => write!(f, "{}", x.0),
        Term::App(s, args) => {
            let name = syms.name(*s);
            let prio = match &args[..] {
                [_, _] => infix_priority(&name),
                // `-3` and `-(3)` both read back as the number -3.
                [Term::Int(_) | Term::Float(_)] => None,
                [_] if &*name == "-" => Some(NEG_PRIORITY),
                _ => None,
            };
            let Some(prio) = prio else {
                return write_prefix(f, &name, args, syms);
            };
            let (open, close) = if prio > max { ("(", ")") } else { ("", "") };
            write!(f, "{open}")?;
            if let [operand] = &args[..] {
                write!(f, "-")?;
                write_at(f, operand, syms, NEG_PRIORITY)?;
            } else {
                write_at(f, &args[0], syms, prio)?;
                write!(f, " {name} ")?;
                write_at(f, &args[1], syms, prio - 1)?;
            }
            write!(f, "{close}")
        }
    }
}

/// Writes `name(args…)`, or the bare name without arguments; the name is
/// quoted unless it lexes as an atom (a lowercase letter, then letters,
/// digits and underscores).
pub(crate) fn write_prefix(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    args: &[Term],
    syms: &SymbolTable,
) -> fmt::Result {
    let mut bytes = name.bytes();
    let plain = bytes.next().is_some_and(|b| b.is_ascii_lowercase())
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_');
    let quote = if plain { "" } else { "'" };
    write!(f, "{quote}{name}{quote}")?;
    for (i, a) in args.iter().enumerate() {
        write!(f, "{}", if i == 0 { "(" } else { "," })?;
        write_term(f, a, syms)?;
    }
    if !args.is_empty() {
        write!(f, ")")?;
    }
    Ok(())
}

/// Human-readable variable name for id `v` (`A`, `B`, ..., `Z`, `A1`, ...).
pub fn var_name(v: VarId) -> String {
    let letter = (b'A' + (v % 26) as u8) as char;
    let round = v / 26;
    if round == 0 {
        letter.to_string()
    } else {
        format!("{letter}{round}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> SymbolTable {
        SymbolTable::new()
    }

    #[test]
    fn groundness() {
        let t = syms();
        let f = t.intern("f");
        let a = Term::Sym(t.intern("a"));
        assert!(a.is_ground());
        let c = Term::app(f, vec![a.clone(), Term::Var(0)]);
        assert!(!c.is_ground());
        let g = Term::app(f, vec![a.clone(), Term::Int(3)]);
        assert!(g.is_ground());
    }

    #[test]
    fn var_collection_and_offset() {
        let t = syms();
        let f = t.intern("f");
        let term = Term::app(f, vec![Term::Var(0), Term::app(f, vec![Term::Var(2)])]);
        let mut vars = vec![];
        term.collect_vars(&mut vars);
        assert_eq!(vars, vec![0, 2]);
        assert_eq!(term.max_var(), Some(2));
        let shifted = term.offset_vars(10);
        assert_eq!(shifted.max_var(), Some(12));
    }

    #[test]
    fn f64_total_order() {
        assert_eq!(F64(1.5), F64(1.5));
        assert!(F64(1.0) < F64(2.0));
        assert_eq!(F64(f64::NAN), F64(f64::NAN)); // bitwise equality
    }

    #[test]
    fn term_size() {
        let t = syms();
        let f = t.intern("f");
        let term = Term::app(f, vec![Term::Int(1), Term::app(f, vec![Term::Int(2)])]);
        assert_eq!(term.size(), 4);
    }

    #[test]
    fn var_names_cycle() {
        assert_eq!(var_name(0), "A");
        assert_eq!(var_name(25), "Z");
        assert_eq!(var_name(26), "A1");
    }

    /// The bytes of an integer under `depth` one-argument `App`s, written
    /// by hand: the decoder is tested on terms no test should build.
    fn nested_apps(depth: usize) -> Vec<u8> {
        let mut raw = Vec::new();
        for _ in 0..depth {
            (4u8, 7u32, 1u32).encode(&mut raw);
        }
        Term::Int(5).encode(&mut raw);
        raw
    }

    #[test]
    fn nesting_is_bounded_and_the_bound_round_trips() {
        // 900 KB of `App` tags off a socket are an error, not a stack
        // overflow in the worker that reads them.
        for depth in [MAX_TERM_DEPTH + 1, 100_000] {
            let raw = nested_apps(depth);
            let refused = Term::decode(&mut &raw[..]).unwrap_err();
            assert_eq!(refused.context, "term nesting", "depth {depth}");
        }
        // The deepest term allowed — far deeper than any dataset's — comes
        // back as it went.
        let raw = nested_apps(MAX_TERM_DEPTH);
        let mut inp = &raw[..];
        let term = Term::decode(&mut inp).expect("nesting at the bound");
        assert!(inp.is_empty());
        assert_eq!(term.size(), MAX_TERM_DEPTH + 1);
        let mut again = Vec::new();
        term.encode(&mut again);
        assert_eq!(again, raw);
    }

    #[test]
    fn display_roundtrip_shape() {
        let t = syms();
        let f = t.intern("f");
        let term = Term::app(f, vec![Term::Sym(t.intern("a")), Term::Var(1)]);
        assert_eq!(format!("{}", term.display(&t)), "f(a,B)");
    }
}
