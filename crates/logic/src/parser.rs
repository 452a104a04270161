//! A small Prolog-syntax reader.
//!
//! Covers the fragment ILP applications need: facts, Horn rules with `:-`
//! and `,`, integers, floats, quoted atoms, variables, infix comparison
//! operators (`<`, `=<`, `>`, `>=`, `=:=`, `=\=`, `=`, `\=`, `is`), and
//! arithmetic expressions with the usual precedence (`+ - * / mod`).
//! Comments: `% line` and `/* block */`.

use crate::clause::{Clause, Literal};
use crate::symbol::SymbolTable;
use crate::term::{Term, VarId, F64};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Atom(String),
    Var(String),
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    Comma,
    Dot,
    Neck, // :-
    Op(&'static str),
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(self.err("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<(Tok, usize, usize)>, ParseError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'.' => {
                self.bump();
                Tok::Dot
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b'-') {
                    self.bump();
                    Tok::Neck
                } else {
                    return Err(self.err("expected ':-'"));
                }
            }
            b'\'' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'\'') => break,
                        Some(ch) => s.push(ch as char),
                        None => return Err(self.err("unterminated quoted atom")),
                    }
                }
                Tok::Atom(s)
            }
            b'0'..=b'9' => self.lex_number()?,
            b'_' | b'A'..=b'Z' => {
                let s = self.lex_ident();
                Tok::Var(s)
            }
            b'a'..=b'z' => {
                let s = self.lex_ident();
                Tok::Atom(s)
            }
            b'=' => {
                self.bump();
                match self.peek() {
                    Some(b'<') => {
                        self.bump();
                        Tok::Op("=<")
                    }
                    Some(b':') => {
                        self.bump();
                        if self.bump() != Some(b'=') {
                            return Err(self.err("expected '=:='"));
                        }
                        Tok::Op("=:=")
                    }
                    Some(b'\\') => {
                        self.bump();
                        if self.bump() != Some(b'=') {
                            return Err(self.err("expected '=\\='"));
                        }
                        Tok::Op("=\\=")
                    }
                    _ => Tok::Op("="),
                }
            }
            b'\\' => {
                self.bump();
                if self.bump() != Some(b'=') {
                    return Err(self.err("expected '\\='"));
                }
                Tok::Op("\\=")
            }
            b'<' => {
                self.bump();
                Tok::Op("<")
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op(">=")
                } else {
                    Tok::Op(">")
                }
            }
            b'+' => {
                self.bump();
                Tok::Op("+")
            }
            b'-' => {
                self.bump();
                Tok::Op("-")
            }
            b'*' => {
                self.bump();
                Tok::Op("*")
            }
            b'/' => {
                self.bump();
                Tok::Op("/")
            }
            other => return Err(self.err(format!("unexpected character '{}'", other as char))),
        };
        Ok(Some((tok, line, col)))
    }

    fn lex_ident(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn lex_number(&mut self) -> Result<Tok, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E'))
            && matches!(self.peek2(), Some(b'0'..=b'9' | b'-' | b'+'))
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'-' | b'+')) {
                self.bump();
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        if is_float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| self.err(e.to_string()))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.err(e.to_string()))
        }
    }
}

/// Recursive-descent parser producing [`Clause`]s and [`Literal`]s against a
/// shared [`SymbolTable`].
pub struct Parser<'s> {
    syms: &'s SymbolTable,
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
    vars: HashMap<String, VarId>,
    next_var: VarId,
}

/// The comparison operators a literal is written infix with (`is` aside).
pub(crate) const REL_OPS: &[&str] = &["<", "=<", ">", ">=", "=:=", "=\\=", "=", "\\="];

impl<'s> Parser<'s> {
    /// Tokenizes `src` for parsing against `syms`.
    pub fn new(syms: &'s SymbolTable, src: &str) -> Result<Self, ParseError> {
        let mut lx = Lexer::new(src);
        let mut toks = Vec::new();
        while let Some(t) = lx.next_token()? {
            toks.push(t);
        }
        Ok(Parser {
            syms,
            toks,
            pos: 0,
            vars: HashMap::new(),
            next_var: 0,
        })
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|&(_, l, c)| (l, c))
            .or_else(|| self.toks.last().map(|&(_, l, c)| (l, c)))
            .unwrap_or((1, 1));
        ParseError {
            message: msg.into(),
            line,
            col,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_here(format!("expected {want:?}, found {:?}", self.peek())))
        }
    }

    fn fresh_scope(&mut self) {
        self.vars.clear();
        self.next_var = 0;
    }

    fn var_id(&mut self, name: &str) -> VarId {
        if name == "_" {
            let v = self.next_var;
            self.next_var += 1;
            return v;
        }
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let v = self.next_var;
        self.next_var += 1;
        self.vars.insert(name.to_owned(), v);
        v
    }

    /// Parses a whole program (sequence of clauses).
    pub fn parse_program(&mut self) -> Result<Vec<Clause>, ParseError> {
        let mut out = Vec::new();
        while self.peek().is_some() {
            out.push(self.parse_clause()?);
        }
        Ok(out)
    }

    /// Parses one clause `head [:- body] .` with a fresh variable scope.
    pub fn parse_clause(&mut self) -> Result<Clause, ParseError> {
        self.fresh_scope();
        let head = self.parse_literal()?;
        let body = if self.peek() == Some(&Tok::Neck) {
            self.bump();
            self.parse_conjunction()?
        } else {
            Vec::new()
        };
        self.expect(&Tok::Dot)?;
        Ok(Clause::new(head, body))
    }

    /// Parses a conjunction of literals separated by commas (no final dot).
    pub fn parse_conjunction(&mut self) -> Result<Vec<Literal>, ParseError> {
        let mut out = vec![self.parse_literal()?];
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            out.push(self.parse_literal()?);
        }
        Ok(out)
    }

    /// Parses one literal: either `p(args)` or `Expr RELOP Expr`.
    pub fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        let lhs = self.parse_expr()?;
        if let Some(Tok::Op(op)) = self.peek() {
            if REL_OPS.contains(op) {
                let op = *op;
                self.bump();
                let rhs = self.parse_expr()?;
                return Ok(Literal::new(self.syms.intern(op), vec![lhs, rhs]));
            }
        }
        // `is` is an atom token, so detect it by lookahead on atoms.
        if let Some(Tok::Atom(a)) = self.peek() {
            if a == "is" {
                self.bump();
                let rhs = self.parse_expr()?;
                return Ok(Literal::new(self.syms.intern("is"), vec![lhs, rhs]));
            }
        }
        match lhs {
            Term::Sym(s) => Ok(Literal::new(s, vec![])),
            Term::App(f, args) => Ok(Literal::new(f, args.into_vec())),
            other => Err(self.err_here(format!("expected a literal, found term {other:?}"))),
        }
    }

    /// Parses an arithmetic expression (lowest precedence: `+`/`-`).
    pub fn parse_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_muldiv()?;
        while let Some(Tok::Op(op @ ("+" | "-"))) = self.peek() {
            let f = self.syms.intern(op);
            self.bump();
            let rhs = self.parse_muldiv()?;
            lhs = Term::app(f, vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn parse_muldiv(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            match self.peek() {
                Some(Tok::Op(op @ ("*" | "/"))) => {
                    let f = self.syms.intern(op);
                    self.bump();
                    let rhs = self.parse_unary()?;
                    lhs = Term::app(f, vec![lhs, rhs]);
                }
                Some(Tok::Atom(a)) if a == "mod" => {
                    let f = self.syms.intern("mod");
                    self.bump();
                    let rhs = self.parse_unary()?;
                    lhs = Term::app(f, vec![lhs, rhs]);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Term, ParseError> {
        if let Some(Tok::Op("-")) = self.peek() {
            self.bump();
            let inner = self.parse_unary()?;
            return Ok(match inner {
                Term::Int(i) => Term::Int(-i),
                Term::Float(f) => Term::Float(F64(-f.0)),
                other => Term::app(self.syms.intern("-"), vec![other]),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Term::Int(i)),
            Some(Tok::Float(f)) => Ok(Term::Float(F64(f))),
            Some(Tok::Var(v)) => Ok(Term::Var(self.var_id(&v))),
            Some(Tok::Atom(a)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.bump();
                    let mut args = vec![self.parse_expr()?];
                    while self.peek() == Some(&Tok::Comma) {
                        self.bump();
                        args.push(self.parse_expr()?);
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Term::app(self.syms.intern(&a), args))
                } else {
                    Ok(Term::Sym(self.syms.intern(&a)))
                }
            }
            Some(Tok::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.err_here(format!("expected a term, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> (SymbolTable, Clause) {
        let t = SymbolTable::new();
        let c = Parser::new(&t, src).unwrap().parse_clause().unwrap();
        (t, c)
    }

    #[test]
    fn fact_roundtrips() {
        let (t, c) = parse_one("parent(ann, bob).");
        assert!(c.is_fact());
        assert_eq!(format!("{}", c.display(&t)), "parent(ann,bob).");
    }

    #[test]
    fn rule_with_shared_vars() {
        let (t, c) = parse_one("grandparent(X, Z) :- parent(X, Y), parent(Y, Z).");
        assert_eq!(c.body.len(), 2);
        assert_eq!(c.distinct_vars().len(), 3);
        // Ids follow first occurrence: X=A, Z=B, Y=C.
        assert_eq!(
            format!("{}", c.display(&t)),
            "grandparent(A,B) :- parent(A,C), parent(C,B)."
        );
    }

    #[test]
    fn infix_comparisons_become_literals() {
        let (t, c) = parse_one("big(X) :- size(X, S), S >= 4.");
        assert_eq!(c.body.len(), 2);
        assert_eq!(&*t.name(c.body[1].pred), ">=");
    }

    #[test]
    fn is_with_arith_precedence() {
        let (t, c) = parse_one("p(X, Y) :- Y is X * 2 + 1.");
        let lit = &c.body[0];
        assert_eq!(&*t.name(lit.pred), "is");
        // X*2+1 parses as +( *(X,2), 1 )
        match &lit.args[1] {
            Term::App(f, args) => {
                assert_eq!(&*t.name(*f), "+");
                assert!(matches!(&args[0], Term::App(g, _) if &*t.name(*g) == "*"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_numbers_fold() {
        let (_, c) = parse_one("q(-3, -2.5).");
        assert_eq!(c.head.args[0], Term::Int(-3));
        assert_eq!(c.head.args[1], Term::Float(F64(-2.5)));
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let (_, c) = parse_one("p(_, _).");
        assert_ne!(c.head.args[0], c.head.args[1]);
    }

    #[test]
    fn comments_are_skipped() {
        let t = SymbolTable::new();
        let src = "% line comment\np(a). /* block\ncomment */ q(b).";
        let prog = Parser::new(&t, src).unwrap().parse_program().unwrap();
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn quoted_atoms() {
        let (t, c) = parse_one("elem('Cl').");
        assert_eq!(
            &*t.name(match c.head.args[0] {
                Term::Sym(s) => s,
                _ => panic!(),
            }),
            "Cl"
        );
    }

    #[test]
    fn errors_carry_position() {
        let t = SymbolTable::new();
        let e = Parser::new(&t, "p(a)").unwrap().parse_clause().unwrap_err();
        assert!(e.line >= 1);
        let e = Parser::new(&t, "p(a) :- .")
            .unwrap()
            .parse_clause()
            .unwrap_err();
        assert!(!e.message.is_empty());
    }

    #[test]
    fn var_scope_resets_between_clauses() {
        let t = SymbolTable::new();
        let prog = Parser::new(&t, "p(X) :- q(X). r(X).")
            .unwrap()
            .parse_program()
            .unwrap();
        assert_eq!(prog[0].distinct_vars(), vec![0]);
        assert_eq!(prog[1].distinct_vars(), vec![0]);
    }
}
