//! Variable bindings with an undo trail, plus unification.
//!
//! The prover backtracks constantly, so bindings are stored in a flat slot
//! vector indexed by [`VarId`], and every binding is recorded on a trail.
//! [`Bindings::mark`]/[`Bindings::undo_to`] give O(1)-amortized backtracking
//! without cloning substitutions — the same trick a WAM uses.
//!
//! # The slot
//!
//! A slot is 16 bytes and `Copy`: a tag, the value's [`TermId`] and a 64-bit
//! payload. Symbols, integers, floats and variable-to-variable links live
//! inline in the payload. A compound goes on the store's own heap (a
//! `Vec<Term>`): pushed when it is bound, popped when that binding is undone.
//! Bindings are undone in trail order, so the heap is a stack that mirrors
//! the trail. Binding an atomic value writes one slot and undoing it writes
//! one tag: no `Term` is cloned on bind or dropped on undo.
//!
//! # The id
//!
//! A value bound from the knowledge base keeps its arena id in the slot: a
//! fact cell bound by [`Bindings::unify_term_id`], an example argument bound
//! by [`Bindings::bind_ground`] (or [`Bindings::bind_ground_id`], its id
//! found beforehand), and any variable later bound to either.
//! [`Bindings::probe`] answers such a variable from its id without hashing
//! the value, and [`Bindings::unify_term_id`] compares it with a fact cell id
//! to id. A value bound without an id — a rule's own constant, a builtin's
//! result — costs the arena lookup it always did. Every id in one store comes
//! from one arena, the one the prover's knowledge base owns; ids from two
//! arenas must not meet in a store.
//!
//! # Offsets
//!
//! Unification is *offset-aware*: both sides carry a variable offset that is
//! applied on the fly, so the prover can unify a goal against a knowledge-
//! base clause without first renaming the clause apart (no `offset_vars`
//! clone per candidate). A compound is only materialized (cloned onto the
//! heap, with its offset baked in) at the moment a variable is bound to it.

use crate::arena::{Probe, TermArena, TermId};
use crate::clause::Literal;
use crate::symbol::SymbolId;
use crate::term::{Term, VarId, F64};

/// What a [`Slot`] holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    /// Unbound.
    Free,
    /// Bound to another variable (payload: its absolute id).
    Var,
    /// Bound to an atomic constant (payload: the symbol's index).
    Sym,
    /// Bound to an integer (payload: its bits).
    Int,
    /// Bound to a float (payload: its bits).
    Float,
    /// Bound to a compound (payload: its index on the store's heap).
    App,
}

/// One variable's binding. Only the tag is meaningful while it is
/// [`Tag::Free`]: undoing a binding writes the tag and nothing else.
#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: Tag,
    /// The value's arena id, or [`TermId::NONE`] when it was bound without
    /// one (always `NONE` for [`Tag::Var`]).
    id: TermId,
    payload: u64,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    const FREE: Slot = Slot {
        tag: Tag::Free,
        id: TermId::NONE,
        payload: 0,
    };

    #[inline]
    fn new(tag: Tag, id: TermId, payload: u64) -> Slot {
        Slot { tag, id, payload }
    }

    #[inline]
    fn var(v: VarId) -> Slot {
        Slot::new(Tag::Var, TermId::NONE, v as u64)
    }
}

/// Where every variable outside the slot vector resolves: unbound.
static FREE_SLOT: Slot = Slot::FREE;

/// A mutable binding store with trail-based undo.
#[derive(Default, Debug)]
pub struct Bindings {
    slots: Vec<Slot>,
    trail: Vec<VarId>,
    /// The compounds bound in `slots`, in trail order.
    heap: Vec<Term>,
}

/// A checkpoint returned by [`Bindings::mark`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark(usize);

/// A term walked down to its binding, with variable offsets resolved.
/// Constants are carried by value with the arena id their slot recorded
/// ([`TermId::NONE`] when there is none, or when the constant is the input
/// term itself); compounds stay borrowed unless they came out of a binding
/// slot (then one clone surfaces them).
pub(crate) enum View<'i> {
    /// An unbound variable (absolute id).
    Var(VarId),
    /// An atomic constant.
    Sym(SymbolId, TermId),
    /// An integer constant.
    Int(i64, TermId),
    /// A float constant.
    Float(F64, TermId),
    /// A compound borrowed from the input term; the offset applies to every
    /// variable inside it.
    App(&'i Term, VarId),
    /// A compound cloned off the store's heap (absolute variable ids).
    OwnedApp(Term, TermId),
}

impl Bindings {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store with capacity for `n` variables.
    pub fn with_capacity(n: usize) -> Self {
        Bindings {
            slots: vec![Slot::FREE; n],
            trail: Vec::with_capacity(n),
            heap: Vec::new(),
        }
    }

    /// Grows the slot vector so ids `0..n` are addressable.
    pub fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::FREE);
        }
    }

    /// Number of addressable variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot exists yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Returns a checkpoint; bindings made after it can be undone with
    /// [`Bindings::undo_to`].
    #[inline]
    pub fn mark(&self) -> Mark {
        Mark(self.trail.len())
    }

    /// Undoes every binding made since `mark`: one tag write per binding,
    /// and the heap loses the compounds bound since.
    pub fn undo_to(&mut self, mark: Mark) {
        if mark.0 >= self.trail.len() {
            return;
        }
        let mut apps = 0;
        for &v in &self.trail[mark.0..] {
            let slot = &mut self.slots[v as usize];
            apps += usize::from(slot.tag == Tag::App);
            slot.tag = Tag::Free;
        }
        self.trail.truncate(mark.0);
        if apps != 0 {
            self.heap.truncate(self.heap.len() - apps);
        }
    }

    /// Records `slot` as the binding of the unbound variable `v`.
    #[inline]
    fn bind_slot(&mut self, v: VarId, slot: Slot) {
        self.ensure(v as usize + 1);
        debug_assert!(
            self.slots[v as usize].tag == Tag::Free,
            "rebinding bound var"
        );
        self.slots[v as usize] = slot;
        self.trail.push(v);
    }

    /// The slot holding `t` with arena id `id`, pushing a compound onto the
    /// heap (so the slot must be bound next).
    #[inline]
    fn slot_for(&mut self, t: &Term, id: TermId) -> Slot {
        match t {
            Term::Var(w) => Slot::var(*w),
            Term::Sym(s) => Slot::new(Tag::Sym, id, s.0 as u64),
            Term::Int(i) => Slot::new(Tag::Int, id, *i as u64),
            Term::Float(f) => Slot::new(Tag::Float, id, f.0.to_bits()),
            Term::App(..) => self.push_app(t.clone(), id),
        }
    }

    /// Pushes a compound onto the heap; returns the slot naming it.
    #[inline]
    fn push_app(&mut self, t: Term, id: TermId) -> Slot {
        self.heap.push(t);
        Slot::new(Tag::App, id, (self.heap.len() - 1) as u64)
    }

    /// Binds variable `v` to `t`, recording the binding on the trail.
    /// `v` must be unbound.
    #[inline]
    pub fn bind(&mut self, v: VarId, t: Term) {
        let slot = self.slot_for(&t, TermId::NONE);
        self.bind_slot(v, slot);
    }

    /// Binds the unbound variable `v` to the ground term `t`, recording
    /// `t`'s id in `arena` when it has one. The one lookup made here is the
    /// last: every later probe of `v` reads the id (see [`Bindings::probe`]).
    #[inline]
    pub fn bind_ground(&mut self, v: VarId, t: &Term, arena: &TermArena) {
        self.bind_ground_id(v, t, arena.lookup(t).unwrap_or(TermId::NONE));
    }

    /// [`Bindings::bind_ground`] with the lookup already made: `id` must be
    /// `t`'s id in the prover's arena, or [`TermId::NONE`] when the arena
    /// does not hold `t` ([`TermArena::lookup_hinted`] finds it from a kept
    /// id without hashing).
    #[inline]
    pub fn bind_ground_id(&mut self, v: VarId, t: &Term, id: TermId) {
        debug_assert!(t.is_ground(), "bind_ground takes ground terms");
        let slot = self.slot_for(t, id);
        self.bind_slot(v, slot);
    }

    /// Follows variable-to-variable bindings from the absolute variable `v`
    /// to the last variable of the chain and its slot (never a
    /// [`Tag::Var`] one).
    #[inline]
    fn deref(&self, mut v: VarId) -> (VarId, &Slot) {
        loop {
            match self.slots.get(v as usize) {
                Some(s) if s.tag == Tag::Var => v = s.payload as VarId,
                Some(s) => return (v, s),
                None => return (v, &FREE_SLOT),
            }
        }
    }

    /// The value of a slot as a term (shallow: a compound's own variables
    /// are not resolved); `v` names the variable of a free slot.
    fn term_of(&self, v: VarId, s: &Slot) -> Term {
        match s.tag {
            Tag::Free => Term::Var(v),
            Tag::Var => Term::Var(s.payload as VarId),
            Tag::Sym => Term::Sym(SymbolId(s.payload as u32)),
            Tag::Int => Term::Int(s.payload as i64),
            Tag::Float => Term::Float(F64(f64::from_bits(s.payload))),
            Tag::App => self.heap[s.payload as usize].clone(),
        }
    }

    /// What `v` stands for as a key: `Err` of the variable it resolves to
    /// while that is unbound, else `Ok` of the arena id its value was bound
    /// with — [`TermId::NONE`] for a value bound without one and for a
    /// compound.
    pub fn id_or_var(&self, v: VarId) -> Result<TermId, VarId> {
        let (abs, s) = self.deref(v);
        match s.tag {
            Tag::Free => Err(abs),
            Tag::App => Ok(TermId::NONE),
            _ => Ok(s.id),
        }
    }

    /// The raw binding of `v`, if any (not dereferenced).
    pub fn lookup(&self, v: VarId) -> Option<Term> {
        let s = self.slots.get(v as usize)?;
        (s.tag != Tag::Free).then(|| self.term_of(v, s))
    }

    /// Follows variable-to-variable bindings until hitting an unbound
    /// variable or a non-variable term. Returns the final term (shallow: the
    /// arguments of a compound are *not* resolved).
    pub fn walk(&self, t: &Term) -> Term {
        match t {
            Term::Var(v) => {
                let (abs, s) = self.deref(*v);
                self.term_of(abs, s)
            }
            other => other.clone(),
        }
    }

    /// Fully applies the substitution to `t`, producing a new term with
    /// every bound variable replaced (recursively).
    pub fn resolve(&self, t: &Term) -> Term {
        match t {
            Term::Var(v) => {
                let (abs, s) = self.deref(*v);
                match s.tag {
                    Tag::App => self.resolve(&self.heap[s.payload as usize]),
                    _ => self.term_of(abs, s),
                }
            }
            Term::App(f, args) => Term::App(*f, args.iter().map(|a| self.resolve(a)).collect()),
            other => other.clone(),
        }
    }

    /// Fully applies the substitution to a literal.
    pub fn resolve_literal(&self, l: &Literal) -> Literal {
        Literal {
            pred: l.pred,
            args: l.args.iter().map(|a| self.resolve(a)).collect(),
        }
    }

    /// True when `t` is ground under the current bindings.
    pub fn is_ground(&self, t: &Term) -> bool {
        match t {
            Term::Var(v) => {
                let (_, s) = self.deref(*v);
                match s.tag {
                    Tag::Free => false,
                    Tag::App => self.is_ground(&self.heap[s.payload as usize]),
                    _ => true,
                }
            }
            Term::App(_, args) => args.iter().all(|a| self.is_ground(a)),
            _ => true,
        }
    }

    /// Walks `t` under offset `off` down to a [`View`]: the variable offset
    /// is applied on the fly, and slot-resident values are surfaced without
    /// cloning except when a slot holds a compound (rare in ILP workloads,
    /// where bound values are almost always constants).
    pub(crate) fn resolve_view<'i>(&self, t: &'i Term, off: VarId) -> View<'i> {
        match t {
            Term::Var(v) => {
                let (abs, s) = self.deref(v + off);
                match s.tag {
                    Tag::Free => View::Var(abs),
                    Tag::Sym => View::Sym(SymbolId(s.payload as u32), s.id),
                    Tag::Int => View::Int(s.payload as i64, s.id),
                    Tag::Float => View::Float(F64(f64::from_bits(s.payload)), s.id),
                    Tag::App => View::OwnedApp(self.heap[s.payload as usize].clone(), s.id),
                    Tag::Var => unreachable!("deref follows variable links"),
                }
            }
            Term::Sym(s) => View::Sym(*s, TermId::NONE),
            Term::Int(i) => View::Int(*i, TermId::NONE),
            Term::Float(f) => View::Float(*f, TermId::NONE),
            Term::App(..) => View::App(t, off),
        }
    }

    /// A goal argument as an owned *ground* term, if its top-level walk
    /// lands on one — the key a posting list is probed with (atomic
    /// constants and ground compounds alike; an atomic-only variant would
    /// silently degrade compound-bound goals back to scans). Matches the
    /// reference prover's shallow `walk`: a compound whose own variables are
    /// bound but not substituted in place is not considered ground, so both
    /// provers agree on when the index applies (the step contract).
    pub fn resolved_ground(&self, t: &Term, off: VarId) -> Option<Term> {
        match self.resolve_view(t, off) {
            View::Sym(s, _) => Some(Term::Sym(s)),
            View::Int(i, _) => Some(Term::Int(i)),
            View::Float(f, _) => Some(Term::Float(f)),
            View::App(app, _) if app.is_ground() => Some(app.clone()),
            View::OwnedApp(app, _) if app.is_ground() => Some(app),
            View::Var(_) | View::App(..) | View::OwnedApp(..) => None,
        }
    }

    /// [`Bindings::resolved_ground`] compressed to its index-probing
    /// essence: the same shallow-walk groundness decision, but returning the
    /// arena's verdict as a [`Probe`] instead of an owned `Term`. A variable
    /// whose slot carries an arena id answers with that id and hashes
    /// nothing; any other ground value is looked up, without allocating for
    /// atomic constants. The equivalence is load-bearing for the step
    /// contract: `probe(t, off, arena)` is `Probe::Free` exactly when
    /// `resolved_ground(t, off)` is `None`, and `Probe::Id(i)` exactly when
    /// it is `Some(g)` with `arena.lookup(&g) == Some(i)` (otherwise
    /// `Probe::Miss`) — in particular a compound whose own variables are
    /// bound but not substituted in place stays `Free`, matching the
    /// reference prover's shallow `walk`. (A slot's id is the lookup's
    /// answer: it came from `arena`, and the arena dedupes.)
    pub fn probe(&self, t: &Term, off: VarId, arena: &TermArena) -> Probe {
        let ground = |t: &Term| arena.lookup(t).map_or(Probe::Miss, Probe::Id);
        match t {
            Term::Var(v) => {
                let (_, s) = self.deref(v + off);
                match s.tag {
                    Tag::Free => Probe::Free,
                    _ if !s.id.is_none() => Probe::Id(s.id),
                    Tag::App => {
                        let app = &self.heap[s.payload as usize];
                        if app.is_ground() {
                            ground(app)
                        } else {
                            Probe::Free
                        }
                    }
                    _ => ground(&self.term_of(0, s)),
                }
            }
            Term::App(..) if !t.is_ground() => Probe::Free,
            _ => ground(t),
        }
    }

    /// Unifies a goal argument (under offset `aoff`) directly against an
    /// interned *ground* term — the column-native unification step: a fact's
    /// argument is its arena id, and no row `Literal` is materialized.
    ///
    /// The fact side is ground by construction (only ground terms intern),
    /// which licenses an occurs-free fast path: binding a goal variable to a
    /// ground term can never create a cycle. A free variable is bound to the
    /// cell with its id; a variable bound with an id is compared id to id; a
    /// constant is compared against the arena-resident term. Partial
    /// bindings of a failed compound match are NOT undone here — callers
    /// bracket the whole fact attempt with [`Bindings::mark`] /
    /// [`Bindings::undo_to`], exactly as they do for
    /// [`Bindings::unify_literals_off`].
    #[inline]
    pub fn unify_term_id(&mut self, a: &Term, aoff: VarId, tid: TermId, arena: &TermArena) -> bool {
        debug_assert!(!tid.is_none(), "column cell must be interned");
        let ground = arena.term(tid);
        match a {
            Term::Var(v) => {
                let (abs, s) = self.deref(v + aoff);
                match s.tag {
                    Tag::Free => {
                        let slot = self.slot_for(ground, tid);
                        self.bind_slot(abs, slot);
                        true
                    }
                    _ if !s.id.is_none() => s.id == tid,
                    Tag::App => {
                        let app = self.heap[s.payload as usize].clone();
                        self.unify_off(&app, 0, ground, 0, false)
                    }
                    _ => self.term_of(abs, s) == *ground,
                }
            }
            Term::App(..) => self.unify_off(a, aoff, ground, 0, false),
            constant => constant == ground,
        }
    }

    /// Binds the unbound variable `x` to a view's value (with absolute
    /// variable ids, and the view's arena id).
    fn bind_view(&mut self, x: VarId, view: View<'_>) {
        let slot = match view {
            View::Var(y) => Slot::var(y),
            View::Sym(s, id) => Slot::new(Tag::Sym, id, s.0 as u64),
            View::Int(i, id) => Slot::new(Tag::Int, id, i as u64),
            View::Float(f, id) => Slot::new(Tag::Float, id, f.0.to_bits()),
            View::App(t, 0) => self.push_app(t.clone(), TermId::NONE),
            View::App(t, off) => self.push_app(t.offset_vars(off), TermId::NONE),
            View::OwnedApp(t, id) => self.push_app(t, id),
        };
        self.bind_slot(x, slot);
    }

    /// Unifies `a` and `b` under the current bindings, extending them on
    /// success. On failure the bindings are left as they were at entry.
    ///
    /// `occurs_check` guards against cyclic terms; coverage queries in ILP
    /// are against ground facts, so the check is usually disabled for speed.
    pub fn unify(&mut self, a: &Term, b: &Term, occurs_check: bool) -> bool {
        self.unify_pair(a, 0, b, 0, occurs_check)
    }

    /// Offset-aware [`Bindings::unify`]: shifts `a`'s variables by `aoff`
    /// and `b`'s by `boff` on the fly, undoing partial bindings on failure.
    /// This is the entry point for offset-aware builtins (`=`, `is`), which
    /// previously had to clone their goal literal to bake the offset in.
    pub fn unify_pair(
        &mut self,
        a: &Term,
        aoff: VarId,
        b: &Term,
        boff: VarId,
        occurs_check: bool,
    ) -> bool {
        let mark = self.mark();
        if self.unify_off(a, aoff, b, boff, occurs_check) {
            true
        } else {
            self.undo_to(mark);
            false
        }
    }

    /// Offset-aware unification: every variable in `a` is shifted by `aoff`
    /// and every variable in `b` by `boff`, without cloning either term.
    /// Partial bindings of a failed attempt are NOT undone here — callers
    /// bracket the attempt with [`Bindings::mark`]/[`Bindings::undo_to`].
    pub fn unify_off(
        &mut self,
        a: &Term,
        aoff: VarId,
        b: &Term,
        boff: VarId,
        occurs_check: bool,
    ) -> bool {
        let va = self.resolve_view(a, aoff);
        let vb = self.resolve_view(b, boff);
        match (va, vb) {
            (View::Var(x), View::Var(y)) => {
                if x != y {
                    self.bind_slot(x, Slot::var(y));
                }
                true
            }
            (View::Var(x), vb) => {
                if occurs_check && self.occurs_view(x, &vb) {
                    return false;
                }
                self.bind_view(x, vb);
                true
            }
            (va, View::Var(y)) => {
                if occurs_check && self.occurs_view(y, &va) {
                    return false;
                }
                self.bind_view(y, va);
                true
            }
            (View::Sym(x, _), View::Sym(y, _)) => x == y,
            (View::Int(x, _), View::Int(y, _)) => x == y,
            (View::Float(x, _), View::Float(y, _)) => x == y,
            // Two interned compounds are ground: equal exactly when their
            // ids are, and unifying them binds nothing.
            (View::OwnedApp(_, i), View::OwnedApp(_, j)) if !i.is_none() && !j.is_none() => i == j,
            (View::App(ta, oa), View::App(tb, ob)) => self.unify_args(ta, oa, tb, ob, occurs_check),
            (View::App(ta, oa), View::OwnedApp(tb, _)) => {
                self.unify_args(ta, oa, &tb, 0, occurs_check)
            }
            (View::OwnedApp(ta, _), View::App(tb, ob)) => {
                self.unify_args(&ta, 0, tb, ob, occurs_check)
            }
            (View::OwnedApp(ta, _), View::OwnedApp(tb, _)) => {
                self.unify_args(&ta, 0, &tb, 0, occurs_check)
            }
            _ => false,
        }
    }

    /// Pairwise unification of two compounds' arguments.
    fn unify_args(
        &mut self,
        a: &Term,
        aoff: VarId,
        b: &Term,
        boff: VarId,
        occurs_check: bool,
    ) -> bool {
        let (Term::App(f, xs), Term::App(g, ys)) = (a, b) else {
            unreachable!("unify_args called on non-compounds");
        };
        if f != g || xs.len() != ys.len() {
            return false;
        }
        xs.iter()
            .zip(ys.iter())
            .all(|(x, y)| self.unify_off(x, aoff, y, boff, occurs_check))
    }

    /// Occurs check against a walked view.
    fn occurs_view(&self, v: VarId, view: &View<'_>) -> bool {
        match view {
            View::Var(w) => *w == v,
            View::App(t, off) => self.occurs_in_args(v, t, *off),
            View::OwnedApp(t, _) => self.occurs_in_args(v, t, 0),
            _ => false,
        }
    }

    fn occurs_in_args(&self, v: VarId, t: &Term, off: VarId) -> bool {
        let Term::App(_, args) = t else { return false };
        args.iter().any(|a| {
            let view = self.resolve_view(a, off);
            self.occurs_view(v, &view)
        })
    }

    /// Unifies two literals (same predicate, same arity, pairwise args).
    pub fn unify_literals(&mut self, a: &Literal, b: &Literal, occurs_check: bool) -> bool {
        self.unify_literals_off(a, 0, b, 0, occurs_check)
    }

    /// Offset-aware literal unification (see [`Bindings::unify_off`]); undoes
    /// its partial bindings on failure.
    pub fn unify_literals_off(
        &mut self,
        a: &Literal,
        aoff: VarId,
        b: &Literal,
        boff: VarId,
        occurs_check: bool,
    ) -> bool {
        if a.pred != b.pred || a.args.len() != b.args.len() {
            return false;
        }
        let mark = self.mark();
        for (x, y) in a.args.iter().zip(b.args.iter()) {
            if !self.unify_off(x, aoff, y, boff, occurs_check) {
                self.undo_to(mark);
                return false;
            }
        }
        true
    }

    /// Clears all bindings and the trail, keeping slot capacity.
    pub fn clear(&mut self) {
        self.undo_to(Mark(0));
    }

    /// Clears all bindings and shrinks the slot vector back to `keep`
    /// addressable variables. Hot loops that reuse one store across many
    /// proofs call this between proofs so rename-apart offsets from one
    /// proof don't inflate the slot vector (and the fresh-variable base) of
    /// the next.
    pub fn reset(&mut self, keep: usize) {
        self.clear();
        self.slots.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn app(t: &SymbolTable, f: &str, args: Vec<Term>) -> Term {
        Term::app(t.intern(f), args)
    }

    #[test]
    fn unify_binds_and_resolves() {
        let t = SymbolTable::new();
        let mut b = Bindings::new();
        let x = Term::Var(0);
        let a = Term::Sym(t.intern("a"));
        assert!(b.unify(&x, &a, false));
        assert_eq!(b.resolve(&x), a);
    }

    #[test]
    fn unify_failure_undoes_partial_bindings() {
        let t = SymbolTable::new();
        let mut b = Bindings::new();
        // f(X, a) vs f(b, c): X gets bound to b before a/c clash; must undo.
        let lhs = app(&t, "f", vec![Term::Var(0), Term::Sym(t.intern("a"))]);
        let rhs = app(
            &t,
            "f",
            vec![Term::Sym(t.intern("b")), Term::Sym(t.intern("c"))],
        );
        assert!(!b.unify(&lhs, &rhs, false));
        assert!(b.lookup(0).is_none());
    }

    #[test]
    fn var_var_chains_walk() {
        let t = SymbolTable::new();
        let mut b = Bindings::new();
        assert!(b.unify(&Term::Var(0), &Term::Var(1), false));
        let a = Term::Sym(t.intern("a"));
        assert!(b.unify(&Term::Var(1), &a, false));
        assert_eq!(b.resolve(&Term::Var(0)), a);
    }

    #[test]
    fn occurs_check_blocks_cycles() {
        let t = SymbolTable::new();
        let mut b = Bindings::new();
        let fx = app(&t, "f", vec![Term::Var(0)]);
        assert!(!b.unify(&Term::Var(0), &fx, true));
        // Without the check, the cyclic binding is permitted (Prolog-style).
        assert!(b.unify(&Term::Var(0), &fx, false));
    }

    #[test]
    fn mark_undo_restores_state() {
        let t = SymbolTable::new();
        let mut b = Bindings::new();
        assert!(b.unify(&Term::Var(0), &Term::Sym(t.intern("a")), false));
        let m = b.mark();
        assert!(b.unify(&Term::Var(1), &Term::Sym(t.intern("b")), false));
        b.undo_to(m);
        assert!(b.lookup(0).is_some());
        assert!(b.lookup(1).is_none());
    }

    #[test]
    fn literal_unification_checks_pred_and_arity() {
        let t = SymbolTable::new();
        let mut b = Bindings::new();
        let p = crate::clause::Literal::new(t.intern("p"), vec![Term::Var(0)]);
        let q = crate::clause::Literal::new(t.intern("q"), vec![Term::Int(1)]);
        assert!(!b.unify_literals(&p, &q, false));
        let p2 = crate::clause::Literal::new(t.intern("p"), vec![Term::Int(1)]);
        assert!(b.unify_literals(&p, &p2, false));
        assert_eq!(b.resolve(&Term::Var(0)), Term::Int(1));
    }

    #[test]
    fn compounds_live_on_a_heap_that_follows_the_trail() {
        let t = SymbolTable::new();
        let mut b = Bindings::new();
        let f1 = app(&t, "f", vec![Term::Int(1)]);
        let g = app(&t, "g", vec![Term::Var(3)]);
        b.bind(0, f1.clone());
        let m = b.mark();
        b.bind(1, g.clone());
        b.bind(2, Term::Int(7));
        b.bind(3, Term::Sym(t.intern("a")));
        assert_eq!(b.heap.len(), 2);
        assert_eq!(
            b.resolve(&Term::Var(1)),
            app(&t, "g", vec![Term::Sym(t.intern("a"))])
        );
        b.undo_to(m);
        assert_eq!(b.heap, std::slice::from_ref(&f1));
        assert_eq!(b.lookup(0), Some(f1));
        assert_eq!(b.lookup(1), None);
        b.clear();
        assert!(b.heap.is_empty() && b.lookup(0).is_none());
    }

    #[test]
    fn a_bound_id_answers_the_probe() {
        let t = SymbolTable::new();
        let mut arena = TermArena::new();
        let a = Term::Sym(t.intern("a"));
        let id = arena.intern(&a);
        let mut b = Bindings::new();
        assert!(b.unify_term_id(&Term::Var(0), 0, id, &arena));
        assert_eq!(b.probe(&Term::Var(0), 0, &arena), Probe::Id(id));
        // An id survives a variable link and an offset.
        assert!(b.unify(&Term::Var(5), &Term::Var(0), false));
        assert_eq!(b.probe(&Term::Var(3), 2, &arena), Probe::Id(id));
        // Id to id: the bound cell matches its own id only.
        let other = arena.intern(&Term::Int(4));
        assert!(b.unify_term_id(&Term::Var(5), 0, id, &arena));
        assert!(!b.unify_term_id(&Term::Var(5), 0, other, &arena));
        // A value bound without an id falls back to the lookup.
        b.bind(1, Term::Int(4));
        b.bind(2, Term::Int(9));
        assert_eq!(b.probe(&Term::Var(1), 0, &arena), Probe::Id(other));
        assert_eq!(b.probe(&Term::Var(2), 0, &arena), Probe::Miss);
        assert_eq!(b.probe(&Term::Var(7), 0, &arena), Probe::Free);
    }
}
