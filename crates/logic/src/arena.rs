//! Interned ground-term storage (the compiled KB's term arena).
//!
//! Every ground argument of every fact is interned once into a per-KB
//! [`TermArena`] and referred to by a dense [`TermId`]. Fact storage then
//! becomes columnar `Vec<TermId>` (see `kb.rs`): one `u32` per argument
//! instead of one heap-boxed [`Term`] tree per occurrence, which both
//! shrinks the KB footprint (ILP background knowledge repeats the same
//! molecule/atom/element constants millions of times) and turns index
//! probing into a dense-integer hash lookup.
//!
//! The arena is append-only: ids are stable for the lifetime of the KB, so
//! posting lists and columns can hold raw `u32`s without invalidation.
//!
//! Since unification went column-native, the arena is also the
//! *unification source*: [`crate::subst::Bindings::unify_term_id`] binds a
//! free goal variable to `arena.term(cell)` — ground by construction, which
//! licenses the occurs-free fast path — and the binding keeps the cell's id.
//! From then on that variable is probed and compared by id, like a goal
//! argument whose id its probe found: the id is the value, so a cell is
//! read from the arena only when a free variable is bound to it. The
//! columnar tuples are the only per-fact storage a release build carries
//! (the row `Literal` store of earlier revisions is gone; see `kb.rs`).

use crate::fxhash::FxHashMap;
use crate::term::Term;

/// Dense identifier of an interned ground term.
///
/// `repr(transparent)` is load-bearing: fact storage is contiguous
/// `TermId` stripes (see `kb.rs`) that plan building and the prover's
/// ground compare read as plain `u32`s, so the id must be exactly a `u32`
/// with no padding or discriminant (the layout-audit test pins size and
/// alignment at 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct TermId(pub u32);
crate::wire_struct!(TermId { 0 });

impl TermId {
    /// Sentinel for "not interned" (a non-ground argument in a fact column).
    pub const NONE: TermId = TermId(u32::MAX);

    /// The raw index of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True when this is the [`TermId::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == TermId::NONE
    }
}

/// A goal argument resolved for index probing, the cached form of one
/// `arena.lookup(..)` — computed once per goal and shared by plan
/// construction ([`crate::kb::KnowledgeBase::fact_plan`]) and the ranked
/// walk's cell compare ([`crate::kb::RankedWalk::walk`]), instead of
/// re-resolving and re-hashing the argument per indexed position.
///
/// The three-way split mirrors the step-accounting contract exactly:
/// whether a position *probes* depends only on groundness
/// ([`Probe::is_ground`]), while what it can *match* depends on internment
/// — a ground-but-never-interned argument ([`Probe::Miss`]) probes like
/// any ground term but can equal no column cell, since the arena dedupes
/// (cell-id equality is term equality).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Not ground under the current bindings: cannot probe an index.
    Free,
    /// Ground but absent from the arena: probes, and matches nothing.
    Miss,
    /// Ground and interned as this id.
    Id(TermId),
}

impl Probe {
    /// True for the probing cases ([`Probe::Id`] and [`Probe::Miss`]).
    #[inline]
    pub fn is_ground(self) -> bool {
        !matches!(self, Probe::Free)
    }

    /// The probe key: the interned id, or [`TermId::NONE`] for a miss
    /// (which no posting key and no regular column cell can equal).
    /// Panics semantics-free on [`Probe::Free`] by returning the same
    /// match-nothing sentinel; callers check [`Probe::is_ground`] first.
    #[inline]
    pub fn tid(self) -> TermId {
        match self {
            Probe::Id(t) => t,
            Probe::Miss | Probe::Free => TermId::NONE,
        }
    }
}

impl std::fmt::Debug for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "term#none")
        } else {
            write!(f, "term#{}", self.0)
        }
    }
}

/// An append-only interner of ground terms.
///
/// Interning the same ground term twice yields the same [`TermId`], so id
/// equality is term equality and a column of ids can be compared or hashed
/// without touching the term structure.
#[derive(Default, Clone)]
pub struct TermArena {
    terms: Vec<Term>,
    map: FxHashMap<Term, TermId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a ground term, returning its stable id. The term is cloned
    /// only on first occurrence.
    ///
    /// Callers must only pass ground terms; interning a variable would make
    /// id-equality unsound (debug-checked).
    pub fn intern(&mut self, t: &Term) -> TermId {
        debug_assert!(t.is_ground(), "only ground terms may be interned");
        if let Some(&id) = self.map.get(t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        assert!(id.0 != u32::MAX, "term arena full");
        self.terms.push(t.clone());
        self.map.insert(t.clone(), id);
        id
    }

    /// Looks up an already-interned term without inserting.
    #[inline]
    pub fn lookup(&self, t: &Term) -> Option<TermId> {
        self.map.get(t).copied()
    }

    /// [`TermArena::lookup`] that tries a kept id first: `hint` is the
    /// answer when it names `t`, which costs one compare and no hash. Any
    /// other hint — [`TermId::NONE`], an id of another arena, an id this
    /// arena does not have yet — falls back to the lookup, so the answer
    /// never depends on where the hint came from.
    #[inline]
    pub fn lookup_hinted(&self, t: &Term, hint: TermId) -> Option<TermId> {
        match self.terms.get(hint.index()) {
            Some(held) if held == t => Some(hint),
            _ => self.lookup(t),
        }
    }

    /// The term behind `id`. Panics on [`TermId::NONE`] or a foreign id.
    #[inline]
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Releases over-reserved capacity (called once bulk loading is done).
    pub fn shrink_to_fit(&mut self) {
        self.terms.shrink_to_fit();
    }

    /// The interned terms in id order (term `i` has id `TermId(i)`); the
    /// serialized form a [`crate::snapshot::KbSnapshot`] captures.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Rebuilds an arena from terms in id order (the snapshot-load path).
    /// Only the reverse `Term -> TermId` map is recomputed — one hash insert
    /// per *distinct* term, not one per fact-argument occurrence as a full
    /// reload would pay. Fails on a non-ground or duplicate term (a snapshot
    /// this arena produced contains neither).
    pub fn from_terms(terms: Vec<Term>) -> Result<Self, &'static str> {
        let mut map = FxHashMap::default();
        map.reserve(terms.len());
        for (i, t) in terms.iter().enumerate() {
            if !t.is_ground() {
                return Err("non-ground arena term");
            }
            if map.insert(t.clone(), TermId(i as u32)).is_some() {
                return Err("duplicate arena term");
            }
        }
        Ok(TermArena { terms, map })
    }
}

impl std::fmt::Debug for TermArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TermArena({} terms)", self.terms.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let t = SymbolTable::new();
        let mut a = TermArena::new();
        let x = Term::Sym(t.intern("x"));
        let y = Term::Int(7);
        let i = a.intern(&x);
        let j = a.intern(&y);
        assert_eq!(a.intern(&x), i);
        assert_ne!(i, j);
        assert_eq!((i.index(), j.index()), (0, 1));
        assert_eq!(a.term(i), &x);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn compound_terms_dedupe_structurally() {
        let t = SymbolTable::new();
        let mut a = TermArena::new();
        let f = t.intern("f");
        let c1 = Term::app(f, vec![Term::Int(1), Term::Sym(t.intern("a"))]);
        let c2 = Term::app(f, vec![Term::Int(1), Term::Sym(t.intern("a"))]);
        assert_eq!(a.intern(&c1), a.intern(&c2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut a = TermArena::new();
        assert_eq!(a.lookup(&Term::Int(3)), None);
        let id = a.intern(&Term::Int(3));
        assert_eq!(a.lookup(&Term::Int(3)), Some(id));
    }

    #[test]
    fn a_hint_is_taken_only_when_it_names_the_term() {
        let mut a = TermArena::new();
        let (three, four) = (Term::Int(3), Term::Int(4));
        let id = a.intern(&three);
        assert_eq!(a.lookup_hinted(&three, id), Some(id));
        assert_eq!(a.lookup_hinted(&three, TermId::NONE), Some(id));
        assert_eq!(
            a.lookup_hinted(&four, id),
            None,
            "a wrong hint is looked past"
        );
        assert_eq!(a.lookup_hinted(&four, TermId(7)), None);
    }

    #[test]
    fn none_sentinel_is_distinct() {
        assert!(TermId::NONE.is_none());
        assert!(!TermId(0).is_none());
        assert_eq!(format!("{:?}", TermId::NONE), "term#none");
    }
}
