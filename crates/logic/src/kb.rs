//! Compiled, indexed clause store (the "database" role of YAP in the
//! paper's stack).
//!
//! Background knowledge in ILP applications is mostly *extensional* (ground
//! facts: atoms, bonds, edge properties...), plus a few intensional rules.
//! Per-worker memory is the scaling currency of the paper's design — every
//! rank holds the whole background KB, so fact-store bytes directly cap how
//! many ranks fit on a node. The store therefore keeps **one** resident
//! representation per `(predicate, arity)` relation, addressed by a dense
//! [`PredId`]:
//!
//! 1. **Contiguous column stripes** — every ground argument of every fact
//!    is interned into the per-KB [`TermArena`] and stored in one
//!    position-major stripe buffer per relation (`ColumnStripes`): the
//!    arguments at position `p` of facts `0..len` are one contiguous
//!    `&[TermId]` run ([`TermId::NONE`] for the rare non-ground argument).
//!    Stripes are simultaneously the *plan-building* substrate (one-compare
//!    membership tests) and the *unification target*: the prover matches a
//!    goal directly against a fact's id tuple via
//!    [`crate::subst::Bindings::unify_term_id`], so no row `Literal` is
//!    ever needed on the hot path — and a row's cells at the goal's ground
//!    positions are compared with the goal's probe ids
//!    ([`RankedWalk::walk`]) before the row costs a step attempt.
//! 2. **CSR posting lists** — for each of the first [`MAX_INDEXED_ARGS`]
//!    argument positions (unless pruned via
//!    [`KnowledgeBase::retain_indexes`], e.g. from mode declarations), a
//!    `PostingCsr`: sorted key array + offset array + one contiguous
//!    fact-index array, probed through a small radix directory over the
//!    keys (or, for a few dozen keys, by binary search) — no per-key heap
//!    allocation, no hashing, and the three arrays round-trip through
//!    snapshots verbatim. At query time the prover asks for a
//!    [`FactPlan`], one per goal ([`KnowledgeBase::fact_plan`]): the
//!    store picks the *most selective* bound position (hash-join style),
//!    so a `bond/4` goal bound on its second argument touches only that
//!    atom's bonds instead of scanning the molecule — or the whole
//!    relation (ROADMAP "index beyond first-arg").
//! 3. **Irregular rows** — the occasional fact with a non-ground argument
//!    cannot live in the arena; its original `Literal` is kept in a small
//!    index-sorted side list and unified row-at-a-time as before.
//!
//! No fact is kept a second time as a row `Literal`, in any build:
//! [`KnowledgeBase::facts_for`] rebuilds rows from the columns on demand.
//!
//! Rules are stored both as plain [`Clause`]s (what
//! [`KnowledgeBase::rules_for`] serves) and as
//! [`CompiledClause`]s whose body literals carry pre-resolved dispatch
//! ([`crate::clause::LitKind`]) and whose rename-apart variable span is
//! precomputed — per-goal dispatch in the optimized prover is array reads.
//!
//! Posting lists key *any ground* argument — atomic constants and ground
//! compound terms alike (the arena interns both), so a goal bound to e.g.
//! `at(7)` probes instead of scanning (ROADMAP "Compound probes").
//!
//! # Snapshots
//!
//! The whole compiled store — arena terms, columnar tuples, posting lists,
//! compiled rules, and the symbol dictionary — serializes as a
//! [`crate::snapshot::KbSnapshot`] via [`KnowledgeBase::to_snapshot`] /
//! [`KnowledgeBase::from_snapshot`]. A restore re-interns nothing, rebuilds
//! no index, and materializes no rows (only the reverse hash maps are
//! repopulated), which makes worker startup in the cluster substrate one
//! wire transfer (`Msg::KbSnapshot`) instead of a per-rank rebuild; see the
//! [`crate::snapshot`] module docs for the format and validation rules.
//!
//! # Step-accounting contract
//!
//! The inference-step count is the cluster substrate's virtual-time fuel,
//! pinned bit-identical to the seed semantics: a goal is charged one step
//! per candidate *the first-argument index would have enumerated* (plus one
//! per rule head tried).
//!
//! **R is the reference walk.** Throughout this module, R names the
//! enumeration that defines the contract. Dereference the goal's first
//! argument through its variable bindings, at the top level only (a
//! compound whose own variables are bound is not substituted, so it is not
//! ground). If that term is ground, R is the facts whose first argument
//! equals it, then the facts whose first argument is not ground; otherwise
//! — a free or partly unbound first argument, or a predicate of arity 0 — R
//! is every fact. Both segments keep assertion order. The reference prover
//! of `tests/oracle/mod.rs` computes R from plain fact rows and is what the
//! differential tests hold the product to. The position-0 posting list is
//! never pruned, precisely because R is defined in terms of it.
//!
//! **One ranked walk.** A goal with no ground argument past the first tries
//! every row of R ([`FactPlan::All`], [`FactPlan::Seq`]). Any other goal
//! walks R by rank ([`FactPlan::Ranked`]): a row whose cell at one of those
//! positions holds a different ground term than the goal's is skipped
//! without a step attempt, and the prover charges the skipped rows by rank
//! in bulk — each would have cost one step and failed. A row with no term
//! in such a cell (an irregular row) is tried, and unified from its stored
//! literal. So every plan tries a subset of R in R's order and charges the
//! rest, and the step that crosses the budget lands where R's would; the
//! walk changes how a row's failure is found, never which rows R contains
//! or the order they are charged in. When R is the whole relation, a row's
//! rank is the row itself, and the posting of the most selective ground
//! position may hand the walk its candidates instead of every row.

use crate::arena::{Probe, TermArena, TermId};
use crate::builtins::BuiltinTable;
use crate::clause::{Clause, CompiledClause, CompiledGoals, CompiledLiteral, LitKind, Literal};
use crate::clause::{PredId, PredKey};
use crate::fxhash::FxHashMap;
use crate::symbol::{SymbolId, SymbolTable};
use crate::term::Term;
use p2mdie_obs::metrics::hot;
use std::ops::ControlFlow;

/// How many leading argument positions get a posting-list index by default.
pub const MAX_INDEXED_ARGS: usize = 4;

/// A goal with a free first argument walks the whole relation; one of at
/// most this many facts walks it without probing the postings of its other
/// ground positions. A probe costs a posting search per indexed position,
/// which only pays off against a walk of some length (the scans worth
/// narrowing sit in the thousands).
const NARROW_MIN: u64 = 64;

/// Contiguous position-major fact storage: one `TermId` stripe per argument
/// position, all stripes in a single allocation. `cell(p, f)` is
/// `data[p * cap + f]`, so the stripe for position `p` is one contiguous
/// `&[TermId]` run — which is what lets the ranked walk's column compare
/// stream a position with plain slice loads instead of chasing one `Vec`
/// pointer per position.
///
/// Growth is capacity-strided: stripes are laid out at stride `cap >= len`
/// and appending past `cap` re-lays the buffer at double the stride (O(1)
/// amortized per cell, like `Vec`). [`ColumnStripes::shrink_to_fit`]
/// compacts to `cap == len`, after which consecutive stripes are exactly
/// adjacent — `stripe(p + 1)` begins where `stripe(p)` ends — the form the
/// snapshot codec captures verbatim ([`ColumnStripes::compact_data`] /
/// [`ColumnStripes::from_compact`]) and the layout-audit test asserts.
///
/// An arity-0 relation stores no cells; only `len` counts its facts.
#[derive(Debug, Clone)]
pub(crate) struct ColumnStripes {
    data: Vec<TermId>,
    arity: u32,
    len: u32,
    cap: u32,
}

impl ColumnStripes {
    pub(crate) fn new(arity: usize) -> Self {
        ColumnStripes {
            data: Vec::new(),
            arity: arity as u32,
            len: 0,
            cap: 0,
        }
    }

    /// Number of argument positions (stripes).
    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Number of fact rows.
    #[inline]
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Fact `row`'s argument at `pos`.
    #[inline]
    pub(crate) fn cell(&self, pos: usize, row: u32) -> TermId {
        debug_assert!(pos < self.arity() && row < self.len);
        self.data[pos * self.cap as usize + row as usize]
    }

    /// The contiguous stripe of position `pos`: arguments of rows `0..len`.
    #[inline]
    pub(crate) fn stripe(&self, pos: usize) -> &[TermId] {
        debug_assert!(pos < self.arity());
        let start = pos * self.cap as usize;
        &self.data[start..start + self.len as usize]
    }

    /// Appends one fact row (`cells.len()` must equal the arity).
    pub(crate) fn push_row(&mut self, cells: &[TermId]) {
        debug_assert_eq!(cells.len(), self.arity());
        if self.arity == 0 {
            // No cells to store; keep `cap == len` so the compact invariant
            // holds trivially.
            self.len += 1;
            self.cap = self.len;
            return;
        }
        if self.len == self.cap {
            self.relayout((self.cap * 2).max(8));
        }
        let (cap, row) = (self.cap as usize, self.len as usize);
        for (p, &tid) in cells.iter().enumerate() {
            self.data[p * cap + row] = tid;
        }
        self.len += 1;
    }

    /// Re-lays the buffer at stride `new_cap` (>= len), copying each stripe.
    fn relayout(&mut self, new_cap: u32) {
        debug_assert!(new_cap >= self.len);
        let (arity, len) = (self.arity(), self.len as usize);
        let stride = new_cap as usize;
        let mut data = vec![TermId::NONE; arity * stride];
        for p in 0..arity {
            let old = p * self.cap as usize;
            data[p * stride..p * stride + len].copy_from_slice(&self.data[old..old + len]);
        }
        self.data = data;
        self.cap = new_cap;
    }

    /// Compacts to `cap == len` (adjacent stripes, zero slack) and releases
    /// over-allocation. Called from [`KnowledgeBase::optimize`].
    pub(crate) fn shrink_to_fit(&mut self) {
        if self.cap != self.len {
            self.relayout(self.len);
        }
        self.data.shrink_to_fit();
    }

    /// The concatenated compact stripes (`arity * len` cells) — the
    /// snapshot form, identical to the resident buffer once compacted.
    pub(crate) fn compact_data(&self) -> Vec<TermId> {
        if self.cap == self.len {
            return self.data[..self.arity() * self.len as usize].to_vec();
        }
        let (arity, cap, len) = (self.arity(), self.cap as usize, self.len as usize);
        let mut out = Vec::with_capacity(arity * len);
        for p in 0..arity {
            out.extend_from_slice(&self.data[p * cap..p * cap + len]);
        }
        out
    }

    /// Adopts snapshot data without copying (`data.len()` must be
    /// `arity * len`; the snapshot loader validates this before calling).
    pub(crate) fn from_compact(arity: usize, len: u32, data: Vec<TermId>) -> Self {
        debug_assert_eq!(data.len(), arity * len as usize);
        ColumnStripes {
            data,
            arity: arity as u32,
            len,
            cap: len,
        }
    }
}

/// One position's posting index in CSR (compressed sparse row) form:
/// `keys` holds the distinct ground-term ids in strictly ascending order,
/// `offs[k]..offs[k + 1]` delimits key `k`'s run inside `idx`, and each run
/// is an ascending list of fact indices. A sealed posting is exactly three
/// contiguous arrays, which is both the resident layout and the
/// snapshot/wire layout (adopted on restore without rebuilding); the sorted
/// key array also makes the snapshot encoding inherently canonical. There
/// is no per-key heap allocation and no hashing.
///
/// Probing a sealed posting of more than a few dozen keys is one read of
/// its [`KeyDirectory`] — a radix table over the sorted keys, at most half
/// a `u32` per key — and a search of the few keys of one bucket; the
/// directory is derived from `keys` by [`PostingCsr::seal`] and
/// [`PostingCsr::from_parts`], is no part of a snapshot, and is dropped by
/// the merge that changes `keys`. A posting without one — between a merge
/// and the next seal, or of [`KeyDirectory::MIN_KEYS`] keys or fewer —
/// probes by one binary search over `keys`.
///
/// Incremental asserts append to a small `pending` side buffer (the global
/// fact counter only grows, so a key's pending hits always sort after its
/// sealed run); the buffer is merged into the CSR arrays amortized by
/// [`PostingCsr::insert`] and unconditionally by [`PostingCsr::seal`]
/// (called from [`KnowledgeBase::optimize`]). Probes between merges stay
/// exact: [`PostingCsr::hits`] splices pending matches after the sealed
/// run, preserving ascending fact order.
#[derive(Debug, Clone)]
pub(crate) struct PostingCsr {
    keys: Vec<TermId>,
    offs: Vec<u32>,
    idx: Vec<u32>,
    pending: Vec<(TermId, u32)>,
    dir: Option<KeyDirectory>,
}

/// A radix directory over the sorted keys of a sealed [`PostingCsr`]:
/// bucket `b` holds the keys with `(key - base) >> shift == b`, and
/// `first[b]..first[b + 1]` is where they sit in the key array. The shift is
/// the smallest that keeps `first` at half an entry per key, so a bucket of
/// evenly spread ids holds two keys and a probe reads one entry pair and
/// searches a few adjacent keys, where a binary search over a relation's
/// thousands of keys is a dozen dependent loads across as many cache
/// lines. Ids that cluster crowd their buckets, and a crowded bucket is
/// just a longer search.
#[derive(Debug, Clone)]
struct KeyDirectory {
    first: Box<[u32]>,
    base: u32,
    shift: u32,
}

impl KeyDirectory {
    /// Key arrays up to this long get no directory: a binary search crosses
    /// them in six steps inside four cache lines, which the directory's own
    /// two loads do not beat (`pyrimidines`' postings have 12 and 55 keys
    /// and its proofs ran 15 % slower through one).
    const MIN_KEYS: usize = 64;

    /// The directory of `keys` (strictly ascending), if they are worth one.
    fn build(keys: &[TermId]) -> Option<Self> {
        let (&TermId(base), &TermId(last)) = (keys.first()?, keys.last()?);
        if keys.len() <= Self::MIN_KEYS {
            return None;
        }
        let span = last - base;
        let mut shift = 0;
        while (span >> shift) as usize + 2 > keys.len() / 2 {
            shift += 1;
        }
        let buckets = (span >> shift) as usize + 1;
        let mut first = Vec::with_capacity(buckets + 1);
        let mut k = 0;
        for b in 0..=buckets {
            while k < keys.len() && (((keys[k].0 - base) >> shift) as usize) < b {
                k += 1;
            }
            first.push(k as u32);
        }
        Some(KeyDirectory {
            first: first.into_boxed_slice(),
            base,
            shift,
        })
    }

    /// The position of `tid` in `keys`, the array this was built from.
    #[inline]
    fn find(&self, keys: &[TermId], tid: TermId) -> Option<usize> {
        // Below the first key there is no bucket; past the last one —
        // where [`TermId::NONE`] sorts — no entry pair.
        let b = (tid.0.checked_sub(self.base)? >> self.shift) as usize;
        let lo = *self.first.get(b)? as usize;
        let hi = *self.first.get(b + 1)? as usize;
        Some(lo + keys[lo..hi].binary_search(&tid).ok()?)
    }
}

impl PostingCsr {
    pub(crate) fn new() -> Self {
        PostingCsr {
            keys: Vec::new(),
            offs: vec![0],
            idx: Vec::new(),
            pending: Vec::new(),
            dir: None,
        }
    }

    /// Adopts validated snapshot arrays verbatim (no per-key work but the
    /// one pass that derives the key directory).
    pub(crate) fn from_parts(keys: Vec<TermId>, offs: Vec<u32>, idx: Vec<u32>) -> Self {
        debug_assert_eq!(offs.len(), keys.len() + 1);
        PostingCsr {
            dir: KeyDirectory::build(&keys),
            keys,
            offs,
            idx,
            pending: Vec::new(),
        }
    }

    /// Records `fact` under `tid`, merging the pending buffer into the CSR
    /// arrays once it grows past an amortization threshold (capped so a
    /// probe's pending scan stays short even mid-bulk-load of a huge
    /// relation).
    pub(crate) fn insert(&mut self, tid: TermId, fact: u32) {
        debug_assert!(!tid.is_none());
        self.pending.push((tid, fact));
        if self.pending.len() >= (self.idx.len() / 4).clamp(64, 4096) {
            self.merge_pending();
        }
    }

    /// Merges pending inserts into the sealed arrays. Stable sort by key:
    /// same-key pushes keep insertion (= ascending fact) order.
    fn merge_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_by_key(|&(tid, _)| tid);
        let mut keys = Vec::with_capacity(self.keys.len() + self.pending.len());
        let mut offs = Vec::with_capacity(self.keys.len() + self.pending.len() + 1);
        let mut idx = Vec::with_capacity(self.idx.len() + self.pending.len());
        offs.push(0);
        let (mut k, mut p) = (0usize, 0usize);
        while k < self.keys.len() || p < self.pending.len() {
            let key = match (self.keys.get(k), self.pending.get(p)) {
                (Some(&a), Some(&(b, _))) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&(b, _))) => b,
                (None, None) => unreachable!("loop guard"),
            };
            if self.keys.get(k) == Some(&key) {
                idx.extend_from_slice(&self.idx[self.offs[k] as usize..self.offs[k + 1] as usize]);
                k += 1;
            }
            while p < self.pending.len() && self.pending[p].0 == key {
                idx.push(self.pending[p].1);
                p += 1;
            }
            keys.push(key);
            offs.push(idx.len() as u32);
        }
        self.keys = keys;
        self.offs = offs;
        self.idx = idx;
        self.pending.clear();
        self.dir = None;
    }

    /// Merges any pending inserts and releases slack capacity — the
    /// bulk-load seal point.
    pub(crate) fn seal(&mut self) {
        self.merge_pending();
        self.keys.shrink_to_fit();
        self.offs.shrink_to_fit();
        self.idx.shrink_to_fit();
        self.pending = Vec::new();
        self.dir = KeyDirectory::build(&self.keys);
    }

    /// All hits for `tid` in ascending fact order: the CSR run borrowed
    /// directly in the sealed case, an owned splice of run + pending
    /// matches otherwise (pending facts are strictly newer, so they append
    /// in order).
    pub(crate) fn hits(&self, tid: TermId) -> Hits<'_> {
        // The sealed run: empty when absent — including the
        // [`TermId::NONE`] probe of an uninterned term, which sorts above
        // every real key.
        let found = match &self.dir {
            Some(dir) => dir.find(&self.keys, tid),
            None => self.keys.binary_search(&tid).ok(),
        };
        let run: &[u32] = match found {
            Some(k) => &self.idx[self.offs[k] as usize..self.offs[k + 1] as usize],
            None => &[],
        };
        if self.pending.is_empty() || !self.pending.iter().any(|&(t, _)| t == tid) {
            return Hits::Run(run);
        }
        let mut out = run.to_vec();
        out.extend(
            self.pending
                .iter()
                .filter(|&&(t, _)| t == tid)
                .map(|&(_, f)| f),
        );
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
        Hits::Owned(out)
    }

    /// The merged CSR arrays as owned vectors — the `&self` snapshot/
    /// accounting path (clones and merges when pending inserts exist; cold).
    pub(crate) fn merged_parts(&self) -> (Vec<TermId>, Vec<u32>, Vec<u32>) {
        if self.pending.is_empty() {
            (self.keys.clone(), self.offs.clone(), self.idx.clone())
        } else {
            let mut c = self.clone();
            c.merge_pending();
            (c.keys, c.offs, c.idx)
        }
    }

    /// Exact heap bytes at logical (length, not capacity) sizes, the key
    /// directory included.
    fn heap_bytes(&self) -> usize {
        let dir = self.dir.as_ref().map_or(0, |d| d.first.len());
        (self.keys.len() + self.offs.len() + self.idx.len() + dir) * std::mem::size_of::<u32>()
            + self.pending.len() * std::mem::size_of::<(TermId, u32)>()
    }
}

/// Posting hits for one probe: a borrow of the sealed CSR run in the
/// common case, an owned splice when un-merged pending inserts exist.
/// Derefs to an ascending `&[u32]` of fact indices.
#[derive(Debug)]
pub enum Hits<'a> {
    /// Borrowed sealed run.
    Run(&'a [u32]),
    /// Owned merge of sealed run + pending hits (bulk-load window only).
    Owned(Vec<u32>),
}

impl std::ops::Deref for Hits<'_> {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            Hits::Run(s) => s,
            Hits::Owned(v) => v,
        }
    }
}

/// Reusable per-goal [`Probe`] vectors: the prover draws one per goal and
/// returns it when the goal's plan is consumed, so steady-state planning
/// allocates nothing. (A plan's own buffers — the posting splice of an
/// unsealed store, the merge of a narrowing posting with non-ground rows —
/// are allocated where they arise; no benchmark workload's operation builds
/// one.)
#[derive(Debug, Default)]
pub struct PlanScratch {
    probes: Vec<Vec<Probe>>,
}

impl PlanScratch {
    /// An empty pool (buffers materialize on first recycle).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn take_probes(&mut self) -> Vec<Probe> {
        self.probes.pop().unwrap_or_default()
    }

    pub(crate) fn recycle_probes(&mut self, mut v: Vec<Probe>) {
        v.clear();
        self.probes.push(v);
    }
}

/// Per-predicate storage: columnar facts with posting-list indexes, plus
/// rules in plain and compiled form. (`pub(crate)` so the snapshot module
/// can capture and restore it field-for-field.)
#[derive(Debug, Clone)]
pub(crate) struct PredEntry {
    /// Number of facts (stripes are per-position, so an arity-0 relation
    /// has no cell to count).
    pub(crate) len: u32,
    /// Contiguous stripe buffer covering **every** argument position:
    /// `cols.cell(p, f)` is fact `f`'s argument `p` as an interned id
    /// ([`TermId::NONE`] for a non-ground argument, which then has its row
    /// in `irregular`).
    pub(crate) cols: ColumnStripes,
    /// `(fact index, original literal)` for facts with at least one
    /// non-ground argument, index-ascending. These unify row-at-a-time.
    pub(crate) irregular: Vec<(u32, Literal)>,
    /// CSR posting lists per indexed position
    /// (`min(arity, MAX_INDEXED_ARGS)`): ground-term id -> ascending fact
    /// indices. `None` = index pruned.
    pub(crate) postings: Vec<Option<PostingCsr>>,
    /// Per indexed position: facts whose argument there is *not* ground
    /// (they match any probe, so every plan includes them).
    pub(crate) unindexed: Vec<Vec<u32>>,
    pub(crate) rules: Vec<Clause>,
    pub(crate) crules: Vec<CompiledClause>,
}

impl PredEntry {
    pub(crate) fn new(arity: usize) -> Self {
        let indexed = arity.min(MAX_INDEXED_ARGS);
        PredEntry {
            len: 0,
            cols: ColumnStripes::new(arity),
            irregular: Vec::new(),
            postings: (0..indexed).map(|_| Some(PostingCsr::new())).collect(),
            unindexed: vec![Vec::new(); indexed],
            rules: Vec::new(),
            crules: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0 && self.rules.is_empty()
    }

    /// The irregular (non-ground) row at `idx`, if that fact has one.
    #[inline]
    fn irregular_row(&self, idx: u32) -> Option<&Literal> {
        if self.irregular.is_empty() {
            return None;
        }
        self.irregular
            .binary_search_by_key(&idx, |(f, _)| *f)
            .ok()
            .map(|k| &self.irregular[k].1)
    }

    /// Rebuilds fact `idx`'s row literal from the columns (irregular rows
    /// are served from their stored originals).
    fn rebuild_row(&self, pred: SymbolId, arena: &TermArena, idx: u32) -> Literal {
        if let Some(l) = self.irregular_row(idx) {
            return l.clone();
        }
        let args: Vec<Term> = (0..self.cols.arity())
            .map(|p| {
                let tid = self.cols.cell(p, idx);
                debug_assert!(!tid.is_none(), "regular row has only interned cells");
                arena.term(tid).clone()
            })
            .collect();
        Literal::new(pred, args)
    }
}

/// A knowledge base: interned symbols and terms, indexed columnar facts,
/// and compiled rules.
#[derive(Clone)]
pub struct KnowledgeBase {
    pub(crate) syms: SymbolTable,
    pub(crate) builtins: BuiltinTable,
    pub(crate) arena: TermArena,
    pub(crate) pred_index: FxHashMap<PredKey, PredId>,
    pub(crate) keys: Vec<PredKey>,
    pub(crate) entries: Vec<PredEntry>,
    pub(crate) num_facts: usize,
    pub(crate) num_rules: usize,
}

impl KnowledgeBase {
    /// Creates an empty KB sharing `syms`.
    pub fn new(syms: SymbolTable) -> Self {
        let builtins = BuiltinTable::new(&syms);
        KnowledgeBase {
            syms,
            builtins,
            arena: TermArena::new(),
            pred_index: FxHashMap::default(),
            keys: Vec::new(),
            entries: Vec::new(),
            num_facts: 0,
            num_rules: 0,
        }
    }

    /// The symbol table this KB interns against.
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// The builtin-predicate table.
    pub fn builtins(&self) -> &BuiltinTable {
        &self.builtins
    }

    /// The ground-term arena backing the columnar fact store.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// The dense id of `key`, if the KB has an entry for it.
    #[inline]
    pub fn pred_id(&self, key: PredKey) -> Option<PredId> {
        self.pred_index.get(&key).copied()
    }

    /// The dense id of `key`, allocating an (empty) entry when absent.
    pub fn pred_id_or_insert(&mut self, key: PredKey) -> PredId {
        if let Some(&id) = self.pred_index.get(&key) {
            return id;
        }
        let id = PredId(self.entries.len() as u32);
        self.pred_index.insert(key, id);
        self.keys.push(key);
        self.entries.push(PredEntry::new(key.arity as usize));
        id
    }

    /// Adds a fact. Every ground argument is interned into the arena and
    /// stored columnar; a fact with a non-ground argument additionally
    /// keeps its original literal in the entry's irregular side list.
    ///
    /// Late arrivals compose with every earlier store mutation: positions
    /// pruned via [`KnowledgeBase::retain_indexes`] stay pruned (no posting
    /// is re-created, no `unindexed` entry drifts in), and a KB restored
    /// from a snapshot indexes the new fact exactly as a fresh build would.
    pub fn assert_fact(&mut self, fact: Literal) {
        let tids: Vec<TermId> = fact
            .args
            .iter()
            .map(|a| {
                if a.is_ground() {
                    self.arena.intern(a)
                } else {
                    TermId::NONE
                }
            })
            .collect();
        let pid = self.pred_id_or_insert(fact.key());
        let entry = &mut self.entries[pid.index()];
        let idx = entry.len;
        let mut regular = true;
        for (p, &tid) in tids.iter().enumerate() {
            regular &= !tid.is_none();
            if p >= entry.postings.len() {
                continue;
            }
            match &mut entry.postings[p] {
                // Every ground argument — atomic *or compound* — is interned
                // and posted under its arena id, so goals bound to a ground
                // compound probe instead of scanning (ROADMAP "Compound
                // probes").
                Some(csr) if !tid.is_none() => csr.insert(tid, idx),
                Some(_) => entry.unindexed[p].push(idx),
                None => {} // position pruned; late facts must not revive it
            }
        }
        entry.cols.push_row(&tids);
        if !regular {
            entry.irregular.push((idx, fact));
        }
        entry.len += 1;
        self.num_facts += 1;
    }

    /// Adds a clause; facts route to the fact store, rules to the rule list.
    pub fn assert(&mut self, clause: Clause) {
        if clause.is_fact() && clause.head.is_ground() {
            self.assert_fact(clause.head);
        } else {
            self.assert_rule(clause);
        }
    }

    /// Adds a rule (non-empty body or non-ground head), compiling its body
    /// dispatch eagerly. Predicates first seen in the body get (empty)
    /// entries, so their [`PredId`]s are stable if facts or rules for them
    /// arrive later. A rule whose variables are not dense is stored
    /// renumbered ([`Clause::dense`]): every expansion advances the
    /// prover's fresh-variable base by the rule's span.
    pub fn assert_rule(&mut self, rule: Clause) {
        let rule = rule.dense().into_owned();
        let var_span = rule.var_span();
        let body: Box<[CompiledLiteral]> = rule
            .body
            .iter()
            .map(|l| {
                let kind = self.litkind_or_insert(l);
                CompiledLiteral {
                    lit: l.clone(),
                    kind,
                }
            })
            .collect();
        let compiled = CompiledClause {
            head: rule.head.clone(),
            body,
            var_span,
        };
        let pid = self.pred_id_or_insert(rule.head.key());
        let entry = &mut self.entries[pid.index()];
        entry.rules.push(rule);
        entry.crules.push(compiled);
        self.num_rules += 1;
    }

    fn litkind_or_insert(&mut self, l: &Literal) -> LitKind {
        if let Some(b) = self.builtins.get(l.pred) {
            return LitKind::Builtin(b);
        }
        LitKind::Pred(self.pred_id_or_insert(l.key()))
    }

    /// Resolves a goal literal's dispatch without mutating the KB (the
    /// query-compilation path: the prover holds `&KnowledgeBase`).
    pub fn litkind(&self, l: &Literal) -> LitKind {
        if let Some(b) = self.builtins.get(l.pred) {
            return LitKind::Builtin(b);
        }
        match self.pred_id(l.key()) {
            Some(id) => LitKind::Pred(id),
            None => LitKind::Unknown,
        }
    }

    /// Compiles one goal literal (see [`KnowledgeBase::compile_goals`]).
    pub fn compile_literal(&self, l: &Literal) -> CompiledLiteral {
        CompiledLiteral {
            lit: l.clone(),
            kind: self.litkind(l),
        }
    }

    /// Compiles a query literal by *moving* it into its compiled form — no
    /// clone, no allocation. Pair with
    /// [`crate::prover::Prover::solutions_compiled_reusing`] for the
    /// allocation-free saturation query path.
    pub fn compile_query(&self, l: Literal) -> CompiledLiteral {
        CompiledLiteral {
            kind: self.litkind(&l),
            lit: l,
        }
    }

    /// Compiles a goal conjunction for repeated proving. Predicate and
    /// builtin dispatch is resolved once here; per-goal work in the prover
    /// becomes array reads. Compile once per rule evaluation, not per
    /// example.
    pub fn compile_goals(&self, goals: &[Literal]) -> CompiledGoals {
        CompiledGoals {
            lits: goals.iter().map(|l| self.compile_literal(l)).collect(),
            var_span: goals
                .iter()
                .filter_map(Literal::max_var)
                .max()
                .map_or(0, |v| v + 1),
        }
    }

    /// Compiled rules whose head predicate is `id` (assertion order).
    #[inline]
    pub fn rules_compiled(&self, id: PredId) -> &[CompiledClause] {
        &self.entries[id.index()].crules
    }

    /// The column-native view of predicate `id`'s facts — the unification
    /// target once a plan has selected candidates. A candidate row unifies
    /// cell-by-cell against the goal via
    /// [`crate::subst::Bindings::unify_term_id`]; the rare irregular (non-
    /// ground) row falls back to row-at-a-time literal unification.
    #[inline]
    pub fn fact_cols(&self, id: PredId) -> FactCols<'_> {
        FactCols {
            entry: &self.entries[id.index()],
            arena: &self.arena,
        }
    }

    /// Builds the retrieval plan for a goal on predicate `id`.
    ///
    /// `probes` carries the goal's arguments pre-resolved to [`Probe`]s,
    /// one per argument position (see
    /// [`crate::subst::Bindings::probe`]) — resolved once by the caller
    /// and shared by plan construction and the walk.
    ///
    /// The plan enumerates R, the reference walk, in R's order: every row
    /// of it when no argument past the first is ground, otherwise the rows
    /// [`RankedWalk::walk`] admits — see the module docs for the step
    /// contract.
    pub fn fact_plan<'a>(&'a self, id: PredId, probes: &[Probe]) -> FactPlan<'a> {
        let entry = &self.entries[id.index()];
        debug_assert_eq!(probes.len(), entry.cols.arity());
        let n = entry.len;
        if n == 0 {
            return FactPlan::Empty;
        }
        // The first ground position past R's key, if any: the walk's.
        let first = (1..probes.len()).find(|&p| probes[p].is_ground());
        if !entry.postings.is_empty() && probes[0].is_ground() {
            // R keyed on the first argument: its posting hits, then the
            // facts whose first argument is not ground (the module docs
            // define R; R *is* the step-accounting contract). A ground but
            // uninterned probe keys [`TermId::NONE`], which matches no
            // posting key: empty hits. Position 0 is never pruned —
            // `retain_indexes` keeps it and snapshot validation rejects a
            // store without it.
            let posting = entry.postings[0]
                .as_ref()
                .expect("invariant: position-0 posting list is never pruned");
            let hits = posting.hits(probes[0].tid());
            // Reference-probe selectivity (position 0 only: that probe
            // defines R). One relaxed load when sampling is off.
            if hits.is_empty() {
                hot::posting_probe_miss();
            } else {
                hot::posting_probe_hit();
            }
            let unindexed = entry.unindexed[0].as_slice();
            let Some(first) = first else {
                return FactPlan::Seq {
                    indexed: hits,
                    unindexed,
                };
            };
            return FactPlan::Ranked(RankedWalk {
                cols: &entry.cols,
                total: (hits.len() + unindexed.len()) as u64,
                rows: WalkRows::Keyed(hits, unindexed),
                first,
            });
        }
        let Some(first) = first else {
            return FactPlan::All { n };
        };

        // R is the whole relation, so a row's rank is the row itself, and
        // the most selective posting of a ground position (hash-join
        // choice, by hits plus position-unindexable facts) hands the walk
        // its candidates when it halves a walk of some length.
        let mut rows = WalkRows::All(n);
        if n as u64 > NARROW_MIN {
            // A posting must halve the walk (2 · size < n) and beat the
            // best one so far.
            let mut bound = (n as usize).div_ceil(2);
            for (p, posting) in entry.postings.iter().enumerate().skip(1) {
                let Some(posting) = posting.as_ref().filter(|_| probes[p].is_ground()) else {
                    continue;
                };
                let mut hits = posting.hits(probes[p].tid());
                let un = entry.unindexed[p].as_slice();
                if hits.len() + un.len() >= bound {
                    continue;
                }
                bound = hits.len() + un.len();
                if !un.is_empty() {
                    hits = Hits::Owned(merge_sorted(&hits, un));
                }
                rows = WalkRows::Posting(hits);
            }
        }
        FactPlan::Ranked(RankedWalk {
            cols: &entry.cols,
            rows,
            total: n as u64,
            first,
        })
    }

    /// Test/debug view of [`KnowledgeBase::fact_plan`]: the fact indices the
    /// prover tries, in R's order, and R's size, for a goal with the given
    /// per-position ground terms (free variables elsewhere).
    pub fn plan_candidates(&self, key: PredKey, bound: &[Option<Term>]) -> (Vec<u32>, u64) {
        let Some(id) = self.pred_id(key) else {
            return (Vec::new(), 0);
        };
        // Mirror the prover's probe contract: only ground terms probe, and
        // an uninterned ground term probes as a miss.
        let probes: Vec<Probe> = (0..key.arity as usize)
            .map(|p| match bound.get(p).and_then(|o| o.as_ref()) {
                Some(t) if t.is_ground() => self.arena.lookup(t).map_or(Probe::Miss, Probe::Id),
                _ => Probe::Free,
            })
            .collect();
        let plan = self.fact_plan(id, &probes);
        match plan {
            FactPlan::Empty => (Vec::new(), 0),
            FactPlan::All { n } => ((0..n).collect(), n as u64),
            FactPlan::Seq { indexed, unindexed } => {
                let mut v = indexed.to_vec();
                v.extend_from_slice(unindexed);
                let total = v.len() as u64;
                (v, total)
            }
            FactPlan::Ranked(walk) => {
                let mut v = Vec::new();
                let _ = walk.walk(&probes, |row, _| {
                    v.push(row);
                    ControlFlow::<()>::Continue(())
                });
                (v, walk.total)
            }
        }
    }

    /// Prunes the posting lists of `key` down to `keep` argument positions
    /// (position 0 is always retained: it defines the reference candidate
    /// set). Callers with a language bias — mode declarations say which
    /// positions ever arrive bound — use this to drop indexes that can
    /// never be probed. Facts asserted *after* pruning respect it: pruned
    /// positions get neither postings nor `unindexed` entries.
    pub fn retain_indexes(&mut self, key: PredKey, keep: &[usize]) {
        let pid = self.pred_id_or_insert(key);
        let entry = &mut self.entries[pid.index()];
        for p in 1..entry.postings.len() {
            if !keep.contains(&p) {
                entry.postings[p] = None;
                entry.unindexed[p] = Vec::new();
            }
        }
    }

    /// Releases load-time over-allocation and seals the indexes: the arena
    /// shrinks, stripe buffers compact to exact adjacency (`cap == len`),
    /// and every CSR posting merges its pending inserts into the three
    /// contiguous arrays. Call once after bulk construction. (Everything
    /// stays correct without it — probes splice pending hits on the fly —
    /// but sealed postings are what the zero-copy snapshot operates on.)
    pub fn optimize(&mut self) {
        self.arena.shrink_to_fit();
        for entry in &mut self.entries {
            entry.irregular.shrink_to_fit();
            entry.cols.shrink_to_fit();
            for posting in entry.postings.iter_mut().flatten() {
                posting.seal();
            }
            for un in &mut entry.unindexed {
                un.shrink_to_fit();
            }
        }
    }

    /// Rules whose head predicate matches `key`.
    pub fn rules_for(&self, key: PredKey) -> &[Clause] {
        self.pred_id(key)
            .map(|id| self.entries[id.index()].rules.as_slice())
            .unwrap_or(&[])
    }

    /// All facts of a predicate, as row literals in assertion order — the
    /// unfiltered debug/oracle view. Rows are rebuilt from the columns
    /// (irregular facts from their stored originals); this allocates and is
    /// not for hot paths.
    pub fn facts_for(&self, key: PredKey) -> Vec<Literal> {
        let Some(id) = self.pred_id(key) else {
            return Vec::new();
        };
        let entry = &self.entries[id.index()];
        (0..entry.len)
            .map(|f| entry.rebuild_row(key.pred, &self.arena, f))
            .collect()
    }

    /// Total number of stored facts.
    pub fn num_facts(&self) -> usize {
        self.num_facts
    }

    /// Total number of stored rules.
    pub fn num_rules(&self) -> usize {
        self.num_rules
    }

    /// Heap bytes of the *resident* fact store: one stripe buffer per
    /// relation at its compact size, the irregular rows, and the arena
    /// terms that exist *only* to back column cells past the indexable
    /// prefix (the first [`MAX_INDEXED_ARGS`] positions). Excludes the rest
    /// of the arena and the posting lists
    /// ([`KnowledgeBase::posting_store_bytes`]). Deterministic — no
    /// capacities — so the benchmark inputs' values are pinned exactly
    /// (`tests/oracle_real_kbs.rs`).
    pub fn fact_store_bytes(&self) -> usize {
        let mut bytes = self.past_prefix_arena_bytes();
        for entry in &self.entries {
            // One stripe buffer per relation, counted at its compact size
            // (arity * len cells; optimize() releases load-time slack).
            bytes += std::mem::size_of::<Vec<TermId>>()
                + entry.cols.arity() * entry.cols.len() as usize * std::mem::size_of::<TermId>();
            for (_, lit) in &entry.irregular {
                bytes += std::mem::size_of::<(u32, Literal)>() + literal_heap_bytes(lit);
            }
        }
        bytes
    }

    /// Bytes of arena terms referenced *exclusively* by column cells past
    /// the indexable prefix (positions ≥ [`MAX_INDEXED_ARGS`]): arena
    /// growth the fact columns alone cause, charged to
    /// [`KnowledgeBase::fact_store_bytes`].
    fn past_prefix_arena_bytes(&self) -> usize {
        let n = self.arena.len();
        if n == 0 {
            return 0;
        }
        let mut in_prefix = vec![false; n];
        let mut past_prefix = vec![false; n];
        for entry in &self.entries {
            for p in 0..entry.cols.arity() {
                let seen = if p < MAX_INDEXED_ARGS {
                    &mut in_prefix
                } else {
                    &mut past_prefix
                };
                for tid in entry.cols.stripe(p) {
                    if !tid.is_none() {
                        seen[tid.index()] = true;
                    }
                }
            }
        }
        (0..n)
            .filter(|&i| past_prefix[i] && !in_prefix[i])
            .map(|i| {
                std::mem::size_of::<Term>() + term_heap_bytes(self.arena.term(TermId(i as u32)))
            })
            .sum()
    }

    /// Exact heap bytes of the resident CSR posting indexes: per live
    /// posting, its three contiguous arrays (keys/offsets/fact indices) at
    /// logical size plus any pending side-buffer entries, plus the
    /// `PostingCsr` struct itself. Deterministic — no capacities — and
    /// pinned exactly like [`KnowledgeBase::fact_store_bytes`].
    pub fn posting_store_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for entry in &self.entries {
            for csr in entry.postings.iter().flatten() {
                bytes += std::mem::size_of::<PostingCsr>() + csr.heap_bytes();
            }
        }
        bytes
    }

    /// Raw view of one sealed posting: `(keys, offsets, fact indices,
    /// pending count)`. The layout-audit test asserts run adjacency through
    /// this; not a stable API.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn posting_parts(
        &self,
        id: PredId,
        pos: usize,
    ) -> Option<(&[TermId], &[u32], &[u32], usize)> {
        let csr = self.entries[id.index()].postings.get(pos)?.as_ref()?;
        Some((&csr.keys, &csr.offs, &csr.idx, csr.pending.len()))
    }

    /// The key directory of one posting — entry `b` is the index of the
    /// first key of radix bucket `b`, the last entry the key count — or an
    /// empty slice when the posting probes by binary search. For the
    /// layout-audit test; not a stable API.
    #[doc(hidden)]
    pub fn posting_directory(&self, id: PredId, pos: usize) -> Option<&[u32]> {
        let csr = self.entries[id.index()].postings.get(pos)?.as_ref()?;
        Some(csr.dir.as_ref().map_or(&[], |d| &d.first))
    }

    /// Every `(predicate, arity)` with at least one fact or rule. (Entries
    /// allocated only as compiled body references are skipped.)
    pub fn predicates(&self) -> impl Iterator<Item = PredKey> + '_ {
        self.keys
            .iter()
            .zip(self.entries.iter())
            .filter(|(_, e)| !e.is_empty())
            .map(|(k, _)| *k)
    }

    /// Removes every rule of `key`, returning how many were removed.
    /// (Used by tests and by theory resets between cross-validation folds.)
    pub fn retract_rules(&mut self, key: PredKey) -> usize {
        let Some(id) = self.pred_id(key) else {
            return 0;
        };
        let entry = &mut self.entries[id.index()];
        let n = entry.rules.len();
        entry.rules.clear();
        entry.crules.clear();
        self.num_rules -= n;
        n
    }

    /// Where the rules stand now, for [`KnowledgeBase::undo_rules`] to
    /// return to.
    pub fn rule_mark(&self) -> RuleMark {
        RuleMark(self.entries.iter().map(|e| e.rules.len()).collect())
    }

    /// Undoes every [`KnowledgeBase::assert_rule`] since `mark`, taken on
    /// this KB: the rules go, and so do the predicate entries they created.
    /// Facts asserted and indexes pruned since are not undone.
    pub fn undo_rules(&mut self, mark: &RuleMark) {
        let kept = mark.0.len();
        for key in self.keys.drain(kept..) {
            self.pred_index.remove(&key);
        }
        self.entries.truncate(kept);
        for (entry, &n) in self.entries.iter_mut().zip(&mark.0) {
            entry.rules.truncate(n);
            entry.crules.truncate(n);
        }
        self.num_rules = mark.0.iter().sum();
    }
}

/// Each predicate entry's rule count at one point, in entry order (see
/// [`KnowledgeBase::rule_mark`]).
#[derive(Clone, Debug)]
pub struct RuleMark(Vec<usize>);

impl std::fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KnowledgeBase({} preds, {} facts, {} rules, {} terms)",
            self.pred_index.len(),
            self.num_facts,
            self.num_rules,
            self.arena.len(),
        )
    }
}

/// Heap bytes hanging off one term (the boxed argument slices of compound
/// terms; atomic terms are inline).
fn term_heap_bytes(t: &Term) -> usize {
    match t {
        Term::App(_, args) => {
            args.len() * std::mem::size_of::<Term>()
                + args.iter().map(term_heap_bytes).sum::<usize>()
        }
        _ => 0,
    }
}

/// Heap bytes hanging off one literal (its boxed argument slice plus each
/// argument's own heap).
fn literal_heap_bytes(l: &Literal) -> usize {
    l.args.len() * std::mem::size_of::<Term>() + l.args.iter().map(term_heap_bytes).sum::<usize>()
}

/// Merges two sorted, disjoint index slices.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A fact-retrieval plan produced by [`KnowledgeBase::fact_plan`].
///
/// Every variant enumerates rows of R, the reference walk of the module
/// docs, in R's order, so solution discovery order — and therefore
/// early-exit behavior — matches the reference prover exactly.
#[derive(Debug)]
pub enum FactPlan<'a> {
    /// No facts for this predicate.
    Empty,
    /// No argument is ground: every fact, each tried.
    All {
        /// Number of facts.
        n: u32,
    },
    /// The first argument is ground and no other is: R, each row tried.
    Seq {
        /// Posting hits for the first argument's ground term (a borrowed
        /// CSR run once sealed; an owned splice mid-bulk-load).
        indexed: Hits<'a>,
        /// Facts whose first argument is not ground.
        unindexed: &'a [u32],
    },
    /// An argument past the first is ground: the ranked walk of R, which
    /// skips the rows that argument rules out and charges them by rank.
    Ranked(RankedWalk<'a>),
}

/// R walked by rank ([`FactPlan::Ranked`]): the rows of R whose cells
/// could match the goal's ground arguments past the first, each with its
/// rank in R; every row of R in between fails on such a cell and is
/// bulk-charged by the prover.
#[derive(Debug)]
pub struct RankedWalk<'a> {
    cols: &'a ColumnStripes,
    rows: WalkRows<'a>,
    total: u64,
    /// The first ground position past position 0.
    first: usize,
}

/// Where a [`RankedWalk`] takes its candidate rows from.
#[derive(Debug)]
enum WalkRows<'a> {
    /// R keyed on a ground first argument: its posting hits, then the facts
    /// whose first argument is not ground; a row's rank is its place in
    /// the two.
    Keyed(Hits<'a>, &'a [u32]),
    /// R is the whole relation, its `n` rows; a row's rank is the row.
    All(u32),
    /// R is the whole relation, and these ascending rows are the hits of a
    /// narrowing posting plus the rows not ground at its position: no row
    /// left out could match. A row's rank is the row.
    Posting(Hits<'a>),
}

impl RankedWalk<'_> {
    /// R's size: the steps a walk that tries nothing is charged.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Calls `visit(row, rank)` for every row of R, in R's order, whose
    /// cells at the goal's ground positions past the first hold the
    /// probed term or no term (a [`TermId::NONE`] cell, whose row unifies
    /// from its stored literal); stops at the first `Break`. `probes` are
    /// the ones the plan was built from. Position 0 is
    /// never compared: it is R's key, or free. A [`Probe::Miss`] admits
    /// only rows with no term in that position, since no interned cell
    /// equals an uninterned term.
    #[inline]
    pub fn walk<B>(
        &self,
        probes: &[Probe],
        mut visit: impl FnMut(u32, u64) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        // The first compared position is read from its stripe; the later
        // ones only for the rows that hold the probed term there.
        let first = self.first;
        let (cols, stripe, id) = (self.cols, self.cols.stripe(first), probes[first].tid());
        let holds = |cell: TermId, id: TermId| cell == id || cell.is_none();
        let admits = |row: u32| {
            holds(stripe[row as usize], id)
                && (first + 1..probes.len())
                    .all(|p| probes[p] == Probe::Free || holds(cols.cell(p, row), probes[p].tid()))
        };
        match &self.rows {
            WalkRows::Keyed(hits, unindexed) => {
                for (rank, &row) in hits.iter().enumerate() {
                    if admits(row) {
                        visit(row, rank as u64)?;
                    }
                }
                for (rank, &row) in unindexed.iter().enumerate() {
                    if admits(row) {
                        visit(row, (hits.len() + rank) as u64)?;
                    }
                }
            }
            WalkRows::All(n) => {
                for row in 0..*n {
                    if admits(row) {
                        visit(row, row as u64)?;
                    }
                }
            }
            WalkRows::Posting(rows) => {
                for &row in rows.iter() {
                    if admits(row) {
                        visit(row, row as u64)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Column-native view of one predicate's facts — the unification target
/// handed to the prover once a [`FactPlan`] selected candidate rows.
pub struct FactCols<'a> {
    entry: &'a PredEntry,
    arena: &'a TermArena,
}

impl<'a> FactCols<'a> {
    /// The arena the column cells point into.
    #[inline]
    pub fn arena(&self) -> &'a TermArena {
        self.arena
    }

    /// Number of argument positions (one stripe each).
    #[inline]
    pub fn arity(&self) -> usize {
        self.entry.cols.arity()
    }

    /// Number of fact rows.
    #[inline]
    pub fn len(&self) -> u32 {
        self.entry.len
    }

    /// True when the relation holds no facts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entry.len == 0
    }

    /// Fact `row`'s argument `pos` as an interned id.
    #[inline]
    pub fn cell(&self, pos: usize, row: u32) -> TermId {
        self.entry.cols.cell(pos, row)
    }

    /// The contiguous stripe of position `pos`: the arguments of rows
    /// `0..len` as one `&[TermId]` run (after
    /// [`KnowledgeBase::optimize`], stripe `p + 1` is exactly adjacent to
    /// stripe `p` — the layout-audit test pins this).
    #[inline]
    pub fn stripe(&self, pos: usize) -> &'a [TermId] {
        // Reborrow through the entry so the slice carries the KB lifetime.
        let start = pos * self.entry.cols.cap as usize;
        &self.entry.cols.data[start..start + self.entry.len as usize]
    }

    /// The original literal of fact `row` when it has a non-ground
    /// argument (such rows unify literal-at-a-time); `None` for the common
    /// all-ground row. O(1) for the all-regular relation.
    #[inline]
    pub fn irregular_row(&self, row: u32) -> Option<&'a Literal> {
        self.entry.irregular_row(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{PlainProgram, Subst};

    fn lit(t: &SymbolTable, name: &str, args: Vec<Term>) -> Literal {
        Literal::new(t.intern(name), args)
    }

    /// The size of R for a `name` goal with `bound` ground arguments (free
    /// variables elsewhere), as the plan reports it; asserted equal to the
    /// oracle's walk over the rows `kb` was built from.
    fn r_len(prog: &PlainProgram, kb: &KnowledgeBase, name: &str, bound: &[Option<Term>]) -> u64 {
        let args = (0..bound.len()).map(|p| bound[p].clone().unwrap_or(Term::Var(p as u32)));
        let goal = lit(kb.symbols(), name, args.collect());
        let (_, total) = kb.plan_candidates(goal.key(), bound);
        let walk = prog.reference_walk(&goal, &Subst::new());
        assert_eq!(
            total,
            walk.len() as u64,
            "plan and oracle disagree on R for {goal:?}"
        );
        total
    }

    #[test]
    fn indexed_lookup_narrows_candidates() {
        let t = SymbolTable::new();
        let mut prog = PlainProgram::new(&t);
        let m1 = Term::Sym(t.intern("m1"));
        let m2 = Term::Sym(t.intern("m2"));
        for i in 0..5 {
            prog.fact(lit(&t, "atm", vec![m1.clone(), Term::Int(i)]));
        }
        prog.fact(lit(&t, "atm", vec![m2.clone(), Term::Int(9)]));
        let kb = prog.to_kb();

        assert_eq!(r_len(&prog, &kb, "atm", &[Some(m1.clone()), None]), 5);
        assert_eq!(r_len(&prog, &kb, "atm", &[Some(m2), None]), 1);
        assert_eq!(r_len(&prog, &kb, "atm", &[None, None]), 6);
        // A constant with no index entry yields nothing.
        let m3 = Term::Sym(t.intern("m3"));
        assert_eq!(r_len(&prog, &kb, "atm", &[Some(m3), None]), 0);

        // The carcinogenesis shape: a 20-atom molecule, and a goal bound to
        // the molecule and an element. R is the molecule's rows; the walk
        // tries only the rows of that element.
        let elems = ["c", "n", "o", "h"].map(|e| Term::Sym(t.intern(e)));
        for a in 0..20i64 {
            let row = vec![
                m1.clone(),
                Term::Int(a),
                elems[a as usize % 4].clone(),
                Term::Int(-a),
            ];
            prog.fact(lit(&t, "atom", row));
        }
        let kb = prog.to_kb();
        let bound = [Some(m1), None, Some(elems[1].clone()), None];
        assert_eq!(r_len(&prog, &kb, "atom", &bound), 20);
        let key = lit(&t, "atom", vec![Term::Int(0); 4]).key();
        assert_eq!(kb.plan_candidates(key, &bound).0, [1, 5, 9, 13, 17]);
    }

    #[test]
    fn rules_and_facts_are_separated() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        kb.assert(Clause::fact(lit(&t, "p", vec![Term::Sym(t.intern("a"))])));
        kb.assert(Clause::new(
            lit(&t, "p", vec![Term::Var(0)]),
            vec![lit(&t, "q", vec![Term::Var(0)])],
        ));
        assert_eq!(kb.num_facts(), 1);
        assert_eq!(kb.num_rules(), 1);
        let key = lit(&t, "p", vec![Term::Int(0)]).key();
        assert_eq!(kb.rules_for(key).len(), 1);
        assert_eq!(kb.facts_for(key).len(), 1);
    }

    #[test]
    fn non_ground_fact_goes_to_rules() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        // p(X). is a (rare) universally-quantified fact; stored as a rule.
        kb.assert(Clause::fact(lit(&t, "p", vec![Term::Var(0)])));
        assert_eq!(kb.num_rules(), 1);
        assert_eq!(kb.num_facts(), 0);
    }

    #[test]
    fn retract_rules_clears_only_rules() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let key = lit(&t, "p", vec![Term::Int(0)]).key();
        kb.assert_fact(lit(&t, "p", vec![Term::Int(1)]));
        kb.assert_rule(Clause::new(
            lit(&t, "p", vec![Term::Var(0)]),
            vec![lit(&t, "q", vec![Term::Var(0)])],
        ));
        assert_eq!(kb.retract_rules(key), 1);
        assert_eq!(kb.num_rules(), 0);
        assert_eq!(kb.num_facts(), 1);
        assert!(kb
            .rules_compiled(kb.pred_id(key).expect("entry exists"))
            .is_empty());
    }

    /// bond/3-shaped relation: the second-argument posting must narrow a
    /// first-arg-unbound goal to the matching facts only.
    #[test]
    fn second_arg_plan_narrows_when_first_unbound() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let key = {
            let mut k = None;
            for m in 0..10i64 {
                for a in 0..100i64 {
                    let f = lit(
                        &t,
                        "bond",
                        vec![Term::Int(m), Term::Int(1000 * m + a), Term::Int(a % 3)],
                    );
                    k = Some(f.key());
                    kb.assert_fact(f);
                }
            }
            k.expect("facts were asserted")
        };
        // Second argument bound, first unbound: 1 candidate out of 1000.
        let (tried, total) = kb.plan_candidates(key, &[None, Some(Term::Int(3007))]);
        assert_eq!(total, 1000, "reference would scan every fact");
        assert_eq!(
            tried,
            vec![307],
            "3007 = fact 3*100+7, rank = its own index"
        );
        // Both bound: the sparser second-arg posting still wins over the
        // 100-fact first-arg walk.
        let (tried, total) = kb.plan_candidates(key, &[Some(Term::Int(3)), Some(Term::Int(3007))]);
        assert_eq!(total, 100, "reference = molecule 3's facts");
        assert_eq!(tried.len(), 1);
        // Unknown constant: nothing to try, reference count preserved.
        let (tried, total) = kb.plan_candidates(key, &[None, Some(Term::Int(99_999))]);
        assert!(tried.is_empty());
        assert_eq!(total, 1000);
    }

    /// The plan's tried set must contain every fact that actually matches
    /// the bound pattern, and stay within the reference candidate set.
    #[test]
    fn plans_are_supersets_of_matches_and_subsets_of_reference() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for m in 0..6i64 {
            for a in 0..8i64 {
                kb.assert_fact(lit(
                    &t,
                    "e",
                    vec![Term::Int(m), Term::Int(a), Term::Int((m + a) % 4)],
                ));
            }
        }
        let key = lit(&t, "e", vec![Term::Int(0); 3]).key();
        let facts = kb.facts_for(key);
        for bound in [
            vec![None, Some(Term::Int(5)), None],
            vec![None, None, Some(Term::Int(2))],
            vec![Some(Term::Int(2)), None, Some(Term::Int(1))],
            vec![Some(Term::Int(2)), Some(Term::Int(5)), Some(Term::Int(3))],
        ] {
            let (tried, total) = kb.plan_candidates(key, &bound);
            let matching: Vec<u32> = facts
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    bound
                        .iter()
                        .zip(f.args.iter())
                        .all(|(b, a)| b.as_ref().is_none_or(|c| c == a))
                })
                .map(|(i, _)| i as u32)
                .collect();
            for m in &matching {
                assert!(tried.contains(m), "plan missed matching fact {m}");
            }
            assert!(tried.len() as u64 <= total);
        }
    }

    #[test]
    fn retained_indexes_prune_postings() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 0..40i64 {
            kb.assert_fact(lit(&t, "r", vec![Term::Int(i % 2), Term::Int(i)]));
        }
        let key = lit(&t, "r", vec![Term::Int(0), Term::Int(0)]).key();
        kb.retain_indexes(key, &[]);
        let pid = kb.pred_id(key).expect("entry exists");
        assert!(kb.posting_parts(pid, 1).is_none(), "posting survived");
        assert!(kb.entries[pid.index()].unindexed[1].is_empty());
        // Without its posting, a second-arg probe walks all 40 facts and
        // still tries only the one its column compare admits.
        let (tried, total) = kb.plan_candidates(key, &[None, Some(Term::Int(7))]);
        assert_eq!((tried, total), (vec![7], 40));
        // Facts asserted after pruning stay consistent.
        kb.assert_fact(lit(&t, "r", vec![Term::Int(0), Term::Int(77)]));
        let (tried, total) = kb.plan_candidates(key, &[Some(Term::Int(0)), None]);
        assert_eq!(total, 21);
        assert_eq!(tried.len(), 21);
    }

    /// Late facts after pruning must not re-create postings for pruned
    /// positions or leak rows into `unindexed` there — and the plan/step
    /// accounting must stay exactly the "prune first, then load" shape.
    #[test]
    fn late_asserts_respect_pruned_positions() {
        let t = SymbolTable::new();
        let key = lit(&t, "r", vec![Term::Int(0); 3]).key();
        let facts: Vec<Literal> = (0..140i64)
            .map(|i| {
                lit(
                    &t,
                    "r",
                    vec![Term::Int(i % 2), Term::Int(i), Term::Int(i % 7)],
                )
            })
            .collect();

        // KB A: prune before any fact arrives; KB B: load, prune, optimize,
        // then append the second half late.
        let mut a = KnowledgeBase::new(t.clone());
        a.retain_indexes(key, &[2]);
        for f in &facts {
            a.assert_fact(f.clone());
        }
        let mut b = KnowledgeBase::new(t.clone());
        for f in &facts[..70] {
            b.assert_fact(f.clone());
        }
        b.retain_indexes(key, &[2]);
        b.optimize();
        for f in &facts[70..] {
            b.assert_fact(f.clone());
        }

        for bound in [
            vec![None, Some(Term::Int(135)), None],
            vec![None, None, Some(Term::Int(3))],
            vec![Some(Term::Int(1)), Some(Term::Int(99)), None],
            vec![Some(Term::Int(0)), None, Some(Term::Int(6))],
        ] {
            assert_eq!(
                a.plan_candidates(key, &bound),
                b.plan_candidates(key, &bound),
                "late asserts diverged from prune-first shape under {bound:?}"
            );
        }
        // The pruned position must not have been revived on either KB: no
        // posting there, and no row in its `unindexed` list.
        for kb in [&a, &b] {
            let pid = kb.pred_id(key).expect("entry exists");
            assert!(
                kb.posting_parts(pid, 1).is_none(),
                "pruned posting was re-created"
            );
            assert!(kb.entries[pid.index()].unindexed[1].is_empty());
        }
    }

    #[test]
    fn compiled_rules_resolve_dispatch() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        kb.assert_fact(lit(&t, "q", vec![Term::Int(1)]));
        kb.assert_rule(Clause::new(
            lit(&t, "p", vec![Term::Var(0)]),
            vec![
                lit(&t, "q", vec![Term::Var(0)]),
                lit(&t, ">=", vec![Term::Var(0), Term::Int(0)]),
                lit(&t, "later", vec![Term::Var(0)]),
            ],
        ));
        let pid = kb
            .pred_id(lit(&t, "p", vec![Term::Int(0)]).key())
            .expect("rule head entry exists");
        let crule = &kb.rules_compiled(pid)[0];
        assert_eq!(crule.var_span, 1);
        assert!(matches!(crule.body[0].kind, LitKind::Pred(_)));
        assert!(matches!(crule.body[1].kind, LitKind::Builtin(_)));
        // `later` got a stable (empty) entry at compile time; facts asserted
        // afterwards land in the same id.
        let LitKind::Pred(later_id) = crule.body[2].kind else {
            panic!("body preds compile to Pred ids");
        };
        kb.assert_fact(lit(&t, "later", vec![Term::Int(1)]));
        assert_eq!(
            kb.pred_id(lit(&t, "later", vec![Term::Int(0)]).key()),
            Some(later_id)
        );
    }

    /// Regression for ROADMAP "Compound probes": a goal whose bound
    /// argument is a ground *compound* term must probe the posting list by
    /// the compound's arena id instead of silently scanning the relation.
    #[test]
    fn ground_compound_arguments_probe_instead_of_scanning() {
        let t = SymbolTable::new();
        let mut prog = PlainProgram::new(&t);
        let q = t.intern("q");
        for i in 0..100i64 {
            prog.fact(lit(
                &t,
                "charge",
                vec![Term::app(q, vec![Term::Int(i % 10)]), Term::Int(i)],
            ));
        }
        let kb = prog.to_kb();
        let key = lit(&t, "charge", vec![Term::Int(0); 2]).key();
        let probe = Term::app(q, vec![Term::Int(3)]);

        // First argument bound to a ground compound: the candidate count
        // drops from the 100-fact scan to the 10 posting hits.
        let (tried, total) = kb.plan_candidates(key, &[Some(probe.clone()), None]);
        assert_eq!(total, 10, "compound probe must narrow the reference set");
        assert_eq!(tried.len(), 10);
        assert_eq!(r_len(&prog, &kb, "charge", &[Some(probe), None]), 10);
        // An uninterned compound yields nothing (no fact can equal it).
        let absent = Term::app(q, vec![Term::Int(77)]);
        assert_eq!(r_len(&prog, &kb, "charge", &[Some(absent), None]), 0);
        // A compound still containing a variable cannot probe: full scan.
        let open = Term::app(q, vec![Term::Var(0)]);
        let (tried, total) = kb.plan_candidates(key, &[Some(open), None]);
        assert_eq!((tried.len() as u64, total), (100, 100));

        // Second position: a compound-keyed posting narrows a first-arg
        // walk too (hash-join choice over a non-first position).
        let mut kb2 = KnowledgeBase::new(t.clone());
        for m in 0..5i64 {
            for i in 0..40i64 {
                kb2.assert_fact(lit(
                    &t,
                    "site",
                    vec![Term::Int(m), Term::app(q, vec![Term::Int(i)])],
                ));
            }
        }
        let key2 = lit(&t, "site", vec![Term::Int(0); 2]).key();
        let probe2 = Term::app(q, vec![Term::Int(7)]);
        let (tried, total) = kb2.plan_candidates(key2, &[None, Some(probe2)]);
        assert_eq!(total, 200, "reference scans when the first arg is free");
        assert_eq!(tried.len(), 5, "one hit per molecule, found by probe");
    }

    #[test]
    fn arena_dedupes_fact_arguments() {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let m = Term::Sym(t.intern("mol"));
        for i in 0..100i64 {
            kb.assert_fact(lit(&t, "atm", vec![m.clone(), Term::Int(i % 5)]));
        }
        // 1 molecule constant + 5 distinct ints.
        assert_eq!(kb.arena().len(), 6);
    }

    /// Rows rebuilt from the columns must reproduce the asserted literals
    /// exactly — including positions past [`MAX_INDEXED_ARGS`] (which have
    /// columns but no posting lists) and irregular (non-ground) facts.
    #[test]
    fn rebuilt_rows_match_asserted_literals() {
        let t = SymbolTable::new();
        let mut prog = PlainProgram::new(&t);
        let wide: Vec<Literal> = (0..10i64)
            .map(|i| {
                lit(
                    &t,
                    "wide",
                    vec![
                        Term::Int(i),
                        Term::Sym(t.intern(&format!("s{}", i % 3))),
                        Term::app(t.intern("f"), vec![Term::Int(i % 4)]),
                        Term::Int(i * 2),
                        Term::Int(i * 3), // past MAX_INDEXED_ARGS
                        Term::Sym(t.intern("tail")),
                    ],
                )
            })
            .collect();
        for f in &wide {
            prog.fact(f.clone());
        }
        // One irregular fact (non-ground second argument).
        let odd = lit(&t, "odd", vec![Term::Int(1), Term::Var(3)]);
        prog.fact(odd.clone());
        let kb = prog.to_kb();

        let key = wide[0].key();
        assert_eq!(kb.facts_for(key), wide);
        assert_eq!(kb.facts_for(key), prog.facts(key));
        assert_eq!(kb.facts_for(odd.key()), vec![odd]);
    }

    /// Key sets the directory has to get right: a dense id range, clusters
    /// of ids, two keys a million apart, one key, one crowded bucket (a run
    /// of adjacent ids next to one far key, which makes every bucket wider
    /// than the run), ids all over.
    fn key_sets() -> proptest::prelude::BoxedStrategy<Vec<u32>> {
        use proptest::prelude::*;
        let cluster = (0u32..4_000_000, 1u32..80);
        prop_oneof![
            (0u32..100_000, 1u32..600).prop_map(|(a, n)| (a..a + n).collect()),
            proptest::collection::vec(cluster, 1..8)
                .prop_map(|cs| cs.iter().flat_map(|&(a, n)| a..a + n).collect()),
            (0u32..1000).prop_map(|a| vec![a, a + 1_000_000]),
            (0u32..u32::MAX - 1).prop_map(|a| vec![a]),
            (0u32..1000, 65u32..400)
                .prop_map(|(a, n)| (a..a + n).chain([a + 50_000_000]).collect()),
            proptest::collection::vec(0u32..u32::MAX - 1, 0..400),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `hits` is the run of the key a plain search finds — present
        /// keys, their absent neighbours, [`TermId::NONE`] — whether the
        /// posting probes through a directory (sealed, or restored from its
        /// parts as a snapshot restores it) or not (merged but not sealed),
        /// and with pending inserts on top of a directory.
        #[test]
        fn probes_through_a_directory_find_what_a_plain_search_finds(
            keys in key_sets(),
            late in proptest::collection::vec((0usize..1000, proptest::prelude::any::<bool>()), 0..40),
        ) {
            use std::collections::BTreeMap;
            let mut model: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            let mut csr = PostingCsr::new();
            let mut fact = 0;
            let mut insert = |csr: &mut PostingCsr, model: &mut BTreeMap<u32, Vec<u32>>, key: u32| {
                csr.insert(TermId(key), fact);
                model.entry(key).or_default().push(fact);
                fact += 1;
            };
            for (i, &key) in keys.iter().enumerate() {
                for _ in 0..1 + i % 3 {
                    insert(&mut csr, &mut model, key);
                }
            }
            let check = |csr: &PostingCsr, model: &BTreeMap<u32, Vec<u32>>, directory: bool| {
                let wanted = directory && csr.keys.len() > KeyDirectory::MIN_KEYS;
                proptest::prop_assert_eq!(csr.dir.is_some(), wanted);
                let around = model.keys().flat_map(|&k| [k.saturating_sub(1), k, k + 1]);
                for probe in around.chain([0, u32::MAX - 1, u32::MAX]) {
                    let plain = model.get(&probe).map_or(&[][..], |run| run);
                    proptest::prop_assert_eq!(&*csr.hits(TermId(probe)), plain, "probe {}", probe);
                }
                Ok(())
            };
            csr.seal();
            check(&csr, &model, true)?;

            // Fewer late inserts than force a merge: they stay pending on
            // top of the directory, some under keys it knows, some not.
            for &(pick, known) in &late {
                let key = match keys.get(pick % keys.len().max(1)) {
                    Some(&key) if known => key,
                    _ => pick as u32 * 4099,
                };
                insert(&mut csr, &mut model, key);
            }
            proptest::prop_assert_eq!(csr.pending.len(), late.len());
            check(&csr, &model, true)?;
            // A merge that changes the keys drops the directory.
            csr.merge_pending();
            check(&csr, &model, late.is_empty())?;
            let (k, o, i) = csr.merged_parts();
            check(&PostingCsr::from_parts(k, o, i), &model, true)?;
            csr.seal();
            check(&csr, &model, true)?;
        }
    }
}
