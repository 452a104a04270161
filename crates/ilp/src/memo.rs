//! The coverage memo of a covering loop: per canonical clause the examples
//! it was last evaluated on, the ones it covered and what that cost, in a
//! fixed budget of flat memory. What the memo is *for* — the key, the
//! difference proof and why it is exact, what invalidates a memo — is told
//! where it is used, in [`crate::search`]'s module docs; this file is how it
//! is stored.
//!
//! # Layout
//!
//! Every entry of one memo has the same shape, fixed by the example list
//! (`p = ⌈n⁺/64⌉`, `n = ⌈n⁻/64⌉` words per mask), so entries are records in
//! one `Vec<u64>` arena, appended in insertion order:
//!
//! ```text
//! header        stamp (32 bits) | key length in u32s (16) | flags (16)
//! key           ⌈length/2⌉ words, two u32 per word
//! positive half steps S, then the mask T it is valid for (p words), then
//!               the covered set C ⊆ T (p words)
//! negative half the same with n — absent until a node needs it
//! ```
//!
//! An open-addressing table of `(hash tag, arena offset)` slots, at most
//! half full, finds a record by key. Completing a lazy record appends the
//! full one and leaves the old one dead; eviction marks records dead too,
//! and one slide over the arena closes the holes and rebuilds the table.
//! Skeletons — a literal with its variables blanked, see `ClauseKeys` —
//! are interned the same way in a `Vec<u32>` arena for the memo's lifetime;
//! a skeleton's id is its offset. There is no allocation per entry.
//!
//! # Budget
//!
//! The capacity of those four vectors plus the struct itself is the memo's
//! accounted size, and it never exceeds `BUDGET`: every vector grows
//! through `CoverageMemo::make_room` only, which evicts before it grows
//! past the budget and refuses when nothing may be evicted — the node's
//! result is then not stored (or, for a skeleton, the clauses using it get
//! no key) and the search goes on. Victims are the entries the *current*
//! search has not touched, oldest stamp (the number of the last search that
//! touched them) first and, within a stamp, in arena order, which is
//! insertion order: a function of the searches run so far and nothing else.
//! Entries the current search touched stay, so a lattice wider than the
//! budget keeps a stable prefix of its clauses instead of cycling them out
//! just before their variants arrive. An eviction frees at least an eighth
//! of the budget, so the slide that follows is paid for by the inserts it
//! makes room for. (A table being doubled and a vector being reallocated
//! hold their old buffer for the length of the copy; that transient is the
//! allocator's and is not counted.)

use crate::bitset::Bitset;
use crate::bottom::BottomClause;
use crate::coverage::{evaluate_side_prepared, prepare_rule, Coverage, PreparedRule};
use crate::examples::Examples;
use crate::refine::RuleShape;
use crate::settings::Settings;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::fxhash::FxHasher;
use p2mdie_logic::hot;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::term::{Term, VarId};
use std::hash::Hasher;
use std::mem::size_of;

/// Hard cap on the bytes one memo allocates. See the "Memory" paragraph of
/// [`crate::search`]'s module docs for how it was chosen.
const BUDGET: usize = 128 * 1024;

/// Header flag: the record holds a negative half.
const HAS_NEG: u64 = 1;
/// Header flag: the record was evicted or superseded; the next slide drops it.
const DEAD: u64 = 2;

/// The two example lists a clause is evaluated on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    Pos = 0,
    Neg = 1,
}

/// How much proving a node (or one side of it) took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Ran {
    /// None: the stored result was valid for the live mask.
    Nothing,
    /// A difference proof: only the examples that left or joined the mask.
    Difference,
    /// A proof on every live example.
    Full,
}

/// What a memo did so far (cumulative over [`CoverageMemo::clear`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Nodes that ran no proof at all.
    pub served: u64,
    /// Nodes served by a difference proof.
    pub partial: u64,
    /// Nodes proved on every live example of some side.
    pub proved: u64,
    /// Entries evicted to stay within the budget.
    pub evicted: u64,
    /// Results not stored because nothing more could be evicted.
    pub unstored: u64,
    /// Inference steps of the proofs that did run (the nodes above were
    /// charged [`crate::search::SearchOutcome::steps`], as if each were
    /// proved on every live example).
    pub steps_run: u64,
    /// Largest accounted size reached, in bytes.
    pub peak_bytes: usize,
}

#[derive(Clone, Copy)]
struct Slot {
    tag: u32,
    at: u32,
}

const EMPTY: Slot = Slot {
    tag: 0,
    at: u32::MAX,
};

/// An open-addressing table over the records of an arena: `(tag, offset)`
/// slots, linear probing, a power of two long and at most half full.
#[derive(Default)]
struct Index {
    slots: Vec<Slot>,
    used: usize,
}

impl Index {
    /// The position of the slot tagged `tag` whose offset `is_it` accepts.
    fn find(&self, tag: u32, mut is_it: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        while self.slots[i].at != EMPTY.at {
            if self.slots[i].tag == tag && is_it(self.slots[i].at as usize) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Adds a slot; the caller made sure of room ([`Index::growth`]) and
    /// that no slot answers to the same key.
    fn insert(&mut self, tag: u32, at: usize) {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        while self.slots[i].at != EMPTY.at {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { tag, at: at as u32 };
        self.used += 1;
    }

    /// Slots to add before one more [`Index::insert`]: none while that
    /// leaves the table at most half full, else as many as there are (16 at
    /// first).
    fn growth(&self) -> usize {
        if (self.used + 1) * 2 <= self.slots.len() {
            0
        } else {
            self.slots.len().max(16)
        }
    }

    /// Adds [`Index::growth`] slots, returning the bytes added.
    fn grow(&mut self) -> usize {
        let before = self.slots.capacity();
        let len = self.slots.len() + self.growth();
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        self.used = 0;
        for s in old.iter().filter(|s| s.at != EMPTY.at) {
            self.insert(s.tag, s.at as usize);
        }
        (self.slots.capacity() - before) * size_of::<Slot>()
    }

    /// Empties every slot, keeping the table.
    fn reset(&mut self) {
        self.slots.fill(EMPTY);
        self.used = 0;
    }
}

/// The 32 best-mixed bits of an Fx hash over `len` and `words`.
fn tag_of<T: Copy + Into<u64>>(len: usize, words: &[T]) -> u32 {
    let mut h = FxHasher::default();
    h.write_usize(len);
    for &w in words {
        h.write_u64(w.into());
    }
    (h.finish() >> 32) as u32
}

/// Grows `v` by `by` elements of capacity, returning the bytes added.
fn grow<T>(v: &mut Vec<T>, by: usize) -> usize {
    let before = v.capacity();
    v.reserve_exact(before - v.len() + by);
    (v.capacity() - before) * size_of::<T>()
}

/// A canonical clause key as the memo stores it: `len` u32s, two per word.
#[derive(Default)]
pub(crate) struct Key {
    words: Vec<u64>,
    len: usize,
    tag: u32,
}

impl Key {
    fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    fn push(&mut self, x: u32) {
        if self.len.is_multiple_of(2) {
            self.words.push(u64::from(x));
        } else {
            *self
                .words
                .last_mut()
                .expect("an odd length has a last word") |= u64::from(x) << 32;
        }
        self.len += 1;
    }
}

/// A record header, unpacked.
#[derive(Clone, Copy)]
struct Header {
    stamp: u32,
    key_len: usize,
    has_neg: bool,
    dead: bool,
}

impl Header {
    fn of(word: u64) -> Self {
        Header {
            stamp: (word >> 32) as u32,
            key_len: (word >> 16) as usize & 0xFFFF,
            has_neg: word & HAS_NEG != 0,
            dead: word & DEAD != 0,
        }
    }

    fn pack(stamp: u32, key_len: usize, flags: u64) -> u64 {
        u64::from(stamp) << 32 | (key_len as u64) << 16 | flags
    }
}

/// One side of a stored entry: it was evaluated on `valid`, covered
/// `covered ⊆ valid`, and that took `steps`.
struct Half<'a> {
    steps: u64,
    valid: &'a [u64],
    covered: &'a [u64],
}

/// What [`CoverageMemo::evaluate`] found out about one node.
pub(crate) struct Evaluated {
    /// Covered positives among the live ones, and the steps charged.
    pub pos: Bitset,
    pub pos_steps: u64,
    /// The same for the negatives, when the node needs them.
    pub neg: Option<(Bitset, u64)>,
    /// The most proving either side took.
    pub ran: Ran,
}

/// The coverage memo of one covering loop; see the module docs and
/// [`crate::search`]'s. It is valid for one example list, one
/// [`p2mdie_logic::prover::ProofLimits`] and the background knowledge as
/// rule bodies see it: the loop that owns it calls [`CoverageMemo::clear`]
/// when any of the three changes. Results never depend on what a memo
/// holds, only the time they take.
pub struct CoverageMemo {
    /// Length in bits of the positive and of the negative masks, fixed by
    /// the example list of the first search.
    bits: [usize; 2],
    arena: Vec<u64>,
    index: Index,
    /// Arena words held by dead records.
    holes: usize,
    /// Number of the current search: the stamp of what it touches.
    search: u32,
    /// Live records the current search has not touched.
    evictable: usize,
    skeletons: Vec<u32>,
    skeleton_index: Index,
    /// Accounted bytes: kept by [`CoverageMemo::make_room`], checked by
    /// [`CoverageMemo::recount`].
    allocated: usize,
    budget: usize,
    stats: MemoStats,
}

impl Default for CoverageMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageMemo {
    /// An empty memo; it allocates with its first entry.
    pub fn new() -> Self {
        CoverageMemo {
            bits: [0; 2],
            arena: Vec::new(),
            index: Index::default(),
            holes: 0,
            search: 0,
            evictable: 0,
            skeletons: Vec::new(),
            skeleton_index: Index::default(),
            allocated: size_of::<Self>(),
            budget: BUDGET,
            stats: MemoStats::default(),
        }
    }

    /// Forgets every entry and skeleton and frees their memory; the
    /// statistics stay.
    pub fn clear(&mut self) {
        *self = CoverageMemo {
            search: self.search,
            budget: self.budget,
            stats: self.stats,
            ..Self::new()
        };
    }

    /// What the memo did so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// The bytes the memo accounts for: its own size plus the capacity of
    /// every vector it owns.
    pub fn bytes(&self) -> usize {
        self.allocated
    }

    /// The bound [`CoverageMemo::bytes`] never exceeds.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Opens a search over example lists of `n_pos` and `n_neg` examples:
    /// what it touches from here on is safe from eviction until the next.
    pub(crate) fn begin_search(&mut self, n_pos: usize, n_neg: usize) {
        if self.bits != [n_pos, n_neg] {
            self.clear();
            self.bits = [n_pos, n_neg];
        }
        // A stamp only orders evictions: wrapping it around costs nothing.
        self.search = self.search.wrapping_add(1);
        self.evictable = self.index.used;
    }

    fn mask_words(&self, side: Side) -> usize {
        self.bits[side as usize].div_ceil(64)
    }

    fn half_words(&self, side: Side) -> usize {
        1 + 2 * self.mask_words(side)
    }

    fn record_words(&self, key_len: usize, has_neg: bool) -> usize {
        let neg = if has_neg {
            self.half_words(Side::Neg)
        } else {
            0
        };
        1 + key_len.div_ceil(2) + self.half_words(Side::Pos) + neg
    }

    /// The offset and header of every record, dead ones included.
    fn records(&self) -> impl Iterator<Item = (usize, Header)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let head = Header::of(*self.arena.get(at)?);
            let here = at;
            at += self.record_words(head.key_len, head.has_neg);
            Some((here, head))
        })
    }

    fn key_at(&self, at: usize, key_len: usize) -> &[u64] {
        &self.arena[at + 1..at + 1 + key_len.div_ceil(2)]
    }

    /// The slot of the record stored under `key`.
    fn slot_of(&self, key: &Key) -> Option<usize> {
        self.index.find(key.tag, |at| {
            let head = Header::of(self.arena[at]);
            head.key_len == key.len && self.key_at(at, key.len) == key.words
        })
    }

    /// The record stored under `key`, stamped as touched by this search.
    fn find(&mut self, key: &Key) -> Option<usize> {
        let at = self.index.slots[self.slot_of(key)?].at as usize;
        let head = Header::of(self.arena[at]);
        if head.stamp != self.search {
            self.arena[at] = Header::pack(self.search, head.key_len, self.arena[at] & 0xFFFF);
            self.evictable -= 1;
        }
        Some(at)
    }

    /// Where `side` of the record at `at` starts, if the record has it.
    fn half_at(&self, at: usize, side: Side) -> Option<usize> {
        let head = Header::of(self.arena[at]);
        let pos = at + 1 + head.key_len.div_ceil(2);
        match side {
            Side::Pos => Some(pos),
            Side::Neg => head.has_neg.then(|| pos + self.half_words(Side::Pos)),
        }
    }

    fn half(&self, at: usize, side: Side) -> Option<Half<'_>> {
        let from = self.half_at(at, side)?;
        let w = self.mask_words(side);
        Some(Half {
            steps: self.arena[from],
            valid: &self.arena[from + 1..from + 1 + w],
            covered: &self.arena[from + 1 + w..from + 1 + 2 * w],
        })
    }

    /// Evaluates one node — the clause `key` stands for, on the `live`
    /// positives and, if `needs_neg` of the covered count says so, on the
    /// `live` negatives — proving as little as the stored entry allows, and
    /// stores what it learnt. `prove` runs the clause on a mask of one side
    /// and returns the covered examples and the steps taken; without a key
    /// everything is proved and nothing stored.
    pub(crate) fn evaluate(
        &mut self,
        key: Option<&Key>,
        live: [&Bitset; 2],
        needs_neg: impl Fn(u32) -> bool,
        mut prove: impl FnMut(Side, &Bitset) -> (Bitset, u64),
    ) -> Evaluated {
        let at = key.and_then(|k| self.find(k));
        let mut steps_run = 0;
        let mut side = |memo: &Self, side: Side| {
            let stored = at.and_then(|at| memo.half(at, side));
            difference_proof(stored, live[side as usize], |mask| {
                let proved = prove(side, mask);
                steps_run += proved.1;
                proved
            })
        };
        let (pos, pos_steps, ran_pos) = side(self, Side::Pos);
        let neg = needs_neg(pos.count() as u32).then(|| side(self, Side::Neg));
        let ran = neg.as_ref().map_or(ran_pos, |n| n.2.max(ran_pos));
        self.stats.steps_run += steps_run;
        match ran {
            Ran::Nothing => {
                self.stats.served += 1;
                hot::search_memo_hit();
            }
            Ran::Difference => {
                self.stats.partial += 1;
                hot::search_memo_partial();
            }
            Ran::Full => {
                self.stats.proved += 1;
                hot::search_memo_miss();
            }
        }
        let neg = neg.map(|(bits, steps, _)| (bits, steps));
        if let (Some(key), true) = (key, ran != Ran::Nothing) {
            let pos_half = (live[0], &pos, pos_steps);
            let neg_half = neg.as_ref().map(|(bits, steps)| (live[1], bits, *steps));
            self.store(key, at, pos_half, neg_half);
        }
        Evaluated {
            pos,
            pos_steps,
            neg,
            ran,
        }
    }

    /// Evaluates each of `rules` on the `live_pos` positives and on every
    /// negative of `examples` through the memo: the [`Coverage`], steps
    /// included, that [`crate::coverage::evaluate_rule_threads`] computes for
    /// `(Some(live_pos), None)`, proving only what the stored entries do not
    /// answer — the search's nodes and a rule scored on its own share one
    /// key, one lookup rule and one set of entries. A round is one eviction
    /// epoch, like a search: what it touches stays until the next.
    pub fn evaluate_rules(
        &mut self,
        kb: &KnowledgeBase,
        settings: &Settings,
        rules: &[Clause],
        examples: &Examples,
        live_pos: &Bitset,
    ) -> Vec<Coverage> {
        self.begin_search(examples.num_pos(), examples.num_neg());
        let every_neg = Bitset::full(examples.num_neg());
        let evaluate = |rule| {
            let mut keys = ClauseKeys::of_clause(rule, self);
            let prove = proving(kb, settings, examples, || prepare_rule(kb, rule));
            let live = [live_pos, &every_neg];
            let node = self.evaluate(keys.key_of_whole(), live, |_| true, prove);
            let (neg, neg_steps) = node.neg.expect("the negatives were asked for");
            Coverage {
                pos: node.pos,
                neg,
                steps: node.pos_steps + neg_steps,
            }
        };
        rules.iter().map(evaluate).collect()
    }

    /// Writes a node's halves — `(valid for, covered, steps)` — over the
    /// record at `at`, or into a new record when the key has none. A half
    /// the node did not evaluate keeps what is stored: the sides of an
    /// entry are valid independently of each other.
    fn store(
        &mut self,
        key: &Key,
        at: Option<usize>,
        pos: (&Bitset, &Bitset, u64),
        neg: Option<(&Bitset, &Bitset, u64)>,
    ) {
        let Some(at) = at else {
            if !self.make_room(false, self.record_words(key.len, neg.is_some()), true) {
                self.stats.unstored += 1;
                return;
            }
            let flags = if neg.is_some() { HAS_NEG } else { 0 };
            self.index.insert(key.tag, self.arena.len());
            self.arena.push(Header::pack(self.search, key.len, flags));
            self.arena.extend_from_slice(&key.words);
            self.push_half(pos);
            if let Some(neg) = neg {
                self.push_half(neg);
            }
            return;
        };
        self.write_half(at, Side::Pos, pos);
        let Some(neg) = neg else { return };
        if self.half_at(at, Side::Neg).is_some() {
            self.write_half(at, Side::Neg, neg);
        } else if self.make_room(false, self.record_words(key.len, true), false) {
            // Complete the lazy record: the full one is appended and takes
            // over the slot. Making room may have slid the old one, but not
            // evicted it — this search touched it.
            let slot = self
                .slot_of(key)
                .expect("an entry this search touched is not evicted");
            let old = self.index.slots[slot].at as usize;
            let lazy = self.record_words(key.len, false);
            self.index.slots[slot].at = self.arena.len() as u32;
            self.arena.push(self.arena[old] | HAS_NEG);
            self.arena.extend_from_within(old + 1..old + lazy);
            self.push_half(neg);
            self.arena[old] |= DEAD;
            self.holes += lazy;
        } else {
            self.stats.unstored += 1;
        }
    }

    fn push_half(&mut self, (valid, covered, steps): (&Bitset, &Bitset, u64)) {
        self.arena.push(steps);
        self.arena.extend_from_slice(valid.words());
        self.arena.extend_from_slice(covered.words());
    }

    fn write_half(
        &mut self,
        at: usize,
        side: Side,
        (valid, covered, steps): (&Bitset, &Bitset, u64),
    ) {
        let from = self.half_at(at, side).expect("the half is stored");
        let w = self.mask_words(side);
        self.arena[from] = steps;
        self.arena[from + 1..from + 1 + w].copy_from_slice(valid.words());
        self.arena[from + 1 + w..from + 1 + 2 * w].copy_from_slice(covered.words());
    }

    /// The id of the skeleton encoded in `code`, interning it on first
    /// sight; `None` when the budget has no room for another.
    fn skeleton(&mut self, code: &[u32]) -> Option<u32> {
        let tag = tag_of(code.len(), code);
        let known = self.skeleton_index.find(tag, |at| {
            self.skeletons[at] as usize == code.len()
                && self.skeletons[at + 1..at + 1 + code.len()] == *code
        });
        if let Some(slot) = known {
            return Some(self.skeleton_index.slots[slot].at);
        }
        if !self.make_room(true, 1 + code.len(), true) {
            return None;
        }
        let id = self.skeletons.len();
        self.skeleton_index.insert(tag, id);
        self.skeletons.push(code.len() as u32);
        self.skeletons.extend_from_slice(code);
        Some(id as u32)
    }

    /// Makes room within the budget for `elems` more elements — and, with
    /// `slot`, one more index slot — in the skeleton table or else in the
    /// entry arena: grows what is short, evicting entries first when that
    /// would not fit. False when it cannot be done; nothing has grown then.
    fn make_room(&mut self, skeletons: bool, elems: usize, slot: bool) -> bool {
        loop {
            let (len, cap, width, index) = if skeletons {
                let v = &self.skeletons;
                (
                    v.len(),
                    v.capacity(),
                    size_of::<u32>(),
                    &self.skeleton_index,
                )
            } else {
                let v = &self.arena;
                (v.len(), v.capacity(), size_of::<u64>(), &self.index)
            };
            let short = (len + elems).saturating_sub(cap);
            let slots = if slot { index.growth() } else { 0 };
            let bytes = short * width + slots * size_of::<Slot>();
            if self.allocated + bytes > self.budget {
                if !self.evict(bytes) {
                    return false;
                }
                continue;
            }
            // A short vector doubles like any other, as far as the budget
            // lets it.
            let spare = (self.budget - self.allocated - bytes) / width;
            let by = if short > 0 {
                short + cap.max(64).min(spare)
            } else {
                0
            };
            let mut added = if skeletons {
                grow(&mut self.skeletons, by)
            } else {
                grow(&mut self.arena, by)
            };
            if slots > 0 {
                let index = if skeletons {
                    &mut self.skeleton_index
                } else {
                    &mut self.index
                };
                added += index.grow();
            }
            self.allocated += added;
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.allocated);
            return true;
        }
    }

    /// Frees at least `want` bytes — an eighth of the budget if that is
    /// more — of entries the current search has not touched, least recently
    /// used first, and closes the holes. False when there was nothing to
    /// free.
    fn evict(&mut self, want: usize) -> bool {
        if self.evictable == 0 && self.holes == 0 {
            return false;
        }
        let goal = want.max(self.budget / 8).div_ceil(size_of::<u64>());
        let mut freed = self.holes;
        while freed < goal && self.evictable > 0 {
            let oldest = self
                .records()
                .filter(|(_, head)| !head.dead && head.stamp != self.search)
                .map(|(_, head)| head.stamp)
                .min()
                .expect("an evictable record is a live record of an earlier search");
            let mut at = 0;
            while at < self.arena.len() && freed < goal {
                let head = Header::of(self.arena[at]);
                let words = self.record_words(head.key_len, head.has_neg);
                if !head.dead && head.stamp == oldest {
                    self.arena[at] |= DEAD;
                    freed += words;
                    self.evictable -= 1;
                    self.stats.evicted += 1;
                    hot::search_memo_evicted();
                }
                at += words;
            }
        }
        self.slide();
        true
    }

    /// Slides the live records over the dead ones, rebuilds the index over
    /// the new offsets and hands the freed capacity back.
    fn slide(&mut self) {
        self.index.reset();
        let (mut from, mut to) = (0, 0);
        while from < self.arena.len() {
            let head = Header::of(self.arena[from]);
            let words = self.record_words(head.key_len, head.has_neg);
            if !head.dead {
                self.arena.copy_within(from..from + words, to);
                let tag = tag_of(head.key_len, self.key_at(to, head.key_len));
                self.index.insert(tag, to);
                to += words;
            }
            from += words;
        }
        self.arena.truncate(to);
        self.holes = 0;
        let before = self.arena.capacity();
        self.arena.shrink_to_fit();
        self.allocated -= (before - self.arena.capacity()) * size_of::<u64>();
    }

    /// The accounted bytes recomputed from the vectors themselves, after
    /// checking every count the memo keeps against a walk over its records.
    /// Equal to [`CoverageMemo::bytes`] unless a vector grew behind the
    /// budget's back; panics on a broken invariant. For tests.
    pub fn recount(&self) -> usize {
        let (mut end, mut live, mut evictable, mut holes) = (0, 0, 0, 0);
        for (at, head) in self.records() {
            let words = self.record_words(head.key_len, head.has_neg);
            end = at + words;
            if head.dead {
                holes += words;
                continue;
            }
            live += 1;
            evictable += usize::from(head.stamp != self.search);
            let tag = tag_of(head.key_len, self.key_at(at, head.key_len));
            let slot = self.index.find(tag, |found| found == at);
            assert!(slot.is_some(), "live record at {at} is not indexed");
        }
        assert_eq!(end, self.arena.len(), "records tile the arena");
        assert_eq!(live, self.index.used, "one slot per live record");
        assert_eq!(evictable, self.evictable, "records of earlier searches");
        assert_eq!(holes, self.holes, "dead words");
        let (mut at, mut skeletons) = (0, 0);
        while let Some(&len) = self.skeletons.get(at) {
            at += 1 + len as usize;
            skeletons += 1;
        }
        assert_eq!(at, self.skeletons.len(), "skeletons tile their arena");
        assert_eq!(skeletons, self.skeleton_index.used, "one slot per skeleton");
        size_of::<Self>()
            + self.arena.capacity() * size_of::<u64>()
            + self.skeletons.capacity() * size_of::<u32>()
            + (self.index.slots.capacity() + self.skeleton_index.slots.capacity())
                * size_of::<Slot>()
    }
}

/// The `prove` of [`CoverageMemo::evaluate`] for one clause on `examples`:
/// the clause is `compile`d when the memo first asks for a proof, once for
/// both sides and every example.
pub(crate) fn proving<'a>(
    kb: &'a KnowledgeBase,
    settings: &'a Settings,
    examples: &'a Examples,
    compile: impl Fn() -> PreparedRule + 'a,
) -> impl FnMut(Side, &Bitset) -> (Bitset, u64) + 'a {
    let mut compiled = None;
    move |side, mask| {
        let lits = match side {
            Side::Pos => &examples.pos,
            Side::Neg => &examples.neg,
        };
        let rule = compiled.get_or_insert_with(&compile);
        evaluate_side_prepared(
            kb,
            settings.proof,
            rule,
            lits,
            Some(mask),
            settings.eval_threads,
        )
    }
}

/// The one lookup rule, for one side of one node: the covered examples and
/// the step total of a clause on the `live` mask, given what is `stored` of
/// it — covered set `C` and steps `S` on a mask `T` — and `prove`, which
/// runs the clause on a mask. With `gone = T∖live` and `fresh = live∖T`:
/// nothing to prove when both are empty; when they are fewer than the live
/// examples, prove those only — `S − S(gone) + S(fresh)` steps, covering
/// `(C ∩ live) ∪ C(fresh)`; else prove `live`. Exact because an example's
/// `(covered, steps)` does not depend on which others are evaluated with it.
fn difference_proof(
    stored: Option<Half<'_>>,
    live: &Bitset,
    mut prove: impl FnMut(&Bitset) -> (Bitset, u64),
) -> (Bitset, u64, Ran) {
    let Some(Half {
        steps,
        valid,
        covered,
    }) = stored
    else {
        let (bits, steps) = prove(live);
        return (bits, steps, Ran::Full);
    };
    let n = live.len();
    let differing = |a: &[u64], b: &[u64]| -> usize {
        let ones = a.iter().zip(b).map(|(a, b)| (a & !b).count_ones());
        ones.sum::<u32>() as usize
    };
    let gone = differing(valid, live.words());
    let fresh = differing(live.words(), valid);
    if gone + fresh == 0 {
        return (
            Bitset::from_words(n, covered.iter().copied()),
            steps,
            Ran::Nothing,
        );
    }
    if gone + fresh >= live.count() {
        let (bits, steps) = prove(live);
        return (bits, steps, Ran::Full);
    }
    let minus = |a: &[u64], b: &[u64]| Bitset::from_words(n, a.iter().zip(b).map(|(a, b)| a & !b));
    let mut steps = steps;
    let mut bits = Bitset::from_words(n, covered.iter().zip(live.words()).map(|(c, l)| c & l));
    if gone > 0 {
        steps -= prove(&minus(valid, live.words())).1;
    }
    if fresh > 0 {
        let (fresh_bits, fresh_steps) = prove(&minus(live.words(), valid));
        steps += fresh_steps;
        bits.union_with(&fresh_bits);
    }
    (bits, steps, Ran::Difference)
}

/// Appends the code of `term` with every variable blanked: a prefix code,
/// so equal codes are equal skeletons.
fn skeleton_code(term: &Term, out: &mut Vec<u32>) {
    let mut wide = |tag: u32, bits: u64| out.extend([tag, bits as u32, (bits >> 32) as u32]);
    match term {
        Term::Var(_) => out.push(0),
        Term::Sym(s) => out.extend([1, s.0]),
        Term::Int(i) => wide(2, *i as u64),
        Term::Float(x) => wide(3, x.0.to_bits()),
        Term::App(f, args) => {
            out.extend([4, f.0, args.len() as u32]);
            for a in args.iter() {
                skeleton_code(a, out);
            }
        }
    }
}

/// Canonical keys for the shapes of one bottom clause: two shapes — of this
/// bottom clause or of any other the same memo has seen — get equal keys
/// exactly when their clauses are equal after renaming variables in
/// first-occurrence order (head first, body literals in shape order).
pub(crate) struct ClauseKeys {
    /// The head, then each bottom literal: the id of its skeleton (the
    /// literal with every variable blanked, so literals differing only in
    /// variable names share one; `None` when the memo could not intern it)
    /// and its variable occurrences in argument order.
    lits: Vec<(Option<u32>, Vec<VarId>)>,
    /// Scratch: the key being written and the variables met so far.
    key: Key,
    renamed: Vec<VarId>,
}

impl ClauseKeys {
    /// Interns the skeletons of `bottom` in `memo`, where they stay for the
    /// memo's lifetime: that is what makes a key mean the same clause under
    /// every bottom clause.
    pub(crate) fn new(bottom: &BottomClause, memo: &mut CoverageMemo) -> Self {
        Self::over(&bottom.head, bottom.lits.iter().map(|bl| &bl.lit), memo)
    }

    /// The same for a plain clause, whose only shape is the whole of it
    /// ([`ClauseKeys::key_of_whole`]): `shape.to_clause(⊥e)` keyed this way
    /// and `shape` keyed under `⊥e` get the same key.
    pub(crate) fn of_clause(clause: &Clause, memo: &mut CoverageMemo) -> Self {
        Self::over(&clause.head, clause.body.iter(), memo)
    }

    fn over<'a>(
        head: &Literal,
        body: impl Iterator<Item = &'a Literal>,
        memo: &mut CoverageMemo,
    ) -> Self {
        let mut code = Vec::new();
        let mut entry = |lit: &Literal| {
            code.clear();
            code.extend([lit.pred.0, lit.args.len() as u32]);
            for a in lit.args.iter() {
                skeleton_code(a, &mut code);
            }
            let mut vars = Vec::new();
            lit.collect_vars(&mut vars);
            (memo.skeleton(&code), vars)
        };
        let mut lits = vec![entry(head)];
        lits.extend(body.map(entry));
        ClauseKeys {
            lits,
            key: Key::default(),
            renamed: Vec::new(),
        }
    }

    /// `shape`'s key; see [`ClauseKeys::key_over`].
    pub(crate) fn key_of(&mut self, shape: &RuleShape) -> Option<&Key> {
        self.key_over(shape.lits.iter().map(|&i| i as usize + 1))
    }

    /// The key of the clause made of every literal, in order.
    pub(crate) fn key_of_whole(&mut self) -> Option<&Key> {
        self.key_over(1..self.lits.len())
    }

    /// The key of the head followed by the `body` literals (indices into
    /// `lits`): for each its skeleton id followed by the canonical id of
    /// each variable occurrence. A skeleton fixes how many ids follow it, so
    /// distinct canonical clauses never share a key. (A clause has few
    /// variables: renaming is a linear scan.) `None` when a skeleton has no
    /// id or the key outgrows a header.
    fn key_over(&mut self, body: impl Iterator<Item = usize>) -> Option<&Key> {
        self.key.clear();
        self.renamed.clear();
        for i in std::iter::once(0).chain(body) {
            let (skeleton, vars) = &self.lits[i];
            self.key.push((*skeleton)?);
            for v in vars {
                let met = self.renamed.iter().position(|r| r == v);
                let id = met.unwrap_or_else(|| {
                    self.renamed.push(*v);
                    self.renamed.len() - 1
                });
                self.key.push(id as u32);
            }
        }
        if self.key.len > 0xFFFF {
            return None;
        }
        self.key.tag = tag_of(self.key.len, &self.key.words);
        Some(&self.key)
    }
}

/// The differential oracle and covering loops of `tests/variant_memo.rs`,
/// compiled in so that they can be handed a memo only this module can build.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::{covering_loop_matches_the_memo_free_search, Case};
    use super::*;
    use crate::refine::splitmix64;

    /// Example `i` takes `10 + i` steps and is covered when `i` is a
    /// multiple of 3; `proved` collects every example handed over.
    fn prover(proved: &mut Vec<usize>) -> impl FnMut(&Bitset) -> (Bitset, u64) + '_ {
        |mask| {
            proved.extend(mask.iter_ones());
            let covered = mask.iter_ones().filter(|i| i % 3 == 0);
            let steps = mask.iter_ones().map(|i| 10 + i as u64).sum();
            (Bitset::from_indices(mask.len(), covered), steps)
        }
    }

    fn set(indices: impl IntoIterator<Item = usize>) -> Bitset {
        Bitset::from_indices(70, indices)
    }

    /// The stored half of a clause evaluated on `valid` by [`prover`].
    fn stored(valid: &Bitset) -> (Bitset, u64) {
        prover(&mut Vec::new())(valid)
    }

    /// The rule itself, on a prover whose every example is told apart:
    /// forgetting `− S(gone)` or serving `C` without `∩ live` changes the
    /// result below.
    #[test]
    fn difference_proof_proves_what_changed_and_nothing_else() {
        let valid = set(0..40);
        let (covered, steps) = stored(&valid);
        let half = || {
            Some(Half {
                steps,
                valid: valid.words(),
                covered: covered.words(),
            })
        };

        // Same mask: served.
        let mut proved = Vec::new();
        let (bits, total, ran) = difference_proof(half(), &valid, prover(&mut proved));
        assert_eq!((bits, total, ran), (covered.clone(), steps, Ran::Nothing));
        assert!(proved.is_empty());

        // Examples 0, 1, 2 and 3 left (0 and 3 were covered), 64 to 66 —
        // in the second word — joined: those seven are proved, no other.
        let live = set(4..40).tap(|l| (64..67).for_each(|i| l.set(i)));
        let mut proved = Vec::new();
        let (bits, total, ran) = difference_proof(half(), &live, prover(&mut proved));
        let (want_bits, want_total) = stored(&live);
        assert_eq!(ran, Ran::Difference);
        assert_eq!(total, want_total, "S − S(gone) + S(fresh)");
        assert_eq!(bits, want_bits, "(C ∩ live) ∪ C(fresh)");
        assert_eq!(proved, [0, 1, 2, 3, 64, 65, 66]);

        // As many changed as are live: proved as if nothing were stored.
        let live = set(36..44);
        let mut proved = Vec::new();
        let (bits, total, ran) = difference_proof(half(), &live, prover(&mut proved));
        assert_eq!(
            (bits, total, ran),
            (stored(&live).0, stored(&live).1, Ran::Full)
        );
        assert_eq!(proved, (36..44).collect::<Vec<_>>());

        // Nothing stored: the same.
        let (bits, total, ran) = difference_proof(None, &live, prover(&mut Vec::new()));
        assert_eq!(
            (bits, total, ran),
            (stored(&live).0, stored(&live).1, Ran::Full)
        );
    }

    /// A drawn shape of `bottom`: `steps` successor picks down from the root.
    fn walk(bottom: &BottomClause, max_body: usize, picks: &[usize]) -> RuleShape {
        let mut shape = RuleShape::empty();
        for pick in picks {
            let succs = shape.successors(bottom, max_body);
            if succs.is_empty() {
                break;
            }
            shape = succs[pick % succs.len()].clone();
        }
        shape
    }

    fn key_parts(key: Option<&Key>) -> Option<(Vec<u64>, usize, u32)> {
        key.map(|k| (k.words.clone(), k.len, k.tag))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A shape keyed under its bottom clause and its clause keyed on its
        /// own are one key — which is what lets a rule the master sends back
        /// find the entry the search left — and the key reads the body in
        /// order.
        #[test]
        fn a_clause_and_its_shape_share_one_key(
            world_seed in proptest::prelude::any::<u64>(),
            example in 0usize..64,
            picks in proptest::collection::vec(0usize..1000, 0..4),
        ) {
            let w = oracle::world(world_seed, 12);
            let settings = Settings { max_var_depth: 2, max_bottom_literals: 40, ..Settings::default() };
            let seed = &w.examples.pos[example % w.examples.num_pos().max(1)];
            let Some(bottom) = crate::bottom::saturate(&w.kb, &w.modes, &settings, seed) else {
                return Ok(());
            };
            let shape = walk(&bottom, 3, &picks);
            let clause = shape.to_clause(&bottom);
            let mut memo = CoverageMemo::new();
            let by_shape = key_parts(ClauseKeys::new(&bottom, &mut memo).key_of(&shape));
            let by_clause = key_parts(ClauseKeys::of_clause(&clause, &mut memo).key_of_whole());
            proptest::prop_assert!(by_shape.is_some());
            proptest::prop_assert_eq!(&by_shape, &by_clause);

            // Literals of two predicates the other way round: another key
            // (two `atm` literals swapped are the same clause renamed).
            if clause.body.len() >= 2 && clause.body[0].pred != clause.body[1].pred {
                let mut swapped = clause.clone();
                swapped.body.swap(0, 1);
                let other = key_parts(ClauseKeys::of_clause(&swapped, &mut memo).key_of_whole());
                proptest::prop_assert_ne!(&by_clause, &other);
            }
        }
    }

    /// The bag round of a pipeline: a rule a search scored as a Figure 7
    /// seed — on the live positives and every negative — and the master then
    /// asks about on the same live set is answered without a proof, with the
    /// coverage a plain evaluation computes.
    #[test]
    fn a_rule_the_search_scored_as_a_seed_is_served_when_the_master_asks() {
        let w = oracle::world(2005, 16);
        let settings = Settings {
            noise: 2,
            min_pos: 2,
            max_body: 3,
            max_nodes: 400,
            max_bottom_literals: 40,
            eval_threads: 1,
            ..Settings::default()
        };
        let (kb, ex) = (&w.kb, &w.examples);
        let bottom = crate::bottom::saturate(kb, &w.modes, &settings, &ex.pos[0]).expect("head");
        let mut live = ex.full_pos_live();
        live.clear(1);
        let mut memo = CoverageMemo::new();
        let search = |seeds: &[RuleShape], memo: &mut CoverageMemo| {
            crate::search::search_rules_guided(
                kb,
                &settings,
                &bottom,
                ex,
                Some(&live),
                seeds,
                None,
                memo,
            )
        };
        let best = search(&[], &mut memo)
            .best()
            .expect("a good rule")
            .shape
            .clone();
        search(std::slice::from_ref(&best), &mut memo);

        let rule = best.to_clause(&bottom);
        let before = memo.stats();
        let scored = memo.evaluate_rules(kb, &settings, std::slice::from_ref(&rule), ex, &live);
        let after = memo.stats();
        assert_eq!(after.served, before.served + 1);
        assert_eq!(after.steps_run, before.steps_run, "no proof ran");
        let plain =
            crate::coverage::evaluate_rule(kb, settings.proof, &rule, ex, Some(&live), None);
        assert_eq!(scored, [plain]);
    }

    trait Tap: Sized {
        fn tap(mut self, f: impl FnOnce(&mut Self)) -> Self {
            f(&mut self);
            self
        }
    }
    impl Tap for Bitset {}

    /// The covering loops of `tests/variant_memo.rs` again, on a memo with
    /// room for a handful of records: every case evicts, most cases are
    /// refused room, and nothing a search reports may change. What the memo
    /// does — eviction order included — is a function of the case alone.
    #[test]
    fn a_memo_of_a_few_records_evicts_and_refuses_but_never_changes_a_result() {
        let run = |case: &Case| {
            let mut memo = CoverageMemo {
                budget: 2048,
                ..CoverageMemo::new()
            };
            covering_loop_matches_the_memo_free_search(case, &mut memo);
            memo.stats()
        };
        let (mut evicted, mut unstored, mut served) = (0, 0, 0);
        let mut seed = 2005;
        for _ in 0..24 {
            seed = splitmix64(seed);
            let case = Case::draw(seed);
            let stats = run(&case);
            assert_eq!(stats, run(&case), "{case:?}: same case, other counters");
            assert!(stats.peak_bytes <= 2048);
            evicted += stats.evicted;
            unstored += stats.unstored;
            served += stats.served + stats.partial;
        }
        assert!(evicted > 0, "no case evicted");
        assert!(unstored > 0, "no case was refused room");
        assert!(served > 0, "even a few records serve something");
    }
}
