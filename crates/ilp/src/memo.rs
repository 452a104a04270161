//! The coverage memo of a covering loop: per canonical clause the examples
//! it was last evaluated on, the ones it covered and what that cost, in a
//! fixed budget of flat memory. What the memo is *for* — the key, the
//! difference proof and why it is exact, what invalidates a memo — is told
//! where it is used, in [`crate::search`]'s module docs; this file is how it
//! is stored.
//!
//! # Layout
//!
//! Entries are records in one `Vec<u64>` arena, appended in insertion
//! order, each as long as what it holds:
//!
//! ```text
//! header        stamp (32 bits) | key length in u32s (16) | flags (16)
//! key           ⌈length/2⌉ words, two u32 per word
//! positive half steps S, then the covered set C, then T∖C — the examples of
//!               the mask T the half is valid for that C does not cover
//! negative half the same — absent until a node needs it
//! ```
//!
//! `C ⊆ T`, so `C` and `T∖C` say what `T` and `C` would, and they are the
//! small sets: a deep node was tried on the few examples its parent covers
//! and covers fewer. Each *set* is written the shorter of two ways, and a
//! header flag per set says which: its dense words (`⌈n/64⌉` for a side of
//! `n` examples), or a run of index slots — four 16-bit slots to the word
//! while the side has at most 65 536 examples, two 32-bit slots beyond —
//! slot 0 holding the count and the indices following in ascending order.
//! A side of 64 examples or fewer is always dense — a run is never shorter
//! than one word — so every half of such a memo is three words and is only
//! ever overwritten in place. On the ranks of a two-rank `mesh(1.0)` run,
//! whose positive masks are 23 words and where a stored `T` averages 47 of
//! 1 420 examples, a half averages 6 words where `S`, `T` and `C` dense
//! took 47.
//!
//! An open-addressing table of `(hash tag, arena offset)` slots, at most
//! half full, finds a record by key. A half whose new content takes the
//! words the old did is overwritten in place; when a half changes size, or
//! a lazy record gets its negative half, the whole record is appended anew
//! and the old one left dead. Eviction marks records dead too, and one
//! slide over the arena closes the holes and rebuilds the table.
//! Skeletons — a literal with its variables blanked, see `ClauseKeys` —
//! are interned the same way in a `Vec<u32>` arena for the memo's lifetime;
//! a skeleton's id is its offset. There is no allocation per entry.
//!
//! # Budget
//!
//! The capacity of those four vectors plus the struct itself — but for
//! what it works in rather than stores, a node's bitsets, the examples'
//! arena ids, the query packs' and the proofs' buffers and its statistics
//! (`Working`) — is the memo's accounted size, and it never
//! exceeds `BUDGET`: every vector grows
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
use crate::coverage::{
    prepare_rule, Coverage, ExampleIds, PackAnswers, PreparedRule, ProofBuffers, ProofScratch,
};
use crate::examples::Examples;
use crate::refine::RuleShape;
use crate::search::Pack;
use crate::settings::Settings;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::fxhash::FxHasher;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::term::{Term, VarId};
use std::hash::Hasher;
use std::mem::size_of;
use std::sync::Arc;

/// Hard cap on the bytes one memo allocates. See the "Memory" paragraph of
/// [`crate::search`]'s module docs for how it was chosen.
const BUDGET: usize = 128 * 1024;

/// Header flag: the record holds a negative half.
const HAS_NEG: u64 = 1;
/// Header flag: the record was evicted or superseded; the next slide drops it.
const DEAD: u64 = 2;

/// Header flag: set `set` of `side`'s half (0 is `C`, 1 is `T∖C`) is an
/// index run.
fn run_flag(side: Side, set: usize) -> u64 {
    4 << (2 * side as usize + set)
}

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
    /// Nodes of `proved` whose positives were answered by a query pack of
    /// their parent's successors ([`crate::search`], "Query packs").
    pub packed: u64,
    /// Query packs proved on the positives: `packed / packs` is their mean
    /// size.
    pub packs: u64,
    /// Extra-literal calls of query packs that a search's call table
    /// answered ([`crate::coverage`], "Query packs"), and the steps charged
    /// for them without running them.
    pub tabled: u64,
    pub tabled_steps: u64,
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

/// A few keys, told apart: the successors a query pack gathered that the
/// memo had no record of, so that of several variants only the first is
/// proved (the others find its record). Per key a word of its tag and
/// length, then its words.
#[derive(Default)]
pub(crate) struct KeySet {
    words: Vec<u64>,
}

impl KeySet {
    pub(crate) fn clear(&mut self) {
        self.words.clear();
    }

    /// Adds `key`; false when it is in the set already.
    pub(crate) fn insert(&mut self, key: &Key) -> bool {
        let head = u64::from(key.tag) << 32 | key.len as u64;
        let mut at = 0;
        while let Some(&word) = self.words.get(at) {
            let words = (word as u32 as usize).div_ceil(2);
            if word == head && self.words[at + 1..at + 1 + words] == key.words {
                return false;
            }
            at += 1 + words;
        }
        self.words.push(head);
        self.words.extend_from_slice(&key.words);
        true
    }
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
    /// The low 16 bits: [`HAS_NEG`], [`DEAD`] and a [`run_flag`] per set.
    flags: u64,
}

impl Header {
    fn of(word: u64) -> Self {
        Header {
            stamp: (word >> 32) as u32,
            key_len: (word >> 16) as usize & 0xFFFF,
            flags: word & 0xFFFF,
        }
    }

    fn pack(self) -> u64 {
        u64::from(self.stamp) << 32 | (self.key_len as u64) << 16 | self.flags
    }

    fn has_neg(self) -> bool {
        self.flags & HAS_NEG != 0
    }

    fn dead(self) -> bool {
        self.flags & DEAD != 0
    }
}

/// Index slots to the arena word on a side of `bits` examples.
fn slots(bits: usize) -> usize {
    if bits <= 1 << 16 {
        4
    } else {
        2
    }
}

/// Slot `i` of an index run on a side of `bits` examples.
fn slot(run: &[u64], bits: usize, i: usize) -> usize {
    let (per, width) = (slots(bits), 64 / slots(bits));
    (run[i / per] >> (i % per * width)) as usize & ((1 << width) - 1)
}

/// How one set of a half is stored: as an index run or dense, in `words`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SetShape {
    run: bool,
    words: usize,
}

impl SetShape {
    /// The shorter way to store `count` of `bits` examples: an index run —
    /// the count, then the indices — when that takes fewer words than the
    /// dense mask.
    fn of(bits: usize, count: usize) -> Self {
        let (run, dense) = ((count + 1).div_ceil(slots(bits)), bits.div_ceil(64));
        SetShape {
            run: run < dense,
            words: run.min(dense),
        }
    }

    /// The shape of the set stored at the head of `stored`, given its flag.
    fn stored(bits: usize, run: bool, stored: &[u64]) -> Self {
        let words = if run {
            (slot(stored, bits, 0) + 1).div_ceil(slots(bits))
        } else {
            bits.div_ceil(64)
        };
        SetShape { run, words }
    }

    /// Writes the set whose dense words are `dense` into `out`, which is
    /// `self.words` long.
    fn write(self, bits: usize, dense: impl Iterator<Item = u64>, out: &mut [u64]) {
        if !self.run {
            out.iter_mut().zip(dense).for_each(|(o, w)| *o = w);
            return;
        }
        let (per, width) = (slots(bits), 64 / slots(bits));
        out.fill(0);
        let mut count = 0;
        for (i, mut word) in dense.enumerate() {
            while word != 0 {
                count += 1;
                let index = (i * 64 + word.trailing_zeros() as usize) as u64;
                out[count / per] |= index << (count % per * width);
                word &= word - 1;
            }
        }
        out[0] |= count as u64;
    }
}

/// A set as the arena holds it, on a side of `bits` examples: read in
/// place where a count answers, decoded where a mask is needed.
#[derive(Clone, Copy)]
struct StoredSet<'a> {
    bits: usize,
    run: bool,
    words: &'a [u64],
}

impl StoredSet<'_> {
    /// The examples of an index run.
    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (1..=slot(self.words, self.bits, 0)).map(|i| slot(self.words, self.bits, i))
    }

    fn count(&self) -> usize {
        if self.run {
            slot(self.words, self.bits, 0)
        } else {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }
    }

    /// How many of the set's examples `mask` holds.
    fn count_in(&self, mask: &Bitset) -> usize {
        if self.run {
            self.indices().filter(|&i| mask.get(i)).count()
        } else {
            let common = self.words.iter().zip(mask.words()).map(|(w, m)| w & m);
            common.map(|w| w.count_ones() as usize).sum()
        }
    }

    /// Decodes the set into `out`, in the memory `out` holds.
    fn read_into(&self, out: &mut Bitset) {
        if self.run {
            out.reset(self.bits);
            self.indices().for_each(|i| out.set(i));
        } else {
            out.assign_words(self.bits, self.words);
        }
    }
}

/// One side of a node's result as [`CoverageMemo::evaluate`] hands it to
/// be stored: the mask it is valid for, the examples covered, the steps.
type SideResult<'a> = (&'a Bitset, &'a Bitset, u64);

/// How a half is stored: `S`, then `C` and `T∖C` each in its own shape.
type HalfShape = [SetShape; 2];

fn half_words(shape: HalfShape) -> usize {
    1 + shape[0].words + shape[1].words
}

/// Header `flags` with `side`'s run flags set for a half stored as `shape`.
fn with_runs(flags: u64, side: Side, shape: HalfShape) -> u64 {
    let flag = |set: usize| u64::from(shape[set].run) * run_flag(side, set);
    flags & !(run_flag(side, 0) | run_flag(side, 1)) | flag(0) | flag(1)
}

/// The shape `(valid, covered, _)` takes on a side of `bits` examples.
fn half_shape(bits: usize, (valid, covered, _): SideResult<'_>) -> HalfShape {
    let covers = covered.count();
    [covers, valid.count() - covers].map(|count| SetShape::of(bits, count))
}

/// Writes a half into `out`, which is [`half_words`] long.
fn write_half(
    bits: usize,
    shape: HalfShape,
    (valid, covered, steps): SideResult<'_>,
    out: &mut [u64],
) {
    let (head, sets) = out.split_first_mut().expect("a half starts with its steps");
    let (sets, rest) = sets.split_at_mut(shape[0].words);
    *head = steps;
    shape[0].write(bits, covered.words().iter().copied(), sets);
    let uncovered = valid
        .words()
        .iter()
        .zip(covered.words())
        .map(|(t, c)| t & !c);
    shape[1].write(bits, uncovered, rest);
}

/// One side of a stored entry: it was evaluated on `covered ⊎ uncovered`,
/// covered `covered`, and that took `steps`.
struct Half<'a> {
    steps: u64,
    covered: StoredSet<'a>,
    uncovered: StoredSet<'a>,
}

/// The half stored in `stored`, which is [`half_words`] long.
fn read_half(bits: usize, shape: HalfShape, stored: &[u64]) -> Half<'_> {
    let (covered, uncovered) = stored[1..].split_at(shape[0].words);
    let set = |set: usize, words| StoredSet {
        bits,
        run: shape[set].run,
        words,
    };
    Half {
        steps: stored[0],
        covered: set(0, covered),
        uncovered: set(1, uncovered),
    }
}

/// Where the parts of one record are.
struct Layout {
    head: Header,
    /// Per side the offset of its half and how it is stored.
    halves: [Option<(usize, HalfShape)>; 2],
    /// The length of the record.
    words: usize,
}

/// What [`CoverageMemo::evaluate`] found out about one node, read from the
/// memo's scratch until the next node.
pub(crate) struct Evaluated<'a> {
    /// Covered positives among the live ones, and the steps charged.
    pub pos: &'a Bitset,
    pub pos_steps: u64,
    /// The same for the negatives, when the node needs them.
    pub neg: Option<(&'a Bitset, u64)>,
    /// The most proving either side took.
    pub ran: Ran,
}

/// The bitsets a node is evaluated in, kept from node to node so that none
/// is allocated per node: per side the covered set the node answers with,
/// and the working sets of a difference proof.
#[derive(Default)]
struct Scratch {
    covered: [Bitset; 2],
    work: [Bitset; 3],
}

/// What the memo works in rather than stores, and so outside its budget,
/// which bounds what it *stores*: a node's bitsets, a few masks' worth
/// whatever the memo holds, and the example list the memo stands for with
/// the arena ids of its arguments ([`CoverageMemo::example_ids`]), one id
/// per argument of an example the rank holds anyway; the buffers of the
/// searches' query packs, at most 65 compiled rules and 128 masks, and of
/// their proofs — a binding store, two plan pools and a call table of
/// 40 KB — kept from search to search (even across
/// [`CoverageMemo::clear`]) so that they are made once per covering loop;
/// and the statistics, which are no record either.
#[derive(Default)]
struct Working {
    scratch: Scratch,
    example_ids: Option<(Examples, Arc<[ExampleIds; 2]>)>,
    pack: Pack,
    proof: ProofBuffers,
    stats: MemoStats,
}

/// The bytes of the memo's own struct that count against the budget:
/// every field but its [`Working`] part.
const OWN_BYTES: usize = size_of::<CoverageMemo>() - size_of::<Working>();

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
    working: Working,
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
            allocated: OWN_BYTES,
            budget: BUDGET,
            working: Working::default(),
        }
    }

    /// Forgets every entry and skeleton and frees their memory; the
    /// statistics stay.
    pub fn clear(&mut self) {
        let working = Working {
            pack: std::mem::take(&mut self.working.pack),
            proof: std::mem::take(&mut self.working.proof),
            stats: self.working.stats,
            ..Working::default()
        };
        *self = CoverageMemo {
            search: self.search,
            budget: self.budget,
            working,
            ..Self::new()
        };
    }

    /// What the memo did so far.
    pub fn stats(&self) -> MemoStats {
        self.working.stats
    }

    /// The bytes the memo accounts for: its own size plus the capacity of
    /// every vector it owns.
    pub fn bytes(&self) -> usize {
        self.allocated
    }

    /// How many entries the memo holds.
    pub fn records(&self) -> usize {
        self.index.used
    }

    /// The bound [`CoverageMemo::bytes`] never exceeds.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The arena ids of `examples`' arguments in `kb`, for the head test to
    /// bind by ([`ExampleIds`]): looked up once per example list and kept
    /// with the entries, which stand for one list and one KB too — a
    /// [`CoverageMemo::clear`] drops them, and another list replaces them.
    /// They are hints, so a KB that changed under them costs lookups, not
    /// results.
    pub(crate) fn example_ids(
        &mut self,
        kb: &KnowledgeBase,
        examples: &Examples,
    ) -> Arc<[ExampleIds; 2]> {
        if let Some((held, ids)) = &self.working.example_ids {
            if held.pos.shares(&examples.pos) && held.neg.shares(&examples.neg) {
                return Arc::clone(ids);
            }
        }
        let sides = [&examples.pos, &examples.neg];
        let ids = Arc::new(sides.map(|lits| ExampleIds::new(kb.arena(), lits)));
        self.working.example_ids = Some((examples.clone(), Arc::clone(&ids)));
        ids
    }

    /// The query pack buffers, lent to a search until it hands them back
    /// ([`CoverageMemo::keep_pack`]).
    pub(crate) fn take_pack(&mut self) -> Pack {
        std::mem::take(&mut self.working.pack)
    }

    /// Takes the query pack buffers back, with what the search's packs did.
    pub(crate) fn keep_pack(&mut self, mut pack: Pack) {
        let (packed, packs) = pack.take_counts();
        self.working.stats.packed += packed;
        self.working.stats.packs += packs;
        self.working.pack = pack;
    }

    /// Takes the proof buffers back from a search, or a round of
    /// [`CoverageMemo::evaluate_rules`], with what its call table answered.
    pub(crate) fn keep_proving(&mut self, proving: Proving<'_>) {
        let (tabled, steps) = proving.scratch.tabled();
        self.working.stats.tabled += tabled;
        self.working.stats.tabled_steps += steps;
        self.working.proof = proving.scratch.give_back();
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

    /// Where the parts of the record at `at` are.
    fn layout(&self, at: usize) -> Layout {
        let head = Header::of(self.arena[at]);
        let mut end = at + 1 + head.key_len.div_ceil(2);
        let mut half = |side: Side| {
            let (bits, from) = (self.bits[side as usize], end);
            end += 1;
            let shape = [0, 1].map(|set| {
                let run = head.flags & run_flag(side, set) != 0;
                let shape = SetShape::stored(bits, run, &self.arena[end..]);
                end += shape.words;
                shape
            });
            (from, shape)
        };
        let halves = [
            Some(half(Side::Pos)),
            head.has_neg().then(|| half(Side::Neg)),
        ];
        Layout {
            head,
            halves,
            words: end - at,
        }
    }

    /// The offset, header and length of every record, dead ones included.
    fn walk(&self) -> impl Iterator<Item = (usize, Header, usize)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let here = at;
            let record = (here < self.arena.len()).then(|| self.layout(here))?;
            at += record.words;
            Some((here, record.head, record.words))
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

    /// Whether a record is stored under `key`. Unlike a lookup this stamps
    /// nothing, so what may be evicted stays as it was.
    pub(crate) fn holds(&self, key: &Key) -> bool {
        self.slot_of(key).is_some()
    }

    /// The record stored under `key`, stamped as touched by this search.
    fn find(&mut self, key: &Key) -> Option<usize> {
        let at = self.index.slots[self.slot_of(key)?].at as usize;
        let head = Header::of(self.arena[at]);
        if head.stamp != self.search {
            let stamp = self.search;
            self.arena[at] = Header { stamp, ..head }.pack();
            self.evictable -= 1;
        }
        Some(at)
    }

    /// `side`'s half, stored at `from` as `shape`.
    fn half(&self, side: Side, (from, shape): (usize, HalfShape)) -> Half<'_> {
        let stored = &self.arena[from..from + half_words(shape)];
        read_half(self.bits[side as usize], shape, stored)
    }

    /// Evaluates one node — the clause `key` stands for, on the `live`
    /// positives and, if `needs_neg` of the covered count says so, on the
    /// `live` negatives — proving as little as the stored entry allows, and
    /// stores what it learnt. `prove` runs the clause on a mask of one side,
    /// writes the covered examples into the bitset it is handed and returns
    /// the steps taken; without a key everything is proved and nothing
    /// stored.
    pub(crate) fn evaluate(
        &mut self,
        key: Option<&Key>,
        live: [&Bitset; 2],
        needs_neg: impl Fn(u32) -> bool,
        mut prove: impl FnMut(Side, &Bitset, &mut Bitset) -> u64,
    ) -> Evaluated<'_> {
        let at = key.and_then(|k| self.find(k));
        let halves = at.map_or([None; 2], |at| self.layout(at).halves);
        let mut steps_run = 0;
        let mut bits = std::mem::take(&mut self.working.scratch);
        let mut side = |memo: &Self, side: Side, bits: &mut Scratch| {
            let stored = halves[side as usize].map(|half| memo.half(side, half));
            let covered = &mut bits.covered[side as usize];
            difference_proof(
                stored,
                live[side as usize],
                covered,
                &mut bits.work,
                |mask, out| {
                    let steps = prove(side, mask, out);
                    steps_run += steps;
                    steps
                },
            )
        };
        let (pos_steps, ran_pos) = side(self, Side::Pos, &mut bits);
        let neg =
            needs_neg(bits.covered[0].count() as u32).then(|| side(self, Side::Neg, &mut bits));
        let ran = neg.map_or(ran_pos, |n| n.1.max(ran_pos));
        self.working.stats.steps_run += steps_run;
        match ran {
            Ran::Nothing => self.working.stats.served += 1,
            Ran::Difference => self.working.stats.partial += 1,
            Ran::Full => self.working.stats.proved += 1,
        }
        let neg_steps = neg.map(|(steps, _)| steps);
        if let (Some(key), true) = (key, ran != Ran::Nothing) {
            let pos_half = (live[0], &bits.covered[0], pos_steps);
            let neg_half = neg_steps.map(|steps| (live[1], &bits.covered[1], steps));
            self.store(key, at, [Some(pos_half), neg_half]);
        }
        self.working.scratch = bits;
        let [pos, neg] = &self.working.scratch.covered;
        Evaluated {
            pos,
            pos_steps,
            neg: neg_steps.map(|steps| (neg, steps)),
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
        let mut proving = Proving::new(kb, settings, examples, self);
        let mut evaluate = |rule| {
            let mut keys = ClauseKeys::of_clause(rule, self);
            let mut compiled = None;
            let prove = |side, mask: &Bitset, out: &mut Bitset| {
                let rule = compiled.get_or_insert_with(|| prepare_rule(kb, rule));
                proving.prove(rule, side, mask, out)
            };
            let live = [live_pos, &every_neg];
            let node = self.evaluate(keys.key_of_whole(), live, |_| true, prove);
            let (neg, neg_steps) = node.neg.expect("the negatives were asked for");
            Coverage {
                pos: node.pos.clone(),
                neg: neg.clone(),
                steps: node.pos_steps + neg_steps,
            }
        };
        let scored = rules.iter().map(&mut evaluate).collect();
        self.keep_proving(proving);
        scored
    }

    /// Writes a node's halves — `(valid for, covered, steps)` — over the
    /// record at `at`, or into a new record when the key has none. A half
    /// the node did not evaluate keeps what is stored: the sides of an
    /// entry are valid independently of each other.
    fn store(&mut self, key: &Key, at: Option<usize>, halves: [Option<SideResult<'_>>; 2]) {
        let sides = [Side::Pos, Side::Neg];
        let shapes = sides.map(|side| {
            halves[side as usize].map(|half| half_shape(self.bits[side as usize], half))
        });

        // In place, each half that takes the words it took.
        let mut stored = [None; 2];
        if let Some(at) = at {
            stored = self.layout(at).halves;
            let mut fits = true;
            for side in sides {
                let i = side as usize;
                let (Some(half), Some(shape)) = (halves[i], shapes[i]) else {
                    continue;
                };
                match stored[i] {
                    Some((from, was)) if half_words(was) == half_words(shape) => {
                        let out = &mut self.arena[from..from + half_words(shape)];
                        write_half(self.bits[i], shape, half, out);
                        self.arena[at] = with_runs(self.arena[at], side, shape);
                    }
                    _ => fits = false,
                }
            }
            if fits {
                return;
            }
        }

        // Else a record is appended: the key's first, or — a half changed
        // size, or a lazy record gets its negative half — one that takes
        // over the slot and leaves the old one dead.
        let kept = |i: usize| stored[i].map_or(0, |(_, was)| half_words(was));
        let halves_words = |i: usize| shapes[i].map_or(kept(i), half_words);
        let words = 1 + key.words.len() + halves_words(0) + halves_words(1);
        if !self.make_room(false, words, at.is_none()) {
            self.working.stats.unstored += 1;
            return;
        }
        let to = self.arena.len();
        let mut head = Header {
            stamp: self.search,
            key_len: key.len,
            flags: 0,
        };
        if at.is_none() {
            self.index.insert(key.tag, to);
        } else {
            // Making room may have slid the old record, but not evicted
            // it: this search touched it.
            let slot = self
                .slot_of(key)
                .expect("an entry this search touched is not evicted");
            let old = self.index.slots[slot].at as usize;
            let was = self.layout(old);
            (head, stored) = (was.head, was.halves);
            self.index.slots[slot].at = to as u32;
            self.arena[old] |= DEAD;
            self.holes += was.words;
        }
        self.arena.push(0);
        self.arena.extend_from_slice(&key.words);
        for side in sides {
            let i = side as usize;
            let from = self.arena.len();
            if let (Some(half), Some(shape)) = (halves[i], shapes[i]) {
                self.arena.resize(from + half_words(shape), 0);
                write_half(self.bits[i], shape, half, &mut self.arena[from..]);
                head.flags = with_runs(head.flags, side, shape);
            } else if let Some((kept, shape)) = stored[i] {
                self.arena
                    .extend_from_within(kept..kept + half_words(shape));
            }
            if side == Side::Neg && self.arena.len() > from {
                head.flags |= HAS_NEG;
            }
        }
        self.arena[to] = head.pack();
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
            self.working.stats.peak_bytes = self.working.stats.peak_bytes.max(self.allocated);
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
            let evictable = |head: &Header| !head.dead() && head.stamp != self.search;
            let oldest = self
                .walk()
                .filter(|(_, head, _)| evictable(head))
                .map(|(_, head, _)| head.stamp)
                .min()
                .expect("an evictable record is a live record of an earlier search");
            let mut at = 0;
            while at < self.arena.len() && freed < goal {
                let Layout { head, words, .. } = self.layout(at);
                if !head.dead() && head.stamp == oldest {
                    self.arena[at] |= DEAD;
                    freed += words;
                    self.evictable -= 1;
                    self.working.stats.evicted += 1;
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
            let Layout { head, words, .. } = self.layout(from);
            if !head.dead() {
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
        for (at, head, words) in self.walk() {
            end = at + words;
            if head.dead() {
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
        OWN_BYTES
            + self.arena.capacity() * size_of::<u64>()
            + self.skeletons.capacity() * size_of::<u32>()
            + (self.index.slots.capacity() + self.skeleton_index.slots.capacity())
                * size_of::<Slot>()
    }
}

/// What proves the clauses of one search — or of one round of
/// [`CoverageMemo::evaluate_rules`] — for [`CoverageMemo::evaluate`]: one
/// proof scratch in the buffers the memo lends until
/// [`CoverageMemo::keep_proving`], and the arena ids of the examples'
/// arguments the memo keeps, for every clause, side and example.
pub(crate) struct Proving<'a> {
    examples: &'a Examples,
    ids: Arc<[ExampleIds; 2]>,
    threads: usize,
    scratch: ProofScratch<'a>,
}

impl<'a> Proving<'a> {
    pub(crate) fn new(
        kb: &'a KnowledgeBase,
        settings: &Settings,
        examples: &'a Examples,
        memo: &mut CoverageMemo,
    ) -> Self {
        Proving {
            examples,
            ids: memo.example_ids(kb, examples),
            threads: settings.eval_threads,
            scratch: ProofScratch::lend(
                kb,
                settings.proof,
                std::mem::take(&mut memo.working.proof),
            ),
        }
    }

    /// Proves `rule` on `side`'s examples in `mask`, writing the covered
    /// ones into `out`; returns the steps.
    pub(crate) fn prove(
        &mut self,
        rule: &PreparedRule,
        side: Side,
        mask: &Bitset,
        out: &mut Bitset,
    ) -> u64 {
        let lits = match side {
            Side::Pos => &self.examples.pos,
            Side::Neg => &self.examples.neg,
        };
        let ids = &self.ids[side as usize];
        self.scratch
            .evaluate_side(rule, lits, Some(ids), Some(mask), self.threads, out)
    }

    /// Proves the query pack of `parent` — the `members` in `which` — on
    /// `side`'s examples in `mask`, into `answers`
    /// ([`ProofScratch::eval_pack`]).
    pub(crate) fn prove_pack(
        &mut self,
        parent: &PreparedRule,
        members: &[PreparedRule],
        which: u64,
        (side, mask): (Side, &Bitset),
        answers: &mut PackAnswers,
    ) {
        let lits = match side {
            Side::Pos => &self.examples.pos,
            Side::Neg => &self.examples.neg,
        };
        let ids = &self.ids[side as usize];
        self.scratch.eval_pack(
            parent,
            members,
            which,
            lits,
            Some(ids),
            mask,
            self.threads,
            answers,
        );
    }
}

/// The one lookup rule, for one side of one node: the covered examples
/// (written into `covered`) and the step total of a clause on the `live`
/// mask, given what is `stored` of it — covered set `C` and steps `S` on a
/// mask `T` — and `prove`, which runs the clause on a mask and writes what
/// it covers into the set it is handed; `work` is scratch. With `gone =
/// T∖live` and `fresh = live∖T`:
/// nothing to prove when both are empty; when they are fewer than the live
/// examples, prove those only — `S − S(gone) + S(fresh)` steps, covering
/// `(C ∩ live) ∪ C(fresh)`; else prove `live`. Exact because an example's
/// `(covered, steps)` does not depend on which others are evaluated with it.
fn difference_proof(
    stored: Option<Half<'_>>,
    live: &Bitset,
    covered: &mut Bitset,
    [valid, mask, proved]: &mut [Bitset; 3],
    mut prove: impl FnMut(&Bitset, &mut Bitset) -> u64,
) -> (u64, Ran) {
    let Some(Half {
        mut steps,
        covered: stored_covered,
        uncovered,
    }) = stored
    else {
        return (prove(live, covered), Ran::Full);
    };
    let common = stored_covered.count_in(live) + uncovered.count_in(live);
    let gone = stored_covered.count() + uncovered.count() - common;
    let fresh = live.count() - common;
    if gone + fresh == 0 {
        stored_covered.read_into(covered);
        return (steps, Ran::Nothing);
    }
    if gone + fresh >= live.count() {
        return (prove(live, covered), Ran::Full);
    }
    stored_covered.read_into(covered);
    uncovered.read_into(valid);
    valid.union_with(covered);
    covered.intersect_with(live);
    if gone > 0 {
        mask.copy_from(valid);
        mask.difference_with(live);
        steps -= prove(mask, proved);
    }
    if fresh > 0 {
        mask.copy_from(live);
        mask.difference_with(valid);
        steps += prove(mask, proved);
        covered.union_with(proved);
    }
    (steps, Ran::Difference)
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
    /// and where its variable occurrences, in argument order, end in
    /// `vars`.
    lits: Vec<(Option<u32>, usize)>,
    vars: Vec<VarId>,
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
        let mut vars = Vec::new();
        let mut entry = |lit: &Literal| {
            code.clear();
            code.extend([lit.pred.0, lit.args.len() as u32]);
            for a in lit.args.iter() {
                skeleton_code(a, &mut code);
            }
            lit.collect_vars(&mut vars);
            (memo.skeleton(&code), vars.len())
        };
        let mut lits = vec![entry(head)];
        lits.extend(body.map(entry));
        ClauseKeys {
            lits,
            vars,
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
            let (skeleton, end) = self.lits[i];
            let start = i.checked_sub(1).map_or(0, |before| self.lits[before].1);
            self.key.push(skeleton?);
            for v in &self.vars[start..end] {
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
    use crate::refine::{next_appendable, splitmix64};
    use std::collections::HashMap;

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

    /// [`difference_proof`] with the covered set returned, run in scratch
    /// sets that hold what an earlier, wider node left there: nothing of it
    /// may leak into the answer.
    fn proof(
        stored: Option<Half<'_>>,
        live: &Bitset,
        mut prove: impl FnMut(&Bitset) -> (Bitset, u64),
    ) -> (Bitset, u64, Ran) {
        let stale = || Bitset::full(live.len() + 130);
        let (mut covered, mut work) = (stale(), [stale(), stale(), stale()]);
        let (steps, ran) = difference_proof(stored, live, &mut covered, &mut work, |mask, out| {
            let (bits, steps) = prove(mask);
            out.copy_from(&bits);
            steps
        });
        (covered, steps, ran)
    }

    /// A stored set, decoded.
    fn read(set: StoredSet<'_>) -> Bitset {
        let mut out = Bitset::full(3);
        set.read_into(&mut out);
        out
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
        let uncovered = valid.clone().tap(|v| v.difference_with(&covered));
        fn dense(set: &Bitset) -> StoredSet<'_> {
            StoredSet {
                bits: 70,
                run: false,
                words: set.words(),
            }
        }
        let half = || {
            Some(Half {
                steps,
                covered: dense(&covered),
                uncovered: dense(&uncovered),
            })
        };

        // Same mask: served.
        let mut proved = Vec::new();
        let (bits, total, ran) = proof(half(), &valid, prover(&mut proved));
        assert_eq!((bits, total, ran), (covered.clone(), steps, Ran::Nothing));
        assert!(proved.is_empty());

        // Examples 0, 1, 2 and 3 left (0 and 3 were covered), 64 to 66 —
        // in the second word — joined: those seven are proved, no other.
        let live = set(4..40).tap(|l| (64..67).for_each(|i| l.set(i)));
        let mut proved = Vec::new();
        let (bits, total, ran) = proof(half(), &live, prover(&mut proved));
        let (want_bits, want_total) = stored(&live);
        assert_eq!(ran, Ran::Difference);
        assert_eq!(total, want_total, "S − S(gone) + S(fresh)");
        assert_eq!(bits, want_bits, "(C ∩ live) ∪ C(fresh)");
        assert_eq!(proved, [0, 1, 2, 3, 64, 65, 66]);

        // As many changed as are live: proved as if nothing were stored.
        let live = set(36..44);
        let mut proved = Vec::new();
        let (bits, total, ran) = proof(half(), &live, prover(&mut proved));
        assert_eq!(
            (bits, total, ran),
            (stored(&live).0, stored(&live).1, Ran::Full)
        );
        assert_eq!(proved, (36..44).collect::<Vec<_>>());

        // Nothing stored: the same.
        let (bits, total, ran) = proof(None, &live, prover(&mut Vec::new()));
        assert_eq!(
            (bits, total, ran),
            (stored(&live).0, stored(&live).1, Ran::Full)
        );
    }

    /// `n` examples, each in the set `per_mille` times in a thousand.
    fn drawn(n: usize, seed: u64, per_mille: u64) -> Bitset {
        let mut state = seed;
        let mut draw = || {
            state = splitmix64(state);
            state % 1000 < per_mille
        };
        Bitset::from_indices(n, (0..n).filter(|_| draw()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// A half written to the arena reads back as the sets it was made
        /// of, tells its own length, and answers a live mask as those sets
        /// do — at the sizes where the encoding switches: one word and its
        /// padding (1, 63, 64), the first side a run can be shorter on (65),
        /// a mesh rank (1 420), the widest 16-bit index and the first
        /// 32-bit one (65 536, 65 537); empty, sparse, dense and full sets.
        #[test]
        fn a_stored_half_reads_back_and_answers_as_its_dense_sets_do(
            n in proptest::sample::select(vec![1usize, 63, 64, 65, 1420, 65_536, 65_537]),
            seed in proptest::prelude::any::<u64>(),
            density in proptest::collection::vec(
                proptest::sample::select(vec![0u64, 1, 20, 200, 500, 950, 1000]), 3),
            live_is in 0usize..3,
        ) {
            // The clause covers `covers`; example `i` takes `10 + i` steps.
            let covers = drawn(n, seed ^ 1, density[1]);
            let prove = |proved: &mut Vec<usize>, mask: &Bitset| {
                proved.extend(mask.iter_ones());
                let mut bits = mask.clone();
                bits.intersect_with(&covers);
                (bits, mask.iter_ones().map(|i| 10 + i as u64).sum::<u64>())
            };
            let valid = drawn(n, seed, density[0]);
            let (covered, steps) = prove(&mut Vec::new(), &valid);

            let shape = half_shape(n, (&valid, &covered, steps));
            let counts = [covered.count(), valid.count() - covered.count()];
            let (per_word, dense) = (if n <= 65_536 { 4 } else { 2 }, n.div_ceil(64));
            for (set, count) in shape.iter().zip(counts) {
                let run = (count + 1).div_ceil(per_word);
                proptest::prop_assert_eq!(set.run, run < dense, "{} of {}", count, n);
                proptest::prop_assert_eq!(set.words, run.min(dense), "{} of {}", count, n);
            }
            let mut arena = vec![!0; half_words(shape) + 1];
            write_half(n, shape, (&valid, &covered, steps), &mut arena[..half_words(shape)]);
            let mut at = 1;
            for set in shape {
                proptest::prop_assert_eq!(SetShape::stored(n, set.run, &arena[at..]), set);
                at += set.words;
            }
            let minus = |a: &Bitset, b: &Bitset| a.clone().tap(|a| a.difference_with(b));
            let stored = || read_half(n, shape, &arena[..half_words(shape)]);
            proptest::prop_assert_eq!(stored().steps, steps);
            proptest::prop_assert_eq!(&read(stored().covered), &covered);
            proptest::prop_assert_eq!(&read(stored().uncovered), &minus(&valid, &covered));
            proptest::prop_assert_eq!(stored().uncovered.count(), counts[1]);

            // The same mask, the mask with a few examples gone and a few
            // joined, another mask altogether.
            let live = match live_is {
                0 => valid.clone(),
                1 => valid.clone().tap(|l| for k in 0..4 {
                    let i = (splitmix64(seed ^ k) % n as u64) as usize;
                    if l.get(i) { l.clear(i) } else { l.set(i) }
                }),
                _ => drawn(n, seed ^ 2, density[2]),
            };
            let (gone, fresh) = (minus(&valid, &live), minus(&live, &valid));
            let mut proved = Vec::new();
            let (bits, total, ran) =
                proof(Some(stored()), &live, |mask| prove(&mut proved, mask));
            let (want_bits, want_total) = prove(&mut Vec::new(), &live);
            proptest::prop_assert_eq!((&bits, total), (&want_bits, want_total));
            let changed: Vec<usize> = gone.iter_ones().chain(fresh.iter_ones()).collect();
            let (want_ran, want_proved) = match changed.len() {
                0 => (Ran::Nothing, Vec::new()),
                k if k >= live.count() => (Ran::Full, live.iter_ones().collect()),
                _ => (Ran::Difference, changed),
            };
            proptest::prop_assert_eq!(ran, want_ran);
            proptest::prop_assert_eq!(proved, want_proved);
        }
    }

    /// A drawn shape of `bottom`: `steps` successor picks down from the root,
    /// each among the literals the shape may append.
    fn walk(bottom: &BottomClause, max_body: usize, picks: &[usize]) -> RuleShape {
        let (mut shape, mut bound) = (RuleShape::empty(), Vec::new());
        for pick in picks {
            shape.bound_vars_into(bottom, &mut bound);
            let next = |from| next_appendable(bottom, &bound, shape.body_len(), max_body, from);
            let appendable: Vec<usize> =
                std::iter::successors(next(shape.append_from()), |&j| next(j + 1)).collect();
            if appendable.is_empty() {
                break;
            }
            shape.lits.push(appendable[pick % appendable.len()] as u32);
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
            crate::search::Search {
                live_pos: Some(&live),
                seeds,
                ..crate::search::Search::new(kb, &settings, &bottom, ex)
            }
            .run(memo)
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

    /// Per live record, by key: the words of its halves and how many of
    /// its sets are index runs.
    fn census(memo: &CoverageMemo) -> HashMap<Vec<u64>, ([Option<usize>; 2], usize)> {
        let live = memo.walk().filter(|(_, head, _)| !head.dead());
        live.map(|(at, head, _)| {
            let halves = memo.layout(at).halves;
            let sets = halves.iter().flatten().flat_map(|(_, shape)| shape);
            (
                memo.key_at(at, head.key_len).to_vec(),
                (
                    halves.map(|half| half.map(|(_, shape)| half_words(shape))),
                    sets.filter(|set| set.run).count(),
                ),
            )
        })
        .collect()
    }

    /// The memo-free oracle once more, on an example list wide enough for
    /// sets to be stored both ways: a thousand positives, so a mask is 17
    /// words and a set of up to 63 examples an index run. A covering loop of
    /// two bottom clauses — seedless, then seeded, on a live set that
    /// shrinks — must store runs and dense sets side by side, complete lazy
    /// records and move halves whose size changed, with every search equal
    /// to the memo-free one and the accounting exact after each.
    #[test]
    fn a_wide_example_list_stores_sets_both_ways_and_moves_halves_that_change_size() {
        let w = oracle::world(2005, 2200);
        let mut settings = Settings {
            noise: 40,
            max_body: 3,
            max_nodes: 30,
            max_bottom_literals: 40,
            proof: p2mdie_logic::prover::ProofLimits {
                max_depth: 3,
                max_steps: 60,
            },
            eval_threads: 1,
            ..Settings::default()
        };
        let (kb, ex) = (&w.kb, &w.examples);
        assert!(ex.num_pos() >= 1000 && ex.num_neg() >= 1000);
        let mut memo = CoverageMemo::new();
        let mut live = ex.full_pos_live();
        let mut before = census(&memo);
        let (mut runs, mut dense, mut completed, mut resized, mut in_place) = (0, 0, 0, 0, 0);
        for round in 0..2 {
            let seed = live.first().expect("a fifth of them leaves per round");
            // Most two-literal shapes fall short of this and are stored
            // without their negatives, until one comes back as a seed.
            settings.min_pos = live.count() as u32 * 97 / 100;
            let bottom =
                crate::bottom::saturate(kb, &w.modes, &settings, &ex.pos[seed]).expect("head");
            let shallow = oracle::shallow_shapes(&bottom, settings.max_body);
            let seeds: Vec<RuleShape> = shallow.iter().skip(1).step_by(7).cloned().collect();
            for seeds in [&[][..], &seeds[..]] {
                let what = format!("bottom {round}, {} seeds", seeds.len());
                let memoised = crate::search::Search {
                    live_pos: Some(&live),
                    seeds,
                    ..crate::search::Search::new(kb, &settings, &bottom, ex)
                }
                .run(&mut memo);
                let plain =
                    oracle::memo_free_search(kb, &settings, &bottom, ex, Some(&live), seeds, None);
                oracle::assert_same(&memoised, &plain, &what);
                assert_eq!(memo.bytes(), memo.recount(), "{what}: accounted bytes");
                assert!(memo.stats().peak_bytes <= memo.budget(), "{what}");

                let after = census(&memo);
                for (key, (halves, run_sets)) in &after {
                    let sets = 2 * halves.iter().flatten().count();
                    runs += run_sets;
                    dense += sets - run_sets;
                    let Some((was, _)) = before.get(key) else {
                        continue;
                    };
                    completed += usize::from(was[1].is_none() && halves[1].is_some());
                    let both = |side: usize| was[side].zip(halves[side]);
                    let changed = |side| both(side).is_some_and(|(was, is)| was != is);
                    resized += usize::from(changed(0) || changed(1));
                    in_place += usize::from(was == halves);
                }
                before = after;
            }
            // What a covering step does to the live set, without asking
            // this world for a good rule: a share of the positives leaves.
            let leaving: Vec<usize> = live.iter_ones().step_by(5).collect();
            leaving.into_iter().for_each(|i| live.clear(i));
        }
        assert!(
            runs > 0 && dense > 0,
            "{runs} index runs, {dense} dense sets"
        );
        assert!(completed > 0, "no lazy record was completed");
        assert!(resized > 0, "no half changed size");
        assert!(in_place > 0, "no record kept its layout");
        assert!(memo.stats().partial > 0, "no difference proof ran");
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
