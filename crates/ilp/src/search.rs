//! Top-down breadth-first rule search (the paper's `learn_rule`, Figure 2).
//!
//! Starting from seed shapes (the most-general rule by default, or the rules
//! received from the previous pipeline stage in `learn_rule'`, Figure 7),
//! the search expands the refinement lattice breadth-first, evaluates every
//! candidate on the (local) examples, collects the "good" rules, and stops
//! on the node budget — April's "threshold on the number of rules that can
//! be generated on each search" (§5.2).
//!
//! # Monotone coverage pruning
//!
//! Refinement only ever appends body literals, and an SLD proof of the
//! extended body passes through a proof of the prefix within the same step
//! and depth budget — so a child rule can only cover a *subset* of its
//! parent's coverage, even under bounded proofs. The search exploits this:
//! each evaluated node's covered-positive/covered-negative bitsets wait
//! with it in the search's frontier, as words in one flat queue, and are
//! the live masks of every one of its successors. A child is then
//! evaluated on O(|parent coverage|) examples instead of O(|E|), with
//! bit-identical results; examples the parent already failed to cover are
//! never touched again anywhere in that subtree.
//!
//! # A lazy frontier
//!
//! A search the node budget ends leaves much of the last level it reached
//! queued — on the `carc-pipe-p2` learn, a queue of every successor built
//! 67 120 shapes for 28 975 nodes — so a successor is built only when the
//! breadth-first order reaches it. The queue holds evaluated nodes, each
//! with a cursor to the next literal it may append
//! (`refine::next_appendable`, the lattice's one admissibility rule), and
//! the front node yields its successors one at a time: the order is that of
//! a queue of every successor. No set of shapes seen is kept. From one
//! root, appending ascending literals reaches a shape once
//! ([`crate::refine`]), so a successor can only repeat a Figure 7 seed, and
//! one that does is skipped: the seeds are evaluated, each once, before any
//! successor.
//!
//! # One loop, two evaluators
//!
//! Figure 2's `learn_rule` is this module's one breadth-first loop, and a
//! search is one value, [`Search`]: kb, settings, ⊥e, examples, live
//! positives, seeds, lattice slice and how many good rules to keep. Its
//! callers differ only in *who evaluates a node* — the data-parallel
//! Aleph of Konstantopoulos is the sequential search with coverage alone
//! distributed — so that is the one thing a search is run with, an
//! evaluator chosen by type (no trait object on the node path). The loop
//! gathers a round of the next nodes the frontier yields, without queueing
//! any, has the evaluator score them in order, keeps the good ones ranked
//! by [`ScoredRule::rank_key`], and queues each that reaches `min_pos`.
//!
//! * The memo evaluator ([`Search::run`]) takes one node a round and proves
//!   it on its parent's covered sets through the covering loop's memo, in
//!   query packs and the search's call table, its negatives only when they
//!   can matter: the sections below. The sequential loop and every
//!   pipeline and hypothesis-parallel stage run it.
//! * The batched evaluator ([`Search::run_batched`]) hands a round's
//!   clauses to a fallible callback and gets their `(pos, neg)` counts
//!   back; it keeps no masks and proves nothing. The coverage-parallel
//!   baseline runs it, its callback one evaluation round on every rank,
//!   with rounds of one node (per clause) or unbounded (per level): as
//!   nothing is queued while a round is gathered, what the frontier yields
//!   within the node budget is exactly one breadth-first level.
//!
//! The node order does not depend on the round size, so both find the same
//! rules in the same `nodes`: `tests/oracle` holds both evaluators, at one
//! node and at a level a round, to a memo-free reference on random worlds,
//! and `tests/query_pack_inputs.rs` the batched search to the sequential
//! loop's on the benchmark inputs.
//!
//! # Coverage memo
//!
//! A breadth-first walk over subsets of ⊥e meets the same clause *up to
//! variable renaming* again and again: ⊥e of a 20-atom molecule holds half
//! a dozen `atm(M,Ai,c,Ci)` literals, so `{atm₁}`, `{atm₂}`, … and all
//! their pairs are alphabetic variants of each other. And a covering loop
//! meets the same clauses search after search: consecutive bottom clauses
//! share their shallow lattice (1 776 distinct clauses in the 15 201 nodes
//! of a `carcinogenesis(0.3)` run), and on a pipeline rank stage k of one
//! pipeline walks what stage 1 of another walked. The loop that owns the
//! live set therefore owns one [`CoverageMemo`] and hands it to every
//! search; a search without a loop around it ([`search_rules`]) brings its
//! own. A node the memo can answer is not compiled and not proved, and its
//! steps are charged exactly as if it had been: the work is skipped, the
//! fuel is kept — the convention of the prover's bulk-charged plans, and of
//! the query packs below — so
//! `good`, `seed_scored`, `nodes` and `steps`, and with them every theory,
//! virtual time and table, are bit-identical to the memo-free search
//! whatever the memo holds. [`SearchOutcome::reused`] and
//! [`CoverageMemo::stats`] say how nodes were served.
//!
//! *The key* is the node's *canonical* clause: variables renamed in
//! first-occurrence order — head first — literal order kept, written as one
//! skeleton id per literal (the literal with its variables blanked, interned
//! for the memo's lifetime) followed by its renamed variables. It does not
//! mention ⊥e: equal keys are the same clause under any bottom clause.
//!
//! *The rule.* An entry holds, per side, the mask `T` the clause was last
//! evaluated on, the covered set `C ⊆ T` and the step total `S = Σ_{i∈T}
//! steps_i`. A node with live mask `L` takes `gone = T∖L` and `fresh =
//! L∖T`. Both empty: `(C, S)` is the answer. Fewer of them than `|L|`: the
//! clause is proved on `gone` for its steps and on `fresh`, and the answer
//! is `C' = (C ∩ L) ∪ C(fresh)`, `S' = S − S(gone) + S(fresh)`. Else `L` is
//! proved. Either way the entry becomes `(L, C', S')`.
//! An example's `(covered, steps)` is a function of the clause, the example,
//! the KB and the proof limits — not of the examples evaluated with it —
//! so a side's result is a sum over its mask and sums over disjoint masks
//! add: `L = (T ∖ gone) ⊎ fresh` gives the two formulas.
//! This one rule covers variants within a search (their BFS parents are
//! variants, so `T = L`), the live set shrinking between epochs (`gone` is
//! what was covered since; each entry proves it once, then it has left
//! `T`), and Figure 7 seeds, which are evaluated on the caller's `live_pos`
//! and every negative, against their non-seed variants (`fresh` is what the
//! parent did not cover). The lazy negative side survives: an entry made by
//! a node below `min_pos` holds the positive side only, and the first node
//! that needs more proves the negatives and completes it; the sides are
//! valid independently.
//!
//! *Validity.* A memo stands for one example list, one `ProofLimits` and the
//! KB as rule bodies see it, and its owner clears it when one changes: a
//! worker rank on a new partition, on adopted examples and on a new KB
//! snapshot. The KB also changes when `mark_covered` asserts an accepted
//! rule (Fig. 6, `B ∪ {R}`) — but what a candidate body proves changes only
//! if the body can *call* `R`, i.e. the target is a body-mode predicate or
//! occurs in a rule body of the KB
//! ([`crate::engine::IlpEngine::callable_from_bodies`]). On fact-only KBs
//! with non-recursive targets — every dataset here — it never does, and
//! clearing on every accepted rule would forfeit the memo exactly where it
//! pays, between epochs. The sequential loop asserts nothing.
//!
//! A *job* is not a boundary. Every rank is resident: its memo outlives
//! its jobs (a one-shot run's single job starts a new one, on a new mesh),
//! and the same three conditions decide at the seam: it is cleared when a
//! job ships the rank another example subset, when a job's `ProofLimits`
//! are not the previous job's, on a KB snapshot between jobs — and at the
//! end of a job that asserted a rule bodies can call, because the job's
//! rules leave the KB with the job and whatever was stored after that
//! assert saw them. A job that asserted only rules no body can call leaves
//! the memo standing, so the next job on the same examples — a coverage
//! query, a rule search, a whole learning run — starts from what the last
//! one proved.
//!
//! *One path.* The steps a memo's proofs run ([`CoverageMemo::stats`]'s
//! `steps_run`) are the proofs it asked for, each charged as that node alone
//! would be, whether a query pack answered it or not; a pack runs fewer,
//! and its call table fewer still.
//! Scoring a clause on its own — the master's `Evaluate` of a
//! bag, `MarkCovered`, a theory replay — goes through the same memo as a
//! search node ([`CoverageMemo::evaluate_rules`]): the clause is keyed as
//! the shape it came from was (`shape.to_clause(⊥e)` and `shape` under `⊥e`
//! share a key), looked up by the same rule on the live positives and
//! every negative, and charged as if proved. A bag round re-scores clauses
//! a stage has just scored as Figure 7 seeds on the same masks, and the
//! next round scores them again on a live set that lost what was accepted.
//! A node the memo cannot answer is proved as such a clause would be, and
//! without building it: ⊥e's literals are compiled once per search — their
//! dispatch and the arena ids of their constants
//! ([`crate::coverage::CompiledBottom`]) — and each node is compiled from
//! them into the one [`crate::coverage::PreparedRule`] the search keeps,
//! numbered as `Clause::dense` numbers `shape.to_clause(⊥e)` (equal to
//! [`crate::coverage::prepare_rule`] of it, literal for literal:
//! `tests/node_compile.rs`). A search, like a round of scored clauses,
//! proves with one [`crate::coverage::ProofScratch`] — two provers, a
//! binding store and a call table, in buffers the memo keeps and lends to
//! each search — and the memo's bitsets, and binds each example's
//! arguments by the arena ids the memo keeps for its example list; and the
//! frontier builds each node into one reused shape. So a node, proved or
//! served, allocates nothing of its own, and hashes no term the KB already
//! holds (`crates/core/tests/node_allocations.rs` counts a learn).
//!
//! *Memory* is bounded by construction: keys, masks and step totals are
//! records in one flat arena behind an open-addressing index, every byte
//! allocated is counted against a fixed budget, and an insert that does not
//! fit first evicts entries the *current* search has not touched — least
//! recently used first — and else is dropped ([`crate::memo`] has the
//! layout). The budget is 128 KiB per memo, a constant and not a setting:
//! results do not depend on it. It was sized on executed proof steps of the
//! sequential `carcinogenesis(0.3, 2005)` run (37.9 M charged; 15.6 M
//! executed with the per-search memo this one replaces): 15.6 M at 32 KiB,
//! 10.8 M at 64, 7.5 M at 128, 6.9 M at 256 and unbounded — 128 KiB is
//! the knee, an entry there being about 120 bytes, most of it key. What
//! caps it is resident memory of a *mesh*, where every rank has a memo,
//! against the benchmark's 10 % bound on peak RSS: the issue's prototype,
//! which trimmed only between searches, read +13 % at 256 KiB on
//! `pyr-svc-tcp` — whose peak is its set-up learn on two ranks — and +5
//! to +9 % at 128 KiB; with the hard in-search budget and the flat layout
//! 128 KiB reads +0.3 % (`carc-seq`), +1.5 % (`carc-pipe-p2`), +2.7 %
//! (`mesh-pipe-p2-tcp`) and +1.4 % (`pyr-svc-tcp`) over ten paired runs.
//! On `mesh(1.0)` and `pyrimidines(1.0)` a mask is 23 to 45 words, and an
//! entry that carried `T` and `C` dense was 0.4 to 0.8 KB; but most deep
//! nodes are tried on a handful of examples and cover fewer, so an entry
//! holds `C` and `T∖C`, each as a run of indices when that is shorter
//! ([`crate::memo`], "Layout") — on a rank of a two-rank mesh run a record
//! averages 18 words where it took 63, and three times as many fit. What
//! the proofs really run at the one budget, per `tests/memo_budget.rs`
//! (dense records before the arrow): the two ranks of the `mesh(1.0)`
//! learn 3 199 539 → 2 215 099 of 9 318 456 charged steps (1 976 710 with
//! no budget at all); sequential `mesh(1.0)` 1 986 431 → 1 870 606 of
//! 2 705 644; sequential `pyrimidines(1.0)` 35 814 235 → 29 188 772 of
//! 43 163 555; `carcinogenesis(0.3)`, whose masks are one word, 7 485 847
//! before and after. A sequential run's clauses still do not fit any such
//! budget (3.5 MB and 1.5 MB unbounded): there the memo serves what it can
//! — mostly within a search — and what a record is made of now is a third
//! key, a third sets and a tenth step totals.
//!
//! Skipping the *expansion* of variant subtrees is a different algorithm:
//! it changes what the `max_nodes` budget buys, hence the theories.
//!
//! # Query packs
//!
//! A node's successors are the node plus one body literal each, evaluated
//! on the examples the node covered: proved alone, each binds the head and
//! proves the node's whole body again on every one of them. On the
//! sequential `mesh(1.0)` learn a proved example ran 2.69 goals on average,
//! 1.69 of them its parent's body. So the successors the memo will prove
//! are proved together, as one *query pack* (Blockeel et al., JAIR 2002;
//! [`crate::coverage`], "Query packs", has the proof and its charge rule):
//! per example one head bind and one proof of the parent's body, and at each
//! of the body's solutions the extra literal of every member not yet
//! decided.
//!
//! When the frontier starts a new front node, the search gathers its
//! admitted successors, as many as the node budget leaves and at most 64,
//! whose key has no record in the memo (looked at without touching the
//! record, so that eviction is what it would be without packs), whose key
//! is not a variant's already gathered (the variant finds the first one's
//! record), and whose compiled rule is the front node's plus one last
//! literal. The pack is proved on the positives when its first member asks
//! for a proof on its whole live mask — for that member and every later one
//! — and on the negatives when the first member asks for negatives, for the
//! members from it on whose covered positives reach `min_pos`. The memo
//! sees the very calls, masks and step totals it sees without packs: a
//! member's question on the whole mask is answered from the pack, and any
//! other proof — a difference proof, a node that is not a member — is the
//! node's alone. On the sequential `mesh(1.0)` learn a pack has about 3.5
//! members ([`CoverageMemo::stats`] counts them).
//!
//! Every pack of a search goes through the search's one proof scratch, and
//! so through one *call table* of its members' extra literals
//! ([`crate::coverage`], "Query packs", has its key and why it is exact):
//! a call made before in the search, on the same argument values, is
//! charged what it took then instead of being run. On the sequential
//! `carcinogenesis(0.3)` learn the table answers 241 505 of the packs'
//! 377 672 extra-literal calls and charges 2 867 914 steps without running
//! them; on `mesh(1.0)`, whose calls run under a step on average, it
//! records and answers none. The charge is the run's to the step, so no
//! count moves: only the steps the proofs run (`tabled` and `tabled_steps`
//! of [`CoverageMemo::stats`] say how many were not).

use crate::bitset::Bitset;
use crate::bottom::BottomClause;
use crate::coverage::{CompiledBottom, PackAnswers, PreparedRule};
use crate::examples::Examples;
use crate::memo::{ClauseKeys, CoverageMemo, KeySet, Proving, Ran, Side};
use crate::refine::{next_appendable, LatticeSlice, RuleShape};
use crate::settings::Settings;
use p2mdie_logic::clause::Clause;
use p2mdie_logic::fxhash::FxHashSet;
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::term::VarId;
use std::collections::BinaryHeap;
use std::convert::Infallible;

/// A rule with its (local) coverage and score.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScoredRule {
    /// The rule as bottom-clause indices (wire-friendly).
    pub shape: RuleShape,
    /// Covered positive examples (on the evaluating subset).
    pub pos: u32,
    /// Covered negative examples (on the evaluating subset).
    pub neg: u32,
    /// Score under the configured [`crate::settings::ScoreFn`].
    pub score: i64,
}
p2mdie_logic::wire_struct!(ScoredRule {
    shape,
    pos,
    neg,
    score
});

impl ScoredRule {
    /// Deterministic ordering: higher score first, then shorter body, then
    /// lexicographically smaller shape.
    pub fn rank_key(&self) -> (i64, i64, &[u32]) {
        rank_key(self.score, &self.shape)
    }
}

/// [`ScoredRule::rank_key`] of a rule not built yet.
fn rank_key(score: i64, shape: &RuleShape) -> (i64, i64, &[u32]) {
    (-score, shape.body_len() as i64, &shape.lits)
}

/// A good rule in the search's bounded heap, the worst kept on top: ordered
/// by [`ScoredRule::rank_key`], which is total on a search's rules (no
/// shape is evaluated twice).
#[derive(PartialEq, Eq)]
struct Kept(ScoredRule);

impl Ord for Kept {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.rank_key().cmp(&other.0.rank_key())
    }
}

impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The outcome of one search.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// The best good rules found, as many as the caller keeps, best first
    /// (deterministic order).
    pub good: Vec<ScoredRule>,
    /// Every seed rule with its local score, good or not. The pipelined
    /// `learn_rule'` (paper Fig. 7) initializes `Good = S`: rules received
    /// from the previous stage stay in the stream even when the local
    /// subset dislikes them — the master's *global* evaluation decides.
    pub seed_scored: Vec<ScoredRule>,
    /// Nodes (candidate rules) evaluated.
    pub nodes: usize,
    /// Inference steps spent evaluating candidates (virtual-time fuel).
    pub steps: u64,
    /// Nodes (of `nodes`) that ran no proof at all: the coverage memo held
    /// their result for exactly their live masks. Counted and step-charged
    /// like any other. A node served by a difference proof is not one of
    /// these; the memo's statistics tell the three kinds apart.
    pub reused: usize,
}

impl SearchOutcome {
    /// The best good rule, if any.
    pub fn best(&self) -> Option<&ScoredRule> {
        self.good.first()
    }
}

/// The breadth-first queue of one search, built lazily. Its roots come
/// first. Then only evaluated nodes that may be refined wait in it, in the
/// order they were evaluated, each as its shape and its covered positives
/// and negatives — the live masks of its successors, when the evaluator
/// keeps masks — in one flat buffer of words. The node at the front is
/// unpacked with a cursor into ⊥e's literals, and its successors are built
/// one at a time as the search reaches them ([`Frontier::next`]): the order
/// is that of a queue of every successor built at expansion, and a
/// successor the node budget never reaches is never built.
struct Frontier<'s> {
    bottom: &'s BottomClause,
    max_body: usize,
    /// The roots not yet yielded: each seed once, in order, or the most
    /// general rule.
    roots: std::vec::IntoIter<&'s [u32]>,
    /// What a successor must pass to be a node: it repeats no seed (see "A
    /// lazy frontier") and lies in the slice.
    seeds: FxHashSet<&'s [u32]>,
    slice: Option<&'s LatticeSlice>,
    /// Per waiting node: its body length, its body, the words of its
    /// covered positives and of its covered negatives. Read from `front`;
    /// the words before it are dropped once they are half the buffer, so a
    /// word moves at most once more on average.
    queue: Vec<u64>,
    front: usize,
    /// The front node: its shape, its bound variables, the literal its
    /// last successor appended (`None` once it has no successor left) and
    /// the covered sets its successors are evaluated on — before the first
    /// front node, what the roots are evaluated on: the live positives and
    /// every negative. Monotonicity makes a parent's covered sets exact
    /// live masks for its successors: a child's coverage is a subset of its
    /// parent's.
    shape: RuleShape,
    bound: Vec<VarId>,
    cursor: Option<usize>,
    live: [Bitset; 2],
    /// How many nodes have been the front one: names the front node.
    fronts: usize,
}

impl<'s> Frontier<'s> {
    /// The frontier of `search`, queueing each node's covered sets with it
    /// when the evaluator keeps `masks`.
    fn new(search: &Search<'s>, masks: bool) -> Self {
        let mut seeds = FxHashSet::default();
        let mut roots: Vec<&[u32]> = search
            .seeds
            .iter()
            .map(|s| &s.lits[..])
            .filter(|lits| seeds.insert(*lits))
            .collect();
        if roots.is_empty() {
            roots.push(&[]);
        }
        let ex = search.examples;
        let live = match masks {
            true => [
                search
                    .live_pos
                    .map_or_else(|| ex.full_pos_live(), Bitset::clone),
                Bitset::full(ex.num_neg()),
            ],
            false => Default::default(),
        };
        Frontier {
            bottom: search.bottom,
            max_body: search.settings.max_body,
            roots: roots.into_iter(),
            seeds,
            slice: search.slice,
            queue: Vec::new(),
            front: 0,
            shape: RuleShape::empty(),
            bound: Vec::new(),
            cursor: None,
            live,
            fronts: 0,
        }
    }

    /// Builds into `child` the front node's first successor that appends a
    /// literal at `from` or later and is a node — it repeats no seed and
    /// lies in the slice — and returns the literal it appends.
    fn successor(&self, mut from: usize, child: &mut RuleShape) -> Option<usize> {
        loop {
            let len = self.shape.body_len();
            let j = next_appendable(self.bottom, &self.bound, len, self.max_body, from)?;
            child.lits.clear();
            child.lits.extend_from_slice(&self.shape.lits);
            child.lits.push(j as u32);
            if (self.seeds.is_empty() || !self.seeds.contains(&child.lits[..]))
                && self.slice.is_none_or(|slice| slice.admits(child))
            {
                return Some(j);
            }
            from = j + 1;
        }
    }

    /// Queues an evaluated node with the sets it covers.
    fn push(&mut self, shape: &RuleShape, covered: [&Bitset; 2]) {
        self.queue.push(shape.lits.len() as u64);
        self.queue.extend(shape.lits.iter().map(|&i| u64::from(i)));
        for side in covered {
            self.queue.extend_from_slice(side.words());
        }
    }

    /// Builds into `child` the next node: the next root, else the next
    /// admitted successor of the front node, unpacking the next waiting
    /// node whenever the front one has none left. Says whether it is a
    /// root; `None` when no node is left.
    fn next(&mut self, child: &mut RuleShape) -> Option<bool> {
        if let Some(root) = self.roots.next() {
            child.lits.clear();
            child.lits.extend_from_slice(root);
            return Some(true);
        }
        loop {
            let from = match self.cursor {
                Some(j) => j + 1,
                None if self.front == self.queue.len() => return None,
                None => self.unpack(),
            };
            self.cursor = self.successor(from, child);
            if self.cursor.is_some() {
                return Some(false);
            }
        }
    }

    /// Makes the first waiting node the front one; returns where its
    /// successors start.
    fn unpack(&mut self) -> usize {
        if 2 * self.front > self.queue.len() {
            self.queue.drain(..self.front);
            self.front = 0;
        }
        let words = &self.queue[self.front..];
        let len = words[0] as usize;
        self.shape.lits.clear();
        self.shape
            .lits
            .extend(words[1..=len].iter().map(|&i| i as u32));
        let mut at = 1 + len;
        for live in &mut self.live {
            let n = live.len().div_ceil(64);
            live.assign_words(live.len(), &words[at..at + n]);
            at += n;
        }
        self.front += at;
        self.fronts += 1;
        self.shape.bound_vars_into(self.bottom, &mut self.bound);
        self.shape.append_from()
    }
}

/// The most members a query pack takes: one bit each in a `u64`.
const PACK_MEMBERS: usize = 64;

/// The query pack of the front node's successors (see "Query packs"), with
/// the buffers it is proved in: lent by the memo to each search, so that
/// its rules and sets are made once per covering loop.
#[derive(Default)]
pub(crate) struct Pack {
    /// The front node compiled (`rules[0]`), each member compiled
    /// (`rules[1 + m]`), then spare rules for later packs.
    rules: Vec<PreparedRule>,
    /// Per member the literal of ⊥e it appends, ascending.
    appends: Vec<usize>,
    /// The front node the pack was gathered for ([`Frontier::fronts`]), and
    /// the literal the last successor it looked at appends.
    front: Option<usize>,
    reach: usize,
    /// The member the search meets next.
    next: usize,
    /// The keys of the successors gathered that had no record.
    keys: KeySet,
    /// Per side the members proved, none before the first member asks, and
    /// their answers.
    proved: [u64; 2],
    answers: [PackAnswers; 2],
    /// The successor being looked at.
    shape: RuleShape,
    /// Nodes whose positives a pack answered, and packs proved on the
    /// positives, since the memo last took the counts.
    packed: u64,
    packs: u64,
}

impl Pack {
    /// The counts of `packed` and `packs` so far, zeroed.
    pub(crate) fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.packed),
            std::mem::take(&mut self.packs),
        )
    }

    /// The member `child` — the frontier's last successor — is of its
    /// parent's pack. When `child` is the first successor of a new front
    /// node, or one past what the pack looked at, the pack is gathered
    /// first: from `child` on, the successors the frontier admits, as many
    /// as the node budget leaves, whose key the memo holds no record of and
    /// is not a variant's already gathered, and whose compiled rule extends
    /// the front node's ([`PreparedRule::extends`]) — at most
    /// [`PACK_MEMBERS`]. Looking stamps no record, so that eviction is what
    /// it would be without packs.
    fn member(
        &mut self,
        child: &RuleShape,
        frontier: &Frontier<'_>,
        nodes_left: usize,
        keys: &mut ClauseKeys,
        memo: &CoverageMemo,
        compiler: &mut CompiledBottom,
    ) -> Option<usize> {
        let last = *child.lits.last().expect("a successor appends a literal") as usize;
        if self.front != Some(frontier.fronts) || last > self.reach {
            self.front = Some(frontier.fronts);
            self.appends.clear();
            self.keys.clear();
            self.next = 0;
            self.proved = [0; 2];
            let (mut from, mut taken) = (last, 0);
            while taken < nodes_left && self.appends.len() < PACK_MEMBERS {
                let Some(j) = frontier.successor(from, &mut self.shape) else {
                    break;
                };
                (from, taken, self.reach) = (j + 1, taken + 1, j);
                match keys.key_of(&self.shape) {
                    Some(key) if memo.holds(key) || !self.keys.insert(key) => continue,
                    _ => {}
                }
                let m = self.appends.len();
                while self.rules.len() < m + 2 {
                    self.rules.push(compiler.rule());
                }
                if m == 0 {
                    compiler.compile(&frontier.shape, &mut self.rules[0]);
                }
                compiler.compile(&self.shape, &mut self.rules[1 + m]);
                if self.rules[1 + m].extends(&self.rules[0]) {
                    self.appends.push(j);
                }
            }
        }
        let m = self.next;
        (self.appends.get(m) == Some(&last)).then(|| {
            self.next += 1;
            m
        })
    }

    /// Member `m`'s answer on `side` when asked on the whole `live` mask of
    /// that side: covered examples into `out`, and the steps. The side's
    /// pack is proved at the first member's question, for that member and
    /// every one after it — on the negatives only those whose positives
    /// were answered here and number at least `min_pos`. `None` when the
    /// pack has no answer for `m`: the member is proved alone.
    fn answer(
        &mut self,
        m: usize,
        (side, live): (Side, &Bitset),
        min_pos: u32,
        proving: &mut Proving<'_>,
        out: &mut Bitset,
    ) -> Option<u64> {
        let s = side as usize;
        if self.proved[s] == 0 {
            let from_m = (u64::MAX >> (PACK_MEMBERS - self.appends.len())) & (u64::MAX << m);
            let mut which = from_m;
            if side == Side::Neg {
                which &= self.proved[0];
                for c in 0..self.appends.len() {
                    let reached = |c| self.answers[0].covered(c).count() >= min_pos as usize;
                    if which & (1 << c) != 0 && !reached(c) {
                        which &= !(1 << c);
                    }
                }
            }
            if which & (1 << m) == 0 {
                return None;
            }
            let (parent, members) = self.rules.split_first().expect("a pack has a parent");
            let members = &members[..self.appends.len()];
            proving.prove_pack(parent, members, which, (side, live), &mut self.answers[s]);
            self.proved[s] = which;
            self.packs += u64::from(side == Side::Pos);
        }
        if self.proved[s] & (1 << m) == 0 {
            return None;
        }
        self.packed += u64::from(side == Side::Pos);
        out.copy_from(self.answers[s].covered(m));
        Some(self.answers[s].steps(m))
    }
}

/// Runs one breadth-first search over `bottom`'s refinement lattice with a
/// memo of its own: [`Search`] with these fields and the rest at
/// [`Search::new`]'s.
///
/// * `live_pos` — positive examples still uncovered (dead ones are skipped).
/// * `seeds` — starting shapes; when empty, starts from the most-general
///   rule. Seeds are also evaluated (they may already be good here even if
///   they were found on another worker's subset).
pub fn search_rules(
    kb: &KnowledgeBase,
    settings: &Settings,
    bottom: &BottomClause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    seeds: &[RuleShape],
) -> SearchOutcome {
    Search {
        live_pos,
        seeds,
        ..Search::new(kb, settings, bottom, examples)
    }
    .run(&mut CoverageMemo::new())
}

/// One breadth-first search (see "One loop, two evaluators"): what it
/// searches, on which examples, from which roots, and how many of its good
/// rules it keeps. Run it with the memo evaluator ([`Search::run`]) or the
/// batched one ([`Search::run_batched`]).
pub struct Search<'s> {
    /// The background knowledge nodes are proved against.
    pub kb: &'s KnowledgeBase,
    /// Node budget, body length, `min_pos`, noise, score and proof limits.
    pub settings: &'s Settings,
    /// ⊥e, whose literals the nodes select.
    pub bottom: &'s BottomClause,
    /// The (local) examples.
    pub examples: &'s Examples,
    /// Positive examples still uncovered, which a root is evaluated on with
    /// every negative; `None` is every positive. A batched evaluator's
    /// callback scores on what it holds and reads neither this nor `kb`.
    pub live_pos: Option<&'s Bitset>,
    /// Starting shapes (Figure 7's `S`), each evaluated once, in order,
    /// before any successor and scored whatever it covers
    /// ([`SearchOutcome::seed_scored`]); when empty, the most general rule.
    pub seeds: &'s [RuleShape],
    /// A slice of the refinement lattice to stay inside (hypothesis-parallel
    /// search): successors outside it are never built. Slices are
    /// subtree-closed, so this loses nothing the slice owns.
    pub slice: Option<&'s LatticeSlice>,
    /// How many of the best good rules the caller keeps: only those are
    /// copied into [`SearchOutcome::good`], as they are found.
    pub keep: usize,
}

impl<'s> Search<'s> {
    /// The plain search: every positive live, from the most general rule,
    /// over the whole lattice, keeping `settings.good_cap` good rules.
    pub fn new(
        kb: &'s KnowledgeBase,
        settings: &'s Settings,
        bottom: &'s BottomClause,
        examples: &'s Examples,
    ) -> Self {
        Search {
            kb,
            settings,
            bottom,
            examples,
            live_pos: None,
            seeds: &[],
            slice: None,
            keep: settings.good_cap,
        }
    }

    /// Runs the search with the memo evaluator, through `memo`, the coverage
    /// memo of the covering loop the search is part of (see the module docs
    /// for what a memo may be shared across).
    pub fn run(&self, memo: &mut CoverageMemo) -> SearchOutcome {
        let mut eval = Memoised::new(self, memo);
        let Ok(out) = self.drive(&mut eval, 1);
        eval.memo.keep_pack(eval.pack);
        eval.memo.keep_proving(eval.proving);
        out
    }

    /// Runs the search with the batched evaluator: rounds of at most `batch`
    /// nodes (`usize::MAX`: one breadth-first level each), whose clauses
    /// `score` is handed and answers with their `(pos, neg)` counts, in
    /// order, or with an error that ends the search. Nothing is proved
    /// here, so the outcome's `steps` and `reused` are zero.
    pub fn run_batched<E>(
        &self,
        batch: usize,
        score: impl FnMut(Vec<Clause>) -> Result<Vec<(u32, u32)>, E>,
    ) -> Result<SearchOutcome, E> {
        let mut eval = Batched {
            score,
            counts: Vec::new(),
            none: Bitset::default(),
        };
        self.drive(&mut eval, batch)
    }

    /// The one breadth-first loop: rounds of at most `batch` of the next
    /// nodes the frontier yields, gathered without queueing any, then
    /// scored by `eval` in order; a good node joins the kept rules, and one
    /// that reaches `min_pos` waits in the frontier for its successors.
    fn drive<V: Evaluator>(&self, eval: &mut V, batch: usize) -> Result<SearchOutcome, V::Error> {
        let settings = self.settings;
        let mut out = SearchOutcome::default();
        let mut good = BinaryHeap::new();
        let mut frontier = Frontier::new(self, V::MASKS);
        // A round's nodes, its roots first, in shapes kept from round to
        // round.
        let mut shapes: Vec<RuleShape> = Vec::new();
        loop {
            let room = batch.min(settings.max_nodes - out.nodes);
            let (mut len, mut roots) = (0, 0);
            while len < room {
                if shapes.len() == len {
                    shapes.push(RuleShape::empty());
                }
                let Some(root) = frontier.next(&mut shapes[len]) else {
                    break;
                };
                roots += usize::from(root);
                len += 1;
            }
            if len == 0 {
                break;
            }
            eval.round(self, &shapes[..len])?;
            for (index, shape) in shapes[..len].iter().enumerate() {
                let root = index < roots;
                let seed = root && !self.seeds.is_empty();
                let node = Node {
                    index,
                    shape,
                    root,
                    seed,
                };
                let scored = eval.score(node, &frontier, &mut out);
                out.nodes += 1;
                let Some((pos, neg, covered)) = scored else {
                    // Below `min_pos` and not a seed: nothing to report or
                    // expand.
                    continue;
                };
                let score = settings.score.score(pos, neg, shape.body_len());
                if seed {
                    let shape = shape.clone();
                    let seed = ScoredRule {
                        shape,
                        pos,
                        neg,
                        score,
                    };
                    out.seed_scored.push(seed);
                }
                if settings.is_good(pos, neg) {
                    keep_good(&mut good, self.keep, shape, (pos, neg, score));
                }
                // Specializing cannot regain positive cover: prune hopeless
                // subtrees.
                if pos >= settings.min_pos {
                    frontier.push(shape, covered);
                }
            }
        }
        out.good = good.into_sorted_vec().into_iter().map(|k| k.0).collect();
        Ok(out)
    }
}

/// A node of a round, as its evaluator is asked about it.
struct Node<'n> {
    /// Its place in the round.
    index: usize,
    shape: &'n RuleShape,
    /// Whether it is a root (a seed or the most general rule), and no
    /// successor of the front node.
    root: bool,
    /// A seed is scored on both sides whatever it covers.
    seed: bool,
}

/// Who evaluates a search's nodes (see "One loop, two evaluators").
trait Evaluator {
    type Error;
    /// Whether a node queues its covered sets, as its successors' masks.
    const MASKS: bool;
    /// Takes a round's nodes before any is scored.
    fn round(&mut self, _: &Search<'_>, _: &[RuleShape]) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Scores `node`, the search's node number `out.nodes`, charging its
    /// steps to `out`: its covered positives and negatives, counted and as
    /// sets — its successors' live masks, or empty without masks — or
    /// `None` for a node below `min_pos` that is no seed, whose negatives
    /// cannot matter.
    fn score(
        &mut self,
        node: Node<'_>,
        frontier: &Frontier<'_>,
        out: &mut SearchOutcome,
    ) -> Option<(u32, u32, [&Bitset; 2])>;
}

/// The memo evaluator: one node a round, proved on its parent's covered
/// sets through the covering loop's memo, in query packs and the search's
/// call table, its negatives only when they can matter (the module docs'
/// sections from "Monotone coverage pruning" on).
struct Memoised<'s, 'm> {
    settings: &'s Settings,
    memo: &'m mut CoverageMemo,
    keys: ClauseKeys,
    pack: Pack,
    /// ⊥e compiled once for every node, the buffer a node compiles into
    /// and the proof scratch.
    compiler: CompiledBottom<'s>,
    rule: PreparedRule,
    proving: Proving<'s>,
}

impl<'s, 'm> Memoised<'s, 'm> {
    /// Borrows `memo` and the buffers it lends for one search.
    fn new(search: &Search<'s>, memo: &'m mut CoverageMemo) -> Self {
        let (kb, examples) = (search.kb, search.examples);
        memo.begin_search(examples.num_pos(), examples.num_neg());
        let mut pack = memo.take_pack();
        pack.front = None;
        let keys = ClauseKeys::new(search.bottom, memo);
        let compiler = CompiledBottom::new(kb, search.bottom);
        let rule = compiler.rule();
        let proving = Proving::new(kb, search.settings, examples, memo);
        Memoised {
            settings: search.settings,
            memo,
            keys,
            pack,
            compiler,
            rule,
            proving,
        }
    }
}

impl Evaluator for Memoised<'_, '_> {
    type Error = Infallible;
    const MASKS: bool = true;

    fn score(
        &mut self,
        node: Node<'_>,
        frontier: &Frontier<'_>,
        out: &mut SearchOutcome,
    ) -> Option<(u32, u32, [&Bitset; 2])> {
        let (shape, min_pos) = (node.shape, self.settings.min_pos);
        let nodes_left = self.settings.max_nodes - out.nodes;
        let (pack, keys, memo) = (&mut self.pack, &mut self.keys, &*self.memo);
        let member = match node.root {
            true => None,
            false => pack.member(shape, frontier, nodes_left, keys, memo, &mut self.compiler),
        };
        // Lazy negative side: a non-seed node below `min_pos` can never be
        // good, reports nothing, and is not expanded — its negative
        // coverage is unobservable, so don't pay for it.
        let needs_neg = |pos: u32| pos >= min_pos || node.seed;
        let live = [&frontier.live[0], &frontier.live[1]];
        // A member's question on a whole live mask — the memo passes the
        // mask it was handed — is answered by its pack. Any other proof is
        // the node's alone, compiled when the memo first asks for one, once
        // for both sides and every example.
        let mut compiled = false;
        let prove = |side: Side, mask: &Bitset, out: &mut Bitset| {
            if let Some(m) = member.filter(|_| std::ptr::eq(mask, live[side as usize])) {
                let proving = &mut self.proving;
                if let Some(steps) = self.pack.answer(m, (side, mask), min_pos, proving, out) {
                    return steps;
                }
            }
            if !std::mem::replace(&mut compiled, true) {
                self.compiler.compile(shape, &mut self.rule);
            }
            self.proving.prove(&self.rule, side, mask, out)
        };
        let found = self
            .memo
            .evaluate(self.keys.key_of(shape), live, needs_neg, prove);
        out.reused += usize::from(found.ran == Ran::Nothing);
        out.steps += found.pos_steps;
        let (neg, neg_steps) = found.neg?;
        out.steps += neg_steps;
        Some((
            found.pos.count() as u32,
            neg.count() as u32,
            [found.pos, neg],
        ))
    }
}

/// The batched evaluator: a round's clauses handed to `score` at once,
/// which answers with their counts; no masks, no proof here.
struct Batched<F> {
    score: F,
    /// The round's counts, in order.
    counts: Vec<(u32, u32)>,
    /// The covered sets a node queues: empty.
    none: Bitset,
}

impl<F, E> Evaluator for Batched<F>
where
    F: FnMut(Vec<Clause>) -> Result<Vec<(u32, u32)>, E>,
{
    type Error = E;
    const MASKS: bool = false;

    fn round(&mut self, search: &Search<'_>, shapes: &[RuleShape]) -> Result<(), E> {
        let clauses = shapes.iter().map(|s| s.to_clause(search.bottom)).collect();
        self.counts = (self.score)(clauses)?;
        Ok(())
    }

    fn score(
        &mut self,
        node: Node<'_>,
        _: &Frontier<'_>,
        _: &mut SearchOutcome,
    ) -> Option<(u32, u32, [&Bitset; 2])> {
        let (pos, neg) = self.counts[node.index];
        Some((pos, neg, [&self.none; 2]))
    }
}

/// Keeps a good rule among the `keep` best of `good` so far: copied only
/// when it is kept, into the shape of the rule it displaces. The order is
/// total, so the rules kept are the first `keep` of every good rule ranked.
fn keep_good(
    good: &mut BinaryHeap<Kept>,
    keep: usize,
    shape: &RuleShape,
    (pos, neg, score): (u32, u32, i64),
) {
    if good.len() < keep {
        let shape = shape.clone();
        good.push(Kept(ScoredRule {
            shape,
            pos,
            neg,
            score,
        }));
    } else if let Some(mut worst) = good.peek_mut() {
        if rank_key(score, shape) < worst.0.rank_key() {
            let rule = &mut worst.0;
            rule.shape.lits.clone_from(&shape.lits);
            (rule.pos, rule.neg, rule.score) = (pos, neg, score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom::saturate;
    use crate::modes::ModeSet;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// Numbers 1..20; target div6; BK: even/1, div3/1.
    fn world() -> (SymbolTable, KnowledgeBase, ModeSet, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=20i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(t.intern("even"), vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(t.intern("div3"), vec![Term::Int(i)]));
            }
        }
        let tgt = t.intern("div6");
        let pos: Vec<Literal> = [6i64, 12, 18]
            .iter()
            .map(|&i| Literal::new(tgt, vec![Term::Int(i)]))
            .collect();
        let neg: Vec<Literal> = [2i64, 3, 4, 9, 10, 15]
            .iter()
            .map(|&i| Literal::new(tgt, vec![Term::Int(i)]))
            .collect();
        let modes =
            ModeSet::parse(&t, "div6(+num)", &[(1, "even(+num)"), (1, "div3(+num)")]).unwrap();
        (t, kb, modes, Examples::new(pos, neg))
    }

    use p2mdie_logic::kb::KnowledgeBase;

    #[test]
    fn finds_the_conjunction_rule() {
        let (t, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let best = out.best().expect("must find a rule");
        assert_eq!(best.pos, 3);
        assert_eq!(best.neg, 0);
        let c = best.shape.to_clause(&bottom);
        assert_eq!(
            c.body.len(),
            2,
            "needs both even and div3: {:?}",
            c.display(&t).to_string()
        );
        assert!(out.nodes >= 3);
    }

    #[test]
    fn node_budget_caps_search() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            max_nodes: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        assert_eq!(out.nodes, 1);
        assert!(out.good.is_empty(), "root rule covers all negatives");
    }

    #[test]
    fn noise_admits_impure_rules() {
        let (_, kb, modes, ex) = world();
        // With noise 3, "div6(X) :- even(X)" (3 pos, 3 neg: 2/4/10) becomes
        // good, as does "div6(X) :- div3(X)" (3 neg: 3/9/15).
        let settings = Settings {
            noise: 3,
            min_pos: 2,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        assert!(out.good.len() >= 2);
    }

    #[test]
    fn seeded_search_extends_seed_rules() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        // Seed with {even} only; search must refine it to {even, div3}.
        let seed = RuleShape::from_indices(vec![0]);
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[seed]);
        let best = out.best().expect("refined rule");
        assert_eq!(best.neg, 0);
    }

    #[test]
    fn live_mask_changes_counts() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 1,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let mut live = Bitset::new(ex.num_pos());
        live.set(0);
        let out = search_rules(&kb, &settings, &bottom, &ex, Some(&live), &[]);
        let best = out.best().unwrap();
        assert_eq!(best.pos, 1);
    }

    #[test]
    fn deterministic_ordering() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            noise: 3,
            min_pos: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let a = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let b = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        assert_eq!(a.good, b.good);
    }

    #[test]
    fn seeds_are_scored_even_when_locally_bad() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            min_pos: 2,
            noise: 0,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        // The empty shape covers every negative: never "good", but as a
        // seed it must still come back scored (Fig. 7's Good = S).
        let out = search_rules(&kb, &settings, &bottom, &ex, None, &[RuleShape::empty()]);
        assert_eq!(out.seed_scored.len(), 1);
        assert_eq!(out.seed_scored[0].pos, 3);
        assert_eq!(out.seed_scored[0].neg, 6);
    }

    /// A search value's defaults change nothing: with no slice, or with the
    /// one-slice partition that admits the whole lattice, and a new memo it
    /// is the plain search.
    #[test]
    fn default_guide_is_a_strict_no_op() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            noise: 3,
            min_pos: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let plain = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let whole = LatticeSlice {
            rank: 0,
            of: 1,
            salt: 11,
        };
        for slice in [None, Some(&whole)] {
            let guided = Search {
                slice,
                ..Search::new(&kb, &settings, &bottom, &ex)
            }
            .run(&mut CoverageMemo::new());
            assert_eq!(plain.good, guided.good);
            assert_eq!(plain.seed_scored, guided.seed_scored);
            assert_eq!(plain.nodes, guided.nodes);
            assert_eq!(plain.steps, guided.steps);
        }
    }

    #[test]
    fn sliced_searches_union_to_the_full_search() {
        let (_, kb, modes, ex) = world();
        let settings = Settings {
            noise: 3,
            min_pos: 1,
            ..Settings::default()
        };
        let bottom = saturate(&kb, &modes, &settings, &ex.pos[0]).unwrap();
        let plain = search_rules(&kb, &settings, &bottom, &ex, None, &[]);
        let full: std::collections::HashSet<RuleShape> =
            plain.good.iter().map(|r| r.shape.clone()).collect();
        for of in [2u64, 3] {
            let mut union = std::collections::HashSet::new();
            for rank in 0..of {
                let out = Search {
                    slice: Some(&LatticeSlice { rank, of, salt: 11 }),
                    ..Search::new(&kb, &settings, &bottom, &ex)
                }
                .run(&mut CoverageMemo::new());
                for r in &out.good {
                    assert!(
                        union.insert(r.shape.clone()),
                        "slices must be disjoint: {:?} found twice",
                        r.shape
                    );
                }
            }
            assert_eq!(union, full, "slices must be collectively exhaustive");
        }
    }
}
