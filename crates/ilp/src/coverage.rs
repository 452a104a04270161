//! Coverage evaluation (`evalOnExamples` in the paper's Figure 2).
//!
//! A rule covers an example when the example unifies with the rule's head
//! and the body is provable from the background knowledge under the proof
//! bounds. The cost — inference steps, summed over examples — is the main
//! component of the virtual-time model: evaluating a rule on a subset of
//! `|E|/p` examples costs roughly `1/p` of evaluating it on all of `E`,
//! which is exactly the data-parallel effect the paper exploits.
//!
//! # The head test
//!
//! Every live example is charged one step for its head attempt, whatever
//! that attempt costs. The attempt starts with the head's ground arguments,
//! found once per [`PreparedRule`]: an example of another predicate or
//! arity, or one with a different ground term where the head has one, is
//! skipped with its step charged and nothing bound. A ground example that
//! passes, against a head of distinct variables and ground terms (the
//! usual head), binds each head variable straight to its
//! argument, keeping the argument's arena id — read from the ids found once
//! per example list ([`ExampleIds`]) when the caller has them, else looked
//! up: the body's goals then probe the variable by id. Any other head or
//! example is unified, as every example once was.
//!
//! # Query packs
//!
//! A search node's successors are its rule plus one body literal each, and
//! each is proved on the examples the node covered. Proved alone, every
//! successor binds the head and proves the node's whole body again on each
//! of those examples. [`ProofScratch::eval_pack`] proves them together
//! (Blockeel et al., JAIR 2002): per example it binds the head once and
//! enumerates the parent's body once, and at each solution of the body it
//! proves the one extra literal of every member not yet decided, with a
//! second prover (the first one's plan pool is borrowed while the body's
//! proof runs). Each member's `(covered, steps)` is what proving it alone
//! gives, because a proof of the extended body *is* a proof of the parent's
//! body that tries the extra literal at each of the body's solutions:
//!
//! * a member is charged its head step plus `min(max_steps + 1, P + E)`,
//!   with `P` the body's steps at the member's first covering solution (or
//!   at the end of the body's proof) and `E` the steps its extra literal
//!   took over all solutions up to then;
//! * at a solution where `P + E > max_steps` already holds, the member's
//!   proof alone would have aborted before reaching it, and it is decided
//!   as aborted there; otherwise its literal runs with a budget of
//!   `max_steps − (P + E)`, so that it aborts where the proof alone would.
//!
//! Every member's variable ids are reserved before the body runs: the body's
//! rule expansions are renamed apart above all of them, and so never bind a
//! variable a member's literal introduces. A rule is a member only when its
//! compiled form is the parent's, literal for literal, plus one last literal
//! ([`PreparedRule::extends`]); `tests/query_pack.rs` holds every member to
//! its proof alone, aborts before, between and inside extensions included.
//!
//! *The call table.* Most extra-literal calls repeat one made before in the
//! search: on `carcinogenesis(0.3)` 341 824 of 377 672 call the same
//! literal on the same argument values again. A scratch therefore keeps
//! the calls of one search in a table (`CallTable`), keyed by the
//! literal's predicate and, per argument, the arena id of a constant or of
//! a bound variable's value, or — for a variable still unbound — the
//! position of that variable's first occurrence among the arguments, so
//! that `q(X, X)` and `q(X, Y)` are two calls. A call with a compound
//! argument, or a ground value the arena does not hold, is not tabled.
//! Every run of three steps or more that did not abort is recorded as
//! `(found, steps)`; met again with a budget of `left`, the call is the
//! recorded outcome charged `steps` when `steps ≤ left`, else an abort
//! charged `left + 1`. That is what running it gives: the literal starts at
//! depth 0 from the body's solution, and its rules are renamed apart above
//! every variable in use (`Reached::fresh`), so its proof depends only on
//! its call, the KB and the proof limits, which are fixed for a search; and
//! a run under a smaller budget walks the same path and stops where the
//! budget does. One exception: a fact's own variables are not renamed apart
//! (the prover's contract), so a non-ground fact meets variables outside
//! the call, and a KB holding one keeps the table off.
//!
//! # Parallel evaluation
//!
//! Each example's covered-bit and step count depend only on that example,
//! so the example axis parallelizes embarrassingly: [`evaluate_rule_threads`]
//! splits the example range into contiguous chunks, proves each chunk on its
//! own OS thread, and merges chunk results in chunk order. Bits land at
//! fixed positions and the step sum is order-invariant, so the outcome is
//! bit-identical for every thread count — determinism (and the virtual-time
//! fuel accounting) is preserved exactly.

use crate::bitset::Bitset;
use crate::bottom::BottomClause;
use crate::examples::Examples;
use crate::refine::RuleShape;
use p2mdie_logic::arena::{TermArena, TermId};
use p2mdie_logic::clause::{Clause, CompiledGoalsRef, CompiledLiteral, LitKind, Literal};
use p2mdie_logic::kb::{KnowledgeBase, PlanScratch};
use p2mdie_logic::prover::{ProofLimits, ProofStats, Prover};
use p2mdie_logic::subst::Bindings;
use p2mdie_logic::term::{Term, VarId};
use std::sync::OnceLock;

/// Below this many live examples on a side, thread spawn overhead outweighs
/// the win and evaluation stays on the calling thread.
const PARALLEL_MIN_EXAMPLES: usize = 128;

/// The result of evaluating one rule on an example set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    /// Bit `i` set iff positive example `i` is covered (only live examples
    /// are ever evaluated; dead ones stay 0).
    pub pos: Bitset,
    /// Bit `i` set iff negative example `i` is covered.
    pub neg: Bitset,
    /// Total inference steps spent (virtual-time fuel).
    pub steps: u64,
}

impl Coverage {
    /// Number of covered positive examples.
    pub fn pos_count(&self) -> u32 {
        self.pos.count() as u32
    }

    /// Number of covered negative examples.
    pub fn neg_count(&self) -> u32 {
        self.neg.count() as u32
    }
}

/// Resolves a thread-count knob: `0` means "one thread per available core",
/// asked of the OS (cgroup and affinity reads, tens of microseconds) once
/// per process.
fn resolve_threads(threads: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if threads != 0 {
        return threads;
    }
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A rule compiled for repeated evaluation: variables renumbered densely
/// ([`Clause::dense`]), body dispatch resolved once (see
/// [`p2mdie_logic::clause::CompiledGoals`]), the arena ids of the body's
/// constants found once (see [`CompiledGoalsRef::ids`]), rename-apart span
/// and head shape precomputed. Prepare once per candidate rule; prove per
/// example. Each proof runs column-native end to end: body goals retrieve
/// `(PredId, row-index)` candidates and unify against the KB's arena-id
/// tuples, so coverage testing touches no row literals (the examples
/// themselves are the only literals in play).
///
/// A rule scored on its own is compiled by [`prepare_rule`]. A search node
/// is compiled from ⊥e ([`CompiledBottom::compile`]) into the one
/// `PreparedRule` its search keeps: the literals are rewritten in the
/// argument boxes the last node left, so a node allocates nothing. Both
/// ways give equal rules — literals, dispatch, variable numbering, spans
/// and ids (`tests/node_compile.rs`).
#[derive(Clone, Debug)]
pub struct PreparedRule {
    /// The rule head (examples unify against it).
    head: Literal,
    /// The compiled body is `body[..len]`; the literals past it are kept
    /// for the next rule compiled into this one to rewrite.
    body: Vec<CompiledLiteral>,
    len: usize,
    /// The arena id of every argument of the body, in order (see
    /// [`CompiledGoalsRef::ids`]).
    ids: Vec<TermId>,
    /// One past the largest variable id of the body.
    body_span: VarId,
    /// Variable span of the whole clause (head + body): its number of
    /// variables.
    span: usize,
    /// The head argument positions that hold a ground term.
    ground_args: Vec<usize>,
    /// True when every head argument is a ground term or a variable that
    /// occurs nowhere else in the head.
    simple_head: bool,
}

impl PreparedRule {
    /// The rule head.
    pub fn head(&self) -> &Literal {
        &self.head
    }

    /// The compiled body literals, in order.
    pub fn body(&self) -> &[CompiledLiteral] {
        &self.body[..self.len]
    }

    /// The arena id of every argument of the body, in order:
    /// [`TermId::NONE`] for a non-ground argument or one the arena lacks.
    pub fn ids(&self) -> &[TermId] {
        &self.ids
    }

    /// The body as the prover runs it.
    pub fn goals(&self) -> CompiledGoalsRef<'_> {
        CompiledGoalsRef {
            lits: self.body(),
            ids: &self.ids,
            var_span: self.body_span,
        }
    }

    /// Variable span of the whole clause: its number of variables.
    pub fn span(&self) -> usize {
        self.span
    }

    /// The head argument positions that hold a ground term.
    pub fn ground_args(&self) -> &[usize] {
        &self.ground_args
    }

    /// True when this rule is `parent` with one more body literal, the same
    /// in everything else: the head, and every literal of `parent`'s body
    /// with its dispatch, its variables' numbers and its arguments' ids.
    /// Such a rule can be proved in `parent`'s query pack
    /// ([`ProofScratch::eval_pack`]).
    pub fn extends(&self, parent: &PreparedRule) -> bool {
        self.len == parent.len + 1
            && self.head == parent.head
            && self.body()[..parent.len] == *parent.body()
            && self.ids.starts_with(&parent.ids)
    }

    /// The last body literal as a goal of its own, with its arguments' ids:
    /// what a member of a query pack proves at each solution of its
    /// parent's body.
    fn last_goal(&self) -> CompiledGoalsRef<'_> {
        let lits = &self.body()[self.len - 1..];
        CompiledGoalsRef {
            lits,
            ids: &self.ids[self.ids.len() - lits[0].lit.args.len()..],
            var_span: self.body_span,
        }
    }

    /// False when `ex` cannot unify with the head: another predicate or
    /// arity, or a different ground term at a ground head position.
    #[inline]
    fn head_may_match(&self, ex: &Literal) -> bool {
        ex.pred == self.head.pred
            && ex.args.len() == self.head.args.len()
            && self.ground_args.iter().all(|&p| {
                let arg = &ex.args[p];
                *arg == self.head.args[p] || !arg.is_ground()
            })
    }
}

/// The head's ground positions, and whether every other argument is a
/// variable no other argument repeats.
fn head_shape(head: &Literal) -> (Vec<usize>, bool) {
    let args = &head.args;
    let mut head_vars = Vec::new();
    let simple_head = args.iter().all(|a| match a {
        Term::Var(v) if head_vars.contains(v) => false,
        Term::Var(v) => {
            head_vars.push(*v);
            true
        }
        t => t.is_ground(),
    });
    let ground_args = (0..args.len()).filter(|&p| args[p].is_ground()).collect();
    (ground_args, simple_head)
}

/// Appends the arena id of each of `lit`'s arguments to `out`: the id of a
/// ground argument the arena holds, [`TermId::NONE`] for any other.
fn arg_ids(arena: &TermArena, lit: &Literal, out: &mut Vec<TermId>) {
    out.extend(lit.args.iter().map(|a| match a.is_ground() {
        true => arena.lookup(a).unwrap_or(TermId::NONE),
        false => TermId::NONE,
    }));
}

/// Compiles `rule` against `kb` for evaluation via
/// [`ProofScratch::evaluate_side`].
pub fn prepare_rule(kb: &KnowledgeBase, rule: &Clause) -> PreparedRule {
    let rule = rule.dense();
    let body = kb.compile_goals(&rule.body);
    let mut ids = Vec::new();
    for lit in &rule.body {
        arg_ids(kb.arena(), lit, &mut ids);
    }
    let (ground_args, simple_head) = head_shape(&rule.head);
    PreparedRule {
        head: rule.head.clone(),
        len: body.lits.len(),
        body: body.lits.into_vec(),
        ids,
        body_span: body.var_span,
        span: rule.var_span() as usize,
        ground_args,
        simple_head,
    }
}

/// A variable [`CompiledBottom::compile`] has not met in the node.
const UNMET: VarId = VarId::MAX;

/// ⊥e compiled once per search, so that each node's [`PreparedRule`] is
/// built without a `Clause`, a rename map or a dispatch lookup: per literal
/// its dispatch, the arena ids of its arguments and its variable
/// occurrences, and the head's shape, which no renaming changes.
pub struct CompiledBottom<'b> {
    bottom: &'b BottomClause,
    /// Per body literal of ⊥e its dispatch.
    kinds: Vec<LitKind>,
    /// The arguments' ids of every body literal, in order: literal `i`'s
    /// are `ids[id_at[i]..id_at[i + 1]]`.
    ids: Vec<TermId>,
    id_at: Vec<usize>,
    /// The variable occurrences of the head (literal 0) and of every body
    /// literal (`i + 1`), each in argument order: `vars[var_at[l]..var_at[l +
    /// 1]]`.
    vars: Vec<VarId>,
    var_at: Vec<usize>,
    ground_args: Vec<usize>,
    simple_head: bool,
    /// Scratch of [`CompiledBottom::compile`]: per variable of ⊥e its
    /// number in the node ([`UNMET`] between calls), and the node's
    /// variables in first-occurrence order.
    renamed: Vec<VarId>,
    order: Vec<VarId>,
}

impl<'b> CompiledBottom<'b> {
    /// Compiles `bottom`'s literals against `kb`.
    pub fn new(kb: &KnowledgeBase, bottom: &'b BottomClause) -> Self {
        let mut out = CompiledBottom {
            bottom,
            kinds: Vec::with_capacity(bottom.lits.len()),
            ids: Vec::new(),
            id_at: vec![0],
            vars: Vec::new(),
            var_at: vec![0],
            ground_args: Vec::new(),
            simple_head: false,
            renamed: Vec::new(),
            order: Vec::new(),
        };
        (out.ground_args, out.simple_head) = head_shape(&bottom.head);
        bottom.head.collect_vars(&mut out.vars);
        out.var_at.push(out.vars.len());
        for bl in &bottom.lits {
            out.kinds.push(kb.litkind(&bl.lit));
            arg_ids(kb.arena(), &bl.lit, &mut out.ids);
            out.id_at.push(out.ids.len());
            bl.lit.collect_vars(&mut out.vars);
            out.var_at.push(out.vars.len());
        }
        let span = out.vars.iter().max().map_or(0, |&v| v as usize + 1);
        out.renamed = vec![UNMET; span];
        out
    }

    /// An empty rule to compile nodes into.
    pub fn rule(&self) -> PreparedRule {
        PreparedRule {
            head: self.bottom.head.clone(),
            body: Vec::new(),
            len: 0,
            ids: Vec::new(),
            body_span: 0,
            span: 0,
            ground_args: self.ground_args.clone(),
            simple_head: self.simple_head,
        }
    }

    /// Compiles `shape` into `rule`, which the [`CompiledBottom::rule`] of
    /// this or any other bottom clause made: what [`prepare_rule`] makes of
    /// `shape.to_clause(⊥e)`, numbered as
    /// [`Clause::dense`] numbers it — kept when the clause's variables are
    /// exactly `0..n`, else renamed in first-occurrence order, head first.
    /// The numbering is not cosmetic: a fact's own variables are not
    /// renamed apart, so an irregular row meets the rule's variables by
    /// number.
    pub fn compile(&mut self, shape: &RuleShape, rule: &mut PreparedRule) {
        let occurrences = |l: usize| self.var_at[l]..self.var_at[l + 1];
        let literals = std::iter::once(0).chain(shape.lits.iter().map(|&i| i as usize + 1));
        self.order.clear();
        for l in literals {
            for &v in &self.vars[occurrences(l)] {
                if self.renamed[v as usize] == UNMET {
                    self.renamed[v as usize] = 0;
                    self.order.push(v);
                }
            }
        }
        let n = self.order.len();
        let dense = self.order.iter().all(|&v| (v as usize) < n);
        for (k, &v) in self.order.iter().enumerate() {
            self.renamed[v as usize] = if dense { v } else { k as VarId };
        }

        if rule.head.args.len() != self.bottom.head.args.len() {
            rule.head = self.bottom.head.clone();
        }
        rename_into(&self.bottom.head, &mut rule.head, &self.renamed);
        rule.ground_args.clone_from(&self.ground_args);
        rule.simple_head = self.simple_head;
        rule.len = 0;
        rule.ids.clear();
        let mut body_span = 0;
        for &i in &shape.lits {
            let i = i as usize;
            let lit = &self.bottom.lits[i].lit;
            let k = rule.len;
            // A kept literal of the same arity takes slot `k`; else one is
            // made, once, and stays.
            let spare = rule.body[k..]
                .iter()
                .position(|c| c.lit.args.len() == lit.args.len());
            if spare.is_none() {
                rule.body.push(CompiledLiteral {
                    lit: lit.clone(),
                    kind: self.kinds[i],
                });
            }
            let at = spare.map_or(rule.body.len() - 1, |j| k + j);
            rule.body.swap(k, at);
            let slot = &mut rule.body[k];
            slot.kind = self.kinds[i];
            rename_into(lit, &mut slot.lit, &self.renamed);
            rule.ids
                .extend_from_slice(&self.ids[self.id_at[i]..self.id_at[i + 1]]);
            rule.len += 1;
            for &v in &self.vars[occurrences(i + 1)] {
                body_span = body_span.max(self.renamed[v as usize] + 1);
            }
        }
        rule.body_span = body_span;
        rule.span = n;
        for &v in &self.order {
            self.renamed[v as usize] = UNMET;
        }
    }
}

/// Writes `src` with every variable renamed by `renamed` over `dst`, a
/// literal of the same arity, in the box `dst` holds.
fn rename_into(src: &Literal, dst: &mut Literal, renamed: &[VarId]) {
    debug_assert_eq!(src.args.len(), dst.args.len());
    dst.pred = src.pred;
    for (d, s) in dst.args.iter_mut().zip(src.args.iter()) {
        *d = match s {
            Term::Var(v) => Term::Var(renamed[*v as usize]),
            Term::App(..) => s.map_vars(&mut |v| Term::Var(renamed[v as usize])),
            constant => constant.clone(),
        };
    }
}

/// The arena ids of an example list's arguments, in example order: found
/// once per list and knowledge base, and handed to the head test, which
/// then binds a head variable by id instead of hashing the argument. The
/// ids are hints ([`TermArena::lookup_hinted`]): one that does not name
/// its argument in the arena at hand is looked past, so a list of ids
/// made against another knowledge base changes no binding.
#[derive(Debug, Default)]
pub struct ExampleIds {
    ids: Vec<TermId>,
    at: Vec<usize>,
}

impl ExampleIds {
    /// Looks up every argument of every example of `lits` in `arena`.
    pub fn new(arena: &TermArena, lits: &[Literal]) -> Self {
        let mut out = ExampleIds {
            ids: Vec::new(),
            at: vec![0],
        };
        for lit in lits {
            arg_ids(arena, lit, &mut out.ids);
            out.at.push(out.ids.len());
        }
        out
    }

    /// The ids of example `i`'s arguments; none past the list.
    pub fn of(&self, i: usize) -> &[TermId] {
        match (self.at.get(i), self.at.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.ids[lo..hi],
            _ => &[],
        }
    }
}

/// What one side of a query pack answers ([`ProofScratch::eval_pack`]):
/// per member the examples it covers and the steps it is charged, each what
/// [`ProofScratch::evaluate_side`] gives for the member alone. Kept from
/// pack to pack, so that its sets are made once.
#[derive(Debug, Default)]
pub struct PackAnswers {
    covered: Vec<Bitset>,
    steps: Vec<u64>,
}

impl PackAnswers {
    /// The examples member `m` covers.
    pub fn covered(&self, m: usize) -> &Bitset {
        &self.covered[m]
    }

    /// The steps member `m` is charged.
    pub fn steps(&self, m: usize) -> u64 {
        self.steps[m]
    }

    /// Empties the answers of the members in `which`, for a side of `n`
    /// examples.
    fn reset(&mut self, which: u64, n: usize) {
        let members = 64 - which.leading_zeros() as usize;
        if self.covered.len() < members {
            self.covered.resize_with(members, Bitset::default);
            self.steps.resize(members, 0);
        }
        for m in members_of(which) {
            self.covered[m].reset(n);
            self.steps[m] = 0;
        }
    }
}

/// The members in a pack's mask, in order.
fn members_of(mut which: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let m = (which != 0).then(|| which.trailing_zeros() as usize)?;
        which &= which - 1;
        Some(m)
    })
}

/// How many threads prove a side of `n` examples of which the `live` ones
/// are tried: one below [`PARALLEL_MIN_EXAMPLES`] live examples a thread.
fn side_threads(n: usize, live: Option<&Bitset>, threads: usize) -> usize {
    // Threshold on *live* examples: under monotone pruning a deep
    // refinement may be live on a handful of a thousand examples, and
    // spawning threads for mostly-dead ranges costs more than it saves.
    let workload = live.map_or(n, Bitset::count);
    let cap = workload.div_ceil(PARALLEL_MIN_EXAMPLES);
    if cap <= 1 {
        1
    } else {
        resolve_threads(threads).min(cap)
    }
}

/// Binds `rule`'s head to `example`, as the head test of the module docs
/// does once the example may match: straight by id for a simple head and a
/// ground example (`hints` are the example's argument ids, when the caller
/// has them), else by unification. False when they do not unify.
fn bind_head(
    rule: &PreparedRule,
    example: &Literal,
    hints: &[TermId],
    arena: &TermArena,
    bindings: &mut Bindings,
) -> bool {
    if !(rule.simple_head && example.is_ground()) {
        return bindings.unify_literals(&rule.head, example, false);
    }
    for (k, (h, arg)) in rule.head.args.iter().zip(example.args.iter()).enumerate() {
        if let Term::Var(v) = h {
            let hint = hints.get(k).copied().unwrap_or(TermId::NONE);
            let id = arena.lookup_hinted(arg, hint).unwrap_or(TermId::NONE);
            bindings.bind_ground_id(*v, arg, id);
        }
    }
    true
}

/// Slots of a [`CallTable`], a power of two so that a hash's top bits pick
/// one. On the sequential `carcinogenesis(0.3)` learn 1 024 slots answer
/// 241 505 of its 377 672 extra-literal calls (64 %), 4 096 71 % and 65 536
/// 77 %: past 1 024 a doubling buys a few points and doubles the 40 KB that
/// every covering loop keeps (the benchmark's bound on peak RSS is 10 %).
const CALL_SLOTS: usize = 1024;

/// Fewest steps a call must have run to be recorded. A shorter call costs
/// about what its lookup does, and keeping them out keeps whole searches
/// off the table: `mesh(1.0)`'s extra-literal calls run 0.77 steps on
/// average and none 3 or more, so there nothing is recorded or looked up.
const MIN_TABLED_STEPS: u64 = 3;

/// Most arguments of a tabled call (the benchmark's literals have four).
const CALL_ARGS: usize = 5;

/// A call of an extra literal, keyed by what its proof depends on: the
/// predicate, and per argument a cell — the arena id of a constant or of a
/// bound variable's value, or, for an argument whose bit is set in `free`,
/// the position of its unbound variable's first occurrence, so that
/// `q(X, X)` and `q(X, Y)` differ.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Call {
    pred: u32,
    free: u8,
    cells: [u32; CALL_ARGS],
}

/// A call that ran without aborting, in the search `search`: whether it
/// found a solution and the steps it took to find it or to fail.
#[derive(Clone, Copy, Default)]
struct Record {
    call: Call,
    search: u32,
    steps: u32,
    found: bool,
}

const _: () = assert!(size_of::<Record>() == 40);

/// The calls of a search's extra literals, each proved once and charged
/// every time (the module docs, "Query packs", say why that is exact).
/// Direct-mapped, [`CALL_SLOTS`] records overwritten on collision,
/// allocated at the first record; valid for one search (a KB and a
/// [`ProofLimits`]), which [`CallTable::open`] starts. Only runs of
/// [`MIN_TABLED_STEPS`] or more are recorded, and only calls of a
/// predicate with a record in the search are looked up.
#[derive(Default)]
struct CallTable {
    records: Vec<Record>,
    /// Per [`p2mdie_logic::clause::PredId`] the last search that recorded
    /// a call of it.
    preds: Vec<u32>,
    /// The current search; records of another are empty slots.
    search: u32,
    /// Off while the KB holds an irregular fact.
    on: bool,
    /// Calls answered in this search, and the steps charged for them.
    answered: u64,
    answered_steps: u64,
}

impl CallTable {
    /// Starts a search against `kb`: every record is forgotten.
    fn open(&mut self, kb: &KnowledgeBase) {
        if self.search == u32::MAX {
            *self = CallTable::default();
        }
        self.search += 1;
        self.on = !kb.has_irregular_facts();
        (self.answered, self.answered_steps) = (0, 0);
    }

    /// The call `goal`, one literal, makes from `bindings`; none for a
    /// compound argument, a ground value without an arena id or more than
    /// [`CALL_ARGS`] arguments.
    fn call_of(pred: u32, goal: CompiledGoalsRef<'_>, bindings: &Bindings) -> Option<Call> {
        let args = &goal.lits[0].lit.args;
        if args.len() > CALL_ARGS {
            return None;
        }
        let mut call = Call {
            pred,
            ..Call::default()
        };
        let mut vars = [VarId::MAX; CALL_ARGS];
        for (k, arg) in args.iter().enumerate() {
            let id = match arg {
                Term::Var(v) => match bindings.id_or_var(*v) {
                    Ok(id) => id,
                    Err(var) => {
                        vars[k] = var;
                        call.free |= 1 << k;
                        call.cells[k] = vars.iter().position(|&w| w == var).unwrap_or(k) as u32;
                        continue;
                    }
                },
                Term::App(..) => return None,
                _ => goal.ids.get(k).copied().unwrap_or(TermId::NONE),
            };
            if id.is_none() {
                return None;
            }
            call.cells[k] = id.0;
        }
        Some(call)
    }

    /// The slot of `call`: the top bits of one product per word, which do
    /// not wait on each other as a hasher's chain of them would.
    fn slot(call: &Call) -> usize {
        const K: [u64; 4] = [
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x1656_67b1_9e37_79f9,
            0x27d4_eb2f_1656_67c5,
        ];
        let [a, b, c, d, e] = call.cells.map(u64::from);
        let pred = u64::from(call.pred) | u64::from(call.free) << 32;
        let words = [pred, a | b << 32, c | d << 32, e];
        let h = (0..4).fold(0, |h, k| h ^ words[k].wrapping_mul(K[k]));
        (h >> (64 - CALL_SLOTS.trailing_zeros())) as usize
    }

    /// The record of `call` in this search.
    fn held(&self, call: &Call) -> Option<Record> {
        let r = self.records[Self::slot(call)];
        (r.search == self.search && r.call == *call).then_some(r)
    }

    /// Records a run of `pred`, over whatever held the slot.
    fn record(&mut self, pred: usize, record: Record) {
        if self.records.is_empty() {
            self.records = vec![Record::default(); CALL_SLOTS];
        }
        if self.preds.len() <= pred {
            self.preds.resize(pred + 1, 0);
        }
        self.preds[pred] = self.search;
        self.records[Self::slot(&record.call)] = record;
    }

    /// What `run` — a proof of `goal` from `bindings` under a budget of
    /// `left` — gives, whether a solution was found and its stats, answered
    /// from the table when it holds the call.
    fn run(
        &mut self,
        goal: CompiledGoalsRef<'_>,
        bindings: &mut Bindings,
        left: u64,
        run: impl FnOnce(&mut Bindings) -> (bool, ProofStats),
    ) -> (bool, ProofStats) {
        let pred = match goal.lits[0].kind {
            LitKind::Pred(pred) if self.on => pred.index(),
            _ => return run(bindings),
        };
        let looked = self.preds.get(pred) == Some(&self.search);
        let call = looked
            .then(|| Self::call_of(pred as u32, goal, bindings))
            .flatten();
        if let Some(r) = call.and_then(|call| self.held(&call)) {
            // A smaller budget stops the recorded run short.
            let aborted = u64::from(r.steps) > left;
            let steps = if aborted {
                left + 1
            } else {
                u64::from(r.steps)
            };
            self.answered += 1;
            self.answered_steps += steps;
            let stats = ProofStats {
                steps,
                depth_cuts: 0,
                aborted,
            };
            return (r.found && !aborted, stats);
        }
        let (found, stats) = run(bindings);
        if !stats.aborted && stats.steps >= MIN_TABLED_STEPS {
            let call = if looked {
                call
            } else {
                Self::call_of(pred as u32, goal, bindings)
            };
            if let (Some(call), Ok(steps)) = (call, u32::try_from(stats.steps)) {
                let search = self.search;
                self.record(
                    pred,
                    Record {
                        call,
                        search,
                        steps,
                        found,
                    },
                );
            }
        }
        (found, stats)
    }
}

/// The buffers of a [`ProofScratch`], which outlive it: the binding store,
/// both provers' plan pools and the call table. The coverage memo keeps
/// one set per covering loop and lends it to each search
/// ([`ProofScratch::lend`]), so that they are made once.
#[derive(Default)]
pub(crate) struct ProofBuffers {
    bindings: Bindings,
    plans: [PlanScratch; 2],
    calls: CallTable,
}

/// One proof scratch: a prover, with its pool of plan buffers, a second
/// prover for the extra literals of a query pack, which run while the first
/// one's proof of their parent's body does, the call table of those
/// literals (the module docs, "Query packs") and one binding store, made
/// once and reused by every proof of a search. A side or a pack evaluated
/// through it allocates nothing once the buffers have grown.
pub struct ProofScratch<'a> {
    prover: Prover<'a>,
    extend: Prover<'a>,
    bindings: Bindings,
    calls: CallTable,
}

impl<'a> ProofScratch<'a> {
    /// A scratch for proofs against `kb` under `proof`.
    pub fn new(kb: &'a KnowledgeBase, proof: ProofLimits) -> Self {
        Self::lend(kb, proof, ProofBuffers::default())
    }

    /// [`ProofScratch::new`] in `buffers`, kept from an earlier scratch
    /// ([`ProofScratch::give_back`]); its call table starts empty.
    pub(crate) fn lend(kb: &'a KnowledgeBase, proof: ProofLimits, buffers: ProofBuffers) -> Self {
        let ProofBuffers {
            bindings,
            plans: [plans, extend_plans],
            mut calls,
        } = buffers;
        calls.open(kb);
        ProofScratch {
            prover: Prover::with_pool(kb, proof, plans),
            extend: Prover::with_pool(kb, proof, extend_plans),
            bindings,
            calls,
        }
    }

    /// The buffers, for the next scratch to take.
    pub(crate) fn give_back(self) -> ProofBuffers {
        ProofBuffers {
            bindings: self.bindings,
            plans: [self.prover.into_pool(), self.extend.into_pool()],
            calls: self.calls,
        }
    }

    /// The extra-literal calls of this scratch's packs its call table
    /// answered, and the steps it charged for them without running them.
    pub fn tabled(&self) -> (u64, u64) {
        (self.calls.answered, self.calls.answered_steps)
    }

    /// [`evaluate_side_threads`] of a compiled rule into `covered`, with
    /// the arena ids of `lits`' arguments when the caller has them. Returns
    /// the steps.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_side(
        &mut self,
        rule: &PreparedRule,
        lits: &[Literal],
        ids: Option<&ExampleIds>,
        live: Option<&Bitset>,
        threads: usize,
        covered: &mut Bitset,
    ) -> u64 {
        let n = lits.len();
        let threads = side_threads(n, live, threads);
        covered.reset(n);
        if threads <= 1 {
            return self.eval_range(rule, lits, ids, live, 0..n, covered);
        }
        let parts = self.in_chunks(n, threads, |scratch, range| {
            let mut bits = Bitset::new(n);
            let steps = scratch.eval_range(rule, lits, ids, live, range, &mut bits);
            (bits, steps)
        });
        // Merge in chunk order: bits are disjoint, the step sum is
        // order-invariant — bit-identical to the sequential pass.
        let mut steps = 0u64;
        for (b, s) in parts {
            covered.union_with(&b);
            steps += s;
        }
        steps
    }

    /// Runs `work` on `threads` contiguous chunks of `0..n`, each on a
    /// thread of its own with a scratch of its own; the results come back
    /// in chunk order.
    fn in_chunks<R: Send>(
        &self,
        n: usize,
        threads: usize,
        work: impl Fn(&mut ProofScratch<'a>, std::ops::Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let (kb, proof, work) = (self.prover.kb(), self.prover.limits(), &work);
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    let range = k * chunk..((k + 1) * chunk).min(n);
                    scope.spawn(move || work(&mut ProofScratch::new(kb, proof), range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("coverage worker panicked"))
                .collect()
        })
    }

    /// Evaluates one side (positive or negative examples) over `range` into
    /// `bits`, reusing one binding store across the whole range.
    fn eval_range(
        &mut self,
        rule: &PreparedRule,
        lits: &[Literal],
        ids: Option<&ExampleIds>,
        live: Option<&Bitset>,
        range: std::ops::Range<usize>,
        bits: &mut Bitset,
    ) -> u64 {
        match live {
            None => self.eval_indices(rule, lits, ids, range, bits),
            // Walk set bits directly: a sparse mask (deep refinements cover
            // little) costs O(|coverage|), not O(|E|).
            Some(l) => {
                let (lo, hi) = (range.start, range.end);
                let indices = l
                    .iter_ones()
                    .skip_while(|&i| i < lo)
                    .take_while(|&i| i < hi);
                self.eval_indices(rule, lits, ids, indices, bits)
            }
        }
    }

    /// Proves `rule` against each indexed example, setting the bits of those
    /// covered: the head test of the module docs (one step, charged
    /// whatever the test costs), then the compiled body. A `mesh(A, 7)` head
    /// skips about 11 examples in 12 before the store is touched; a
    /// surviving ground example binds each head variable by the id `ids`
    /// holds for its argument (one compare; a lookup without one), and no
    /// body goal hashes that variable again.
    fn eval_indices(
        &mut self,
        rule: &PreparedRule,
        lits: &[Literal],
        ids: Option<&ExampleIds>,
        indices: impl Iterator<Item = usize>,
        bits: &mut Bitset,
    ) -> u64 {
        let (prover, bindings) = (&self.prover, &mut self.bindings);
        let arena = prover.kb().arena();
        let mut steps = 0u64;
        for i in indices {
            steps += 1; // head-match attempt
            let example = &lits[i];
            if !rule.head_may_match(example) {
                continue;
            }
            // Exactly `span` free slots, as a store made for this rule has.
            bindings.reset(rule.span);
            bindings.ensure(rule.span);
            let hints = ids.map_or(&[][..], |ids| ids.of(i));
            if bind_head(rule, example, hints, arena, bindings) {
                let (ok, st) = prover.prove_compiled_reusing(rule.goals(), bindings);
                steps += st.steps;
                if ok {
                    bits.set(i);
                }
            }
        }
        steps
    }

    /// Proves the query pack of `parent` (see "Query packs" above) on the
    /// examples of `lits` in `live`: each member of `members` whose bit is
    /// set in `which` — a rule that [`PreparedRule::extends`] `parent` — into
    /// `answers`, exactly what [`ProofScratch::evaluate_side`] of the member
    /// alone gives, for every thread count. `ids` as there.
    #[allow(clippy::too_many_arguments)]
    pub fn eval_pack(
        &mut self,
        parent: &PreparedRule,
        members: &[PreparedRule],
        which: u64,
        lits: &[Literal],
        ids: Option<&ExampleIds>,
        live: &Bitset,
        threads: usize,
        answers: &mut PackAnswers,
    ) {
        debug_assert!(members_of(which).all(|m| members[m].extends(parent)));
        let n = lits.len();
        let threads = side_threads(n, Some(live), threads);
        answers.reset(which, n);
        if threads <= 1 {
            return self.pack_range(parent, members, which, lits, ids, live, 0..n, answers);
        }
        let parts = self.in_chunks(n, threads, |scratch, range| {
            let mut part = PackAnswers::default();
            part.reset(which, n);
            scratch.pack_range(parent, members, which, lits, ids, live, range, &mut part);
            (part, scratch.tabled())
        });
        // Disjoint bits and order-invariant sums, as in `evaluate_side`.
        for (part, (calls, steps)) in parts {
            self.calls.answered += calls;
            self.calls.answered_steps += steps;
            for m in members_of(which) {
                answers.covered[m].union_with(&part.covered[m]);
                answers.steps[m] += part.steps[m];
            }
        }
    }

    /// [`ProofScratch::eval_pack`] over the live examples in `range`, on the
    /// calling thread.
    #[allow(clippy::too_many_arguments)]
    fn pack_range(
        &mut self,
        parent: &PreparedRule,
        members: &[PreparedRule],
        which: u64,
        lits: &[Literal],
        ids: Option<&ExampleIds>,
        live: &Bitset,
        range: std::ops::Range<usize>,
        answers: &mut PackAnswers,
    ) {
        let (prover, extend, bindings) = (&self.prover, &self.extend, &mut self.bindings);
        let calls = &mut self.calls;
        let arena = prover.kb().arena();
        let max_steps = prover.limits().max_steps;
        // Every member's variables, reserved before the body runs.
        let span = members_of(which).fold(parent.span, |span, m| span.max(members[m].span));
        let indices = live
            .iter_ones()
            .skip_while(|&i| i < range.start)
            .take_while(|&i| i < range.end);
        let mut tried = 0u64;
        for i in indices {
            tried += 1; // the head step, every member's
            let example = &lits[i];
            if !parent.head_may_match(example) {
                continue;
            }
            bindings.reset(span);
            bindings.ensure(span);
            let hints = ids.map_or(&[][..], |ids| ids.of(i));
            if !bind_head(parent, example, hints, arena, bindings) {
                continue;
            }
            // The members not yet decided, and the steps each one's literal
            // took so far.
            let mut open = which;
            let mut extra = [0u64; 64];
            let body = prover.run_metered(parent.goals(), bindings, 0, max_steps, &mut |b, at| {
                for m in members_of(open) {
                    let spent = at.steps + extra[m];
                    if spent <= max_steps {
                        let goal = members[m].last_goal();
                        let left = max_steps - spent;
                        let (found, tried) = calls.run(goal, b, left, |b| {
                            let mut found = false;
                            let stats = extend.run_metered(goal, b, at.fresh, left, &mut |_, _| {
                                found = true;
                                false
                            });
                            (found, stats)
                        });
                        extra[m] += tried.steps;
                        if found {
                            answers.covered[m].set(i);
                        } else if !tried.aborted {
                            continue;
                        }
                    }
                    answers.steps[m] += (at.steps + extra[m]).min(max_steps + 1);
                    open &= !(1 << m);
                }
                open != 0
            });
            for m in members_of(open) {
                answers.steps[m] += (body.steps + extra[m]).min(max_steps + 1);
            }
        }
        for m in members_of(which) {
            answers.steps[m] += tried;
        }
    }
}

/// Evaluates `rule` on one side (a positive or negative example list),
/// fanned out over `threads` contiguous chunks; `0` means one thread per
/// available core. Returns the covered bitset and the inference steps
/// spent. Bit-identical for every thread count. A caller that evaluates a
/// rule more than once compiles it once ([`prepare_rule`]) and keeps a
/// [`ProofScratch`] instead.
pub fn evaluate_side_threads(
    kb: &KnowledgeBase,
    proof: ProofLimits,
    rule: &Clause,
    lits: &[Literal],
    live: Option<&Bitset>,
    threads: usize,
) -> (Bitset, u64) {
    let rule = prepare_rule(kb, rule);
    let mut covered = Bitset::default();
    let mut scratch = ProofScratch::new(kb, proof);
    let steps = scratch.evaluate_side(&rule, lits, None, live, threads, &mut covered);
    (covered, steps)
}

/// Evaluates `rule` on `examples`, optionally restricted to live subsets.
///
/// `live_pos` / `live_neg` — when given — skip evaluation of retired
/// examples entirely (their bits are left unset), mirroring the paper's
/// removal of covered examples from the training set.
///
/// Runs on the calling thread; use [`evaluate_rule_threads`] to fan out.
pub fn evaluate_rule(
    kb: &KnowledgeBase,
    proof: ProofLimits,
    rule: &Clause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    live_neg: Option<&Bitset>,
) -> Coverage {
    evaluate_rule_threads(kb, proof, rule, examples, live_pos, live_neg, 1)
}

/// [`evaluate_rule`] with an explicit thread count: `1` stays on the calling
/// thread, `0` uses one thread per available core, `n` uses `n` threads.
/// The result is bit-identical for every thread count.
pub fn evaluate_rule_threads(
    kb: &KnowledgeBase,
    proof: ProofLimits,
    rule: &Clause,
    examples: &Examples,
    live_pos: Option<&Bitset>,
    live_neg: Option<&Bitset>,
    threads: usize,
) -> Coverage {
    // Compile once; both sides (and every example) reuse the dispatch.
    let rule = prepare_rule(kb, rule);
    let mut scratch = ProofScratch::new(kb, proof);
    let mut side = |lits: &[Literal], live| {
        let mut covered = Bitset::default();
        let steps = scratch.evaluate_side(&rule, lits, None, live, threads, &mut covered);
        (covered, steps)
    };
    let (pos, pos_steps) = side(&examples.pos, live_pos);
    let (neg, neg_steps) = side(&examples.neg, live_neg);
    Coverage {
        pos,
        neg,
        steps: pos_steps + neg_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_logic::clause::Literal;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// World: numbers 1..6 with even/3-divisibility facts; target div6(X).
    fn world() -> (SymbolTable, KnowledgeBase, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let even = t.intern("even");
        let div3 = t.intern("div3");
        for i in 1..=12i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(even, vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(div3, vec![Term::Int(i)]));
            }
        }
        let tgt = t.intern("div6");
        let ex = Examples::new(
            vec![6, 12]
                .into_iter()
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
            vec![2, 3, 4, 9]
                .into_iter()
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
        );
        (t, kb, ex)
    }

    #[test]
    fn correct_rule_covers_pos_only() {
        let (t, kb, ex) = world();
        // div6(X) :- even(X), div3(X).
        let rule = Clause::new(
            Literal::new(t.intern("div6"), vec![Term::Var(0)]),
            vec![
                Literal::new(t.intern("even"), vec![Term::Var(0)]),
                Literal::new(t.intern("div3"), vec![Term::Var(0)]),
            ],
        );
        let cov = evaluate_rule(&kb, ProofLimits::default(), &rule, &ex, None, None);
        assert_eq!(cov.pos_count(), 2);
        assert_eq!(cov.neg_count(), 0);
        assert!(cov.steps > 0);
    }

    #[test]
    fn overgeneral_rule_covers_negatives() {
        let (t, kb, ex) = world();
        // div6(X) :- even(X). covers neg 2 and 4.
        let rule = Clause::new(
            Literal::new(t.intern("div6"), vec![Term::Var(0)]),
            vec![Literal::new(t.intern("even"), vec![Term::Var(0)])],
        );
        let cov = evaluate_rule(&kb, ProofLimits::default(), &rule, &ex, None, None);
        assert_eq!(cov.pos_count(), 2);
        assert_eq!(cov.neg_count(), 2);
    }

    #[test]
    fn live_mask_skips_examples() {
        let (t, kb, ex) = world();
        let rule = Clause::new(
            Literal::new(t.intern("div6"), vec![Term::Var(0)]),
            vec![Literal::new(t.intern("even"), vec![Term::Var(0)])],
        );
        let mut live = Bitset::new(ex.num_pos());
        live.set(1); // only example 12 is live
        let cov = evaluate_rule(&kb, ProofLimits::default(), &rule, &ex, Some(&live), None);
        assert_eq!(cov.pos.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn head_constant_filters_cheaply() {
        let (t, kb, _) = world();
        // Rule head div6(6) only matches the literal example div6(6).
        let rule = Clause::fact(Literal::new(t.intern("div6"), vec![Term::Int(6)]));
        let tgt = t.intern("div6");
        let ex = Examples::new(
            vec![
                Literal::new(tgt, vec![Term::Int(6)]),
                Literal::new(tgt, vec![Term::Int(12)]),
            ],
            vec![],
        );
        let cov = evaluate_rule(&kb, ProofLimits::default(), &rule, &ex, None, None);
        assert_eq!(cov.pos.iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn empty_body_rule_covers_all_matching() {
        let (t, kb, ex) = world();
        let rule = Clause::fact(Literal::new(t.intern("div6"), vec![Term::Var(0)]));
        let cov = evaluate_rule(&kb, ProofLimits::default(), &rule, &ex, None, None);
        assert_eq!(cov.pos_count(), 2);
        assert_eq!(cov.neg_count(), 4);
    }

    /// A large world exercising the actual fan-out path (above the
    /// [`PARALLEL_MIN_EXAMPLES`] threshold).
    fn big_world() -> (SymbolTable, KnowledgeBase, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let even = t.intern("even");
        let div3 = t.intern("div3");
        for i in 1..=2000i64 {
            if i % 2 == 0 {
                kb.assert_fact(Literal::new(even, vec![Term::Int(i)]));
            }
            if i % 3 == 0 {
                kb.assert_fact(Literal::new(div3, vec![Term::Int(i)]));
            }
        }
        let tgt = t.intern("div6");
        let ex = Examples::new(
            (1..=2000i64)
                .filter(|i| i % 6 == 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
            (1..=2000i64)
                .filter(|i| i % 6 != 0)
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect(),
        );
        (t, kb, ex)
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let (t, kb, ex) = big_world();
        let rule = Clause::new(
            Literal::new(t.intern("div6"), vec![Term::Var(0)]),
            vec![
                Literal::new(t.intern("even"), vec![Term::Var(0)]),
                Literal::new(t.intern("div3"), vec![Term::Var(0)]),
            ],
        );
        let mut live = ex.full_pos_live();
        live.clear(3);
        live.clear(117);
        let baseline = evaluate_rule_threads(
            &kb,
            ProofLimits::default(),
            &rule,
            &ex,
            Some(&live),
            None,
            1,
        );
        assert!(baseline.pos_count() > 0);
        for threads in [0, 2, 3, 7, 16] {
            let cov = evaluate_rule_threads(
                &kb,
                ProofLimits::default(),
                &rule,
                &ex,
                Some(&live),
                None,
                threads,
            );
            assert_eq!(cov, baseline, "threads={threads} diverged");
        }
    }

    #[test]
    fn small_sides_stay_sequential_but_agree() {
        let (t, kb, ex) = world();
        let rule = Clause::new(
            Literal::new(t.intern("div6"), vec![Term::Var(0)]),
            vec![Literal::new(t.intern("even"), vec![Term::Var(0)])],
        );
        let a = evaluate_rule_threads(&kb, ProofLimits::default(), &rule, &ex, None, None, 1);
        let b = evaluate_rule_threads(&kb, ProofLimits::default(), &rule, &ex, None, None, 8);
        assert_eq!(a, b);
    }
}
