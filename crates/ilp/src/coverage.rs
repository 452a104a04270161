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
//! argument, keeping the argument's arena id: the body's goals then probe
//! the variable by id. Any other head or example is unified, as every
//! example once was.
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
use crate::examples::Examples;
use p2mdie_logic::clause::{Clause, CompiledGoals, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::{ProofLimits, Prover};
use p2mdie_logic::subst::Bindings;
use p2mdie_logic::term::Term;

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

/// Resolves a thread-count knob: `0` means "one thread per available core".
fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A rule compiled for repeated evaluation: variables renumbered densely
/// ([`Clause::dense`]), body dispatch resolved once (see
/// [`p2mdie_logic::clause::CompiledGoals`]), rename-apart span and head
/// shape precomputed. Prepare once per candidate rule; prove per example.
/// Each proof runs column-native end to end: body goals retrieve `(PredId,
/// row-index)` candidates and unify against the KB's arena-id tuples, so
/// coverage testing touches no row literals (the examples themselves are
/// the only literals in play).
#[derive(Clone, Debug)]
pub struct PreparedRule {
    /// The rule head (examples unify against it).
    pub head: Literal,
    /// Compiled body conjunction.
    pub body: CompiledGoals,
    /// Variable span of the whole clause (head + body): its number of
    /// variables.
    pub span: usize,
    /// The head argument positions that hold a ground term.
    ground_args: Box<[usize]>,
    /// True when every head argument is a ground term or a variable that
    /// occurs nowhere else in the head.
    simple_head: bool,
}

impl PreparedRule {
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

/// Compiles `rule` against `kb` for evaluation via
/// [`evaluate_side_prepared`].
pub fn prepare_rule(kb: &KnowledgeBase, rule: &Clause) -> PreparedRule {
    let rule = rule.dense();
    let args = &rule.head.args;
    let mut head_vars = Vec::new();
    let simple_head = args.iter().all(|a| match a {
        Term::Var(v) if head_vars.contains(v) => false,
        Term::Var(v) => {
            head_vars.push(*v);
            true
        }
        t => t.is_ground(),
    });
    PreparedRule {
        head: rule.head.clone(),
        body: kb.compile_goals(&rule.body),
        span: rule.var_span() as usize,
        ground_args: (0..args.len()).filter(|&p| args[p].is_ground()).collect(),
        simple_head,
    }
}

/// Evaluates one side (positive or negative examples) over `[lo, hi)`,
/// reusing one binding store across the whole range.
fn eval_range(
    prover: &Prover<'_>,
    rule: &PreparedRule,
    lits: &[Literal],
    live: Option<&Bitset>,
    lo: usize,
    hi: usize,
) -> (Bitset, u64) {
    match live {
        None => eval_indices(prover, rule, lits, lo..hi),
        // Walk set bits directly: a sparse mask (deep refinements cover
        // little) costs O(|coverage|), not O(|E|).
        Some(l) => eval_indices(
            prover,
            rule,
            lits,
            l.iter_ones()
                .skip_while(|&i| i < lo)
                .take_while(|&i| i < hi),
        ),
    }
}

/// Proves `rule` against each indexed example: the head test of the module
/// docs (one step, charged whatever the test costs), then the compiled body.
/// A `mesh(A, 7)` head skips about 11 examples in 12 before the store is
/// touched; a surviving ground example costs one arena lookup per head
/// variable, and no body goal hashes that variable again.
fn eval_indices(
    prover: &Prover<'_>,
    rule: &PreparedRule,
    lits: &[Literal],
    indices: impl Iterator<Item = usize>,
) -> (Bitset, u64) {
    let arena = prover.kb().arena();
    let mut bits = Bitset::new(lits.len());
    let mut steps = 0u64;
    let mut scratch = Bindings::with_capacity(rule.span);
    for i in indices {
        steps += 1; // head-match attempt
        let example = &lits[i];
        if !rule.head_may_match(example) {
            continue;
        }
        scratch.reset(rule.span);
        let matched = if rule.simple_head && example.is_ground() {
            for (h, arg) in rule.head.args.iter().zip(example.args.iter()) {
                if let Term::Var(v) = h {
                    scratch.bind_ground(*v, arg, arena);
                }
            }
            true
        } else {
            scratch.unify_literals(&rule.head, example, false)
        };
        if matched {
            let (ok, st) = prover.prove_compiled_reusing(&rule.body, &mut scratch);
            steps += st.steps;
            if ok {
                bits.set(i);
            }
        }
    }
    (bits, steps)
}

/// Evaluates `rule` on one side (a positive or negative example list),
/// fanned out over `threads` contiguous chunks; `0` means one thread per
/// available core. Returns the covered bitset and the inference steps
/// spent. Bit-identical for every thread count.
pub fn evaluate_side_threads(
    kb: &KnowledgeBase,
    proof: ProofLimits,
    rule: &Clause,
    lits: &[Literal],
    live: Option<&Bitset>,
    threads: usize,
) -> (Bitset, u64) {
    let prepared = prepare_rule(kb, rule);
    evaluate_side_prepared(kb, proof, &prepared, lits, live, threads)
}

/// [`evaluate_side_threads`] over an already-compiled rule: the per-rule
/// compile (dispatch resolution, span scan) is hoisted out of the search's
/// two-sides-per-node pattern.
pub fn evaluate_side_prepared(
    kb: &KnowledgeBase,
    proof: ProofLimits,
    rule: &PreparedRule,
    lits: &[Literal],
    live: Option<&Bitset>,
    threads: usize,
) -> (Bitset, u64) {
    let n = lits.len();
    // Threshold on *live* examples: under monotone pruning a deep
    // refinement may be live on a handful of a thousand examples, and
    // spawning threads for mostly-dead ranges costs more than it saves.
    let workload = live.map_or(n, Bitset::count);
    let cap = workload.div_ceil(PARALLEL_MIN_EXAMPLES);
    // Resolving `0` asks the OS (cgroup and affinity reads): only when the
    // side is large enough to fan out at all.
    let threads = if cap <= 1 {
        1
    } else {
        resolve_threads(threads).min(cap)
    };
    if threads <= 1 {
        let prover = Prover::new(kb, proof);
        return eval_range(&prover, rule, lits, live, 0, n);
    }
    let chunk = n.div_ceil(threads);
    let parts: Vec<(Bitset, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let lo = k * chunk;
                let hi = (lo + chunk).min(n);
                scope.spawn(move || {
                    let prover = Prover::new(kb, proof);
                    eval_range(&prover, rule, lits, live, lo, hi)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("coverage worker panicked"))
            .collect()
    });
    // Merge in chunk order: bits are disjoint, the step sum is
    // order-invariant — bit-identical to the sequential pass.
    let mut bits = Bitset::new(n);
    let mut steps = 0u64;
    for (b, s) in parts {
        bits.union_with(&b);
        steps += s;
    }
    (bits, steps)
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
    let (pos, pos_steps) =
        evaluate_side_prepared(kb, proof, &rule, &examples.pos, live_pos, threads);
    let (neg, neg_steps) =
        evaluate_side_prepared(kb, proof, &rule, &examples.neg, live_neg, threads);
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
