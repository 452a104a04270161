//! The prover and coverage on the benchmark's own inputs — carcinogenesis
//! (0.3), mesh (1.0) and pyrimidines (1.0) at seed 2005 — held to the
//! reference prover of `crates/logic/tests/oracle`, which reads the KB's
//! rows through `facts_for` and its rules through `rules_for` and knows
//! nothing of the arena, the postings or the compiled clauses.
//!
//! For each of the first five positives as the seed: every query that
//! saturation asks, with its solutions in order and its steps (and their sum
//! equal to the steps ⊥e records, so the replay below asks what `saturate`
//! asks); then ⊥e as a rule and its first two refinements on the first five
//! positives and negatives, each example's `(covered, steps)`, under the
//! dataset's proof limits and again under a budget of 40 steps.
//!
//! Beside it, two checks on the same KBs: their fact and posting stores
//! pinned in bytes, and the carcinogenesis background theory printed and
//! consulted back.

#[path = "../crates/logic/tests/oracle/mod.rs"]
mod oracle;

#[path = "../crates/ilp/tests/oracle/mod.rs"]
mod ilp_oracle;

use oracle::PlainProgram;
use p2mdie::datasets::Dataset;
use p2mdie::ilp::coverage::evaluate_side_threads;
use p2mdie::ilp::modes::{ModeArg, ModeSet};
use p2mdie::ilp::refine::RuleShape;
use p2mdie::ilp::settings::Settings;
use p2mdie::logic::clause::{Clause, Literal};
use p2mdie::logic::kb::KnowledgeBase;
use p2mdie::logic::prover::{ProofLimits, Prover};
use p2mdie::logic::symbol::{SymbolId, SymbolTable};
use p2mdie::logic::term::Term;
use p2mdie::logic::Program;
use std::collections::{HashMap, HashSet};

/// How many positives seed ⊥e, and how many examples of each sign every
/// rule is evaluated on.
const FIRST: usize = 5;

/// The step budget every rule is also evaluated under.
const TIGHT_STEPS: u64 = 40;

/// A literal of ⊥e before variablizing: its predicate and, per argument,
/// the ground term with its mode type (`None` at a `#` slot) — exactly the
/// information its variables encode.
type BodyLiteral = (SymbolId, Vec<(Term, Option<SymbolId>)>);

/// The saturation queries of `example` with their recall, in the order
/// `p2mdie_ilp::bottom::saturate` asks them: its loop over depths, body
/// modes and input combinations, replayed without variablizing (so a
/// literal of ⊥e is a [`BodyLiteral`]).
fn saturation_queries(
    kb: &KnowledgeBase,
    modes: &ModeSet,
    settings: &Settings,
    example: &Literal,
) -> Vec<(Literal, usize)> {
    const MAX_COMBOS_PER_MODE: usize = 1024;
    let mut in_terms: HashMap<SymbolId, Vec<Term>> = HashMap::new();
    let mut known: HashSet<(Term, SymbolId)> = HashSet::new();
    for (slot, ground) in modes.head.args.iter().zip(example.args.iter()) {
        if let ModeArg::Input(t) | ModeArg::Output(t) = slot {
            if known.insert((ground.clone(), *t)) {
                in_terms.entry(*t).or_default().push(ground.clone());
            }
        }
    }
    let prover = Prover::new(kb, settings.proof);
    let mut body: HashSet<BodyLiteral> = HashSet::new();
    let mut queries = Vec::new();
    'depths: for _ in 1..=settings.max_var_depth {
        let available = in_terms.clone();
        let mut fresh = Vec::new();
        for mode in &modes.body {
            let candidates: Vec<&[Term]> = mode
                .args
                .iter()
                .filter_map(|a| match a {
                    ModeArg::Input(t) => Some(available.get(t).map_or(&[][..], |v| v)),
                    _ => None,
                })
                .collect();
            if candidates.iter().any(|c| c.is_empty()) {
                continue;
            }
            let total: usize = candidates.iter().map(|c| c.len()).product();
            for combo in 0..total.min(MAX_COMBOS_PER_MODE) {
                let mut rem = combo;
                let mut pick = Vec::new();
                for c in &candidates {
                    pick.push(c[rem % c.len()].clone());
                    rem /= c.len();
                }
                let mut pick = pick.into_iter();
                let mut qvar = 0;
                let args = mode.args.iter().map(|a| match a {
                    ModeArg::Input(_) => pick.next().expect("one pick per input slot"),
                    _ => {
                        qvar += 1;
                        Term::Var(qvar - 1)
                    }
                });
                let query = Literal::new(mode.pred, args.collect());
                let (solutions, _) = prover.solutions(&query, mode.recall as usize);
                queries.push((query, mode.recall as usize));
                for sol in solutions {
                    let mut lit = Vec::new();
                    for (slot, ground) in mode.args.iter().zip(sol.args.iter()) {
                        match slot {
                            ModeArg::Input(t) => lit.push((ground.clone(), Some(*t))),
                            ModeArg::Output(t) => {
                                lit.push((ground.clone(), Some(*t)));
                                if known.insert((ground.clone(), *t)) {
                                    fresh.push((ground.clone(), *t));
                                }
                            }
                            ModeArg::Const(_) => lit.push((ground.clone(), None)),
                        }
                    }
                    if body.insert((mode.pred, lit)) && body.len() >= settings.max_bottom_literals {
                        break 'depths;
                    }
                }
            }
        }
        for (t, ty) in fresh {
            in_terms.entry(ty).or_default().push(t);
        }
    }
    queries
}

fn check(name: &str, ds: &Dataset) {
    let engine = &ds.engine;
    let kb = &engine.kb;
    let limits = engine.settings.proof;
    let prover = Prover::new(kb, limits);
    let prog = PlainProgram::from_kb(kb);
    let oracle = prog.prover(limits);
    let probes: Vec<&Literal> = ds.examples.pos[..FIRST]
        .iter()
        .chain(&ds.examples.neg[..FIRST])
        .collect();
    for seed in &ds.examples.pos[..FIRST] {
        let bottom = engine
            .saturate(seed)
            .expect("the seed matches the head mode");
        let mut steps = 0;
        for (query, recall) in saturation_queries(kb, &engine.modes, &engine.settings, seed) {
            let got = prover.solutions(&query, recall);
            assert_eq!(got, oracle.solutions(&query, recall), "{name}: {query:?}");
            steps += got.1.steps;
        }
        assert_eq!(
            steps, bottom.steps,
            "{name}: the replay asked other queries"
        );

        let mut rules = vec![bottom.to_clause()];
        let max_body = engine.settings.max_body;
        let refinements = ilp_oracle::successors(&RuleShape::empty(), &bottom, max_body);
        rules.extend(refinements.iter().take(2).map(|s| s.to_clause(&bottom)));
        // Under the dataset's limits, and under a budget so tight that it
        // runs out inside the rows a ranked walk skips and charges in bulk.
        let tight = ProofLimits {
            max_steps: TIGHT_STEPS,
            ..limits
        };
        for limits in [limits, tight] {
            let oracle = prog.prover(limits);
            for rule in &rules {
                for &ex in &probes {
                    let (bits, steps) =
                        evaluate_side_threads(kb, limits, rule, std::slice::from_ref(ex), None, 1);
                    assert_eq!(
                        (bits.get(0), steps),
                        oracle.covers(rule, ex),
                        "{name}: {rule:?} on {ex:?} under {limits:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn benchmark_inputs_prove_as_the_oracle_does() {
    const BENCH_SEED: u64 = 2005;
    check(
        "carcinogenesis(0.3)",
        &p2mdie::datasets::carcinogenesis(0.3, BENCH_SEED),
    );
    check("mesh(1.0)", &p2mdie::datasets::mesh(1.0, BENCH_SEED));
    check(
        "pyrimidines(1.0)",
        &p2mdie::datasets::pyrimidines(1.0, BENCH_SEED),
    );
}

/// The fact and posting stores of the benchmark's inputs, in bytes, pinned
/// exactly: the accounting counts lengths, never capacities, so any change
/// to a store's layout moves these numbers and must restate them here.
#[test]
fn benchmark_input_stores_are_pinned() {
    const BENCH_SEED: u64 = 2005;
    let cases = [
        (
            "carcinogenesis(0.3)",
            p2mdie::datasets::carcinogenesis(0.3, BENCH_SEED),
            88_412,
            162_636,
        ),
        (
            "mesh(1.0)",
            p2mdie::datasets::mesh(1.0, BENCH_SEED),
            102_456,
            288_232,
        ),
        (
            "pyrimidines(1.0)",
            p2mdie::datasets::pyrimidines(1.0, BENCH_SEED),
            2_544,
            11_072,
        ),
        ("trains(20)", p2mdie::datasets::trains(20, 7), 2_788, 7_304),
        (
            "carcinogenesis(0.5, seed 7)",
            p2mdie::datasets::carcinogenesis(0.5, 7),
            171_336,
            311_616,
        ),
    ];
    for (name, d, facts, postings) in cases {
        let kb = &d.engine.kb;
        assert_eq!(kb.fact_store_bytes(), facts, "{name}: fact_store_bytes");
        assert_eq!(
            kb.posting_store_bytes(),
            postings,
            "{name}: posting_store_bytes"
        );
    }
}

/// The whole background theory, one clause at a time.
fn theory_text(kb: &KnowledgeBase, syms: &SymbolTable) -> String {
    let mut text = String::new();
    for key in kb.predicates() {
        for fact in kb.facts_for(key) {
            text.push_str(&format!("{}\n", Clause::fact(fact).display(syms)));
        }
        for rule in kb.rules_for(key) {
            text.push_str(&format!("{}\n", rule.display(syms)));
        }
    }
    text
}

/// Carcinogenesis's background theory — builtin comparisons in its rules
/// included — printed and consulted back is the same theory: as many facts
/// and rules, and the same text printed again.
#[test]
fn carcinogenesis_background_prints_and_consults_back() {
    let d = p2mdie::datasets::carcinogenesis(0.3, 2005);
    let kb = &d.engine.kb;
    let text = theory_text(kb, &d.syms);
    let mut prog = Program::new();
    prog.consult(&text).expect("the printed theory parses");
    prog.kb_mut().optimize();
    assert_eq!(prog.kb().num_facts(), kb.num_facts(), "facts");
    assert_eq!(prog.kb().num_rules(), kb.num_rules(), "rules");
    assert!(kb.num_rules() > 0);
    assert_eq!(theory_text(prog.kb(), prog.symbols()), text);
}
