//! The coverage memo's budget, held to the byte on the benchmark's inputs.
//!
//! Runs the sequential covering loop of `p2mdie_ilp::mdie` — written out
//! here against public API so the memo can be inspected between searches —
//! on the three datasets `bench_e2e` times, and checks, with no wall clock:
//!
//! * after every search, the largest size the memo ever accounted for is
//!   within its budget (the peak is taken at every growth, and growing is
//!   the only way the size rises: this is the check "after every insert");
//! * after every search, the accounted size equals the size recomputed from
//!   the memo's vectors, and every count it keeps matches a walk over its
//!   records (`CoverageMemo::recount`);
//! * the loop is the product's: theory, epochs, set-aside and charged steps
//!   equal `run_sequential`'s.
//!
//! Run as `cargo test --release --test memo_budget -- --nocapture` (the
//! "Coverage memo budget" CI step), which also prints what the memo did per
//! dataset. Three Table-1-size learns take a minute unoptimised, so a debug
//! `cargo test` leaves them ignored; nothing here depends on the profile.

use p2mdie::datasets::Dataset;
use p2mdie::ilp::{
    evaluate_rule, run_sequential, saturate, search_rules_guided, CoverageMemo, SearchGuide,
};

fn covering_loop_stays_within_budget(name: &str, ds: &Dataset) {
    let (kb, modes, settings) = (&ds.engine.kb, &ds.engine.modes, &ds.engine.settings);
    let examples = &ds.examples;
    let mut memo = CoverageMemo::new();
    let mut live = examples.full_pos_live();
    let (mut theory, mut epochs, mut set_aside, mut steps) = (Vec::new(), 0, 0, 0);
    let mut search_steps = 0;
    while let Some(seed) = live.first() {
        epochs += 1;
        let Some(bottom) = saturate(kb, modes, settings, &examples.pos[seed]) else {
            live.clear(seed);
            set_aside += 1;
            continue;
        };
        steps += bottom.steps;
        let found = search_rules_guided(
            kb,
            settings,
            &bottom,
            examples,
            Some(&live),
            &[],
            &SearchGuide::default(),
            None,
            &mut memo,
        );
        steps += found.steps;
        search_steps += found.steps;
        assert!(
            memo.stats().peak_bytes <= memo.budget(),
            "{name}, epoch {epochs}: the memo reached {} B of a {} B budget",
            memo.stats().peak_bytes,
            memo.budget()
        );
        assert_eq!(
            memo.bytes(),
            memo.recount(),
            "{name}, epoch {epochs}: accounted bytes differ from the vectors' own"
        );
        if let Some(best) = found.best() {
            let clause = best.shape.to_clause(&bottom);
            let cov = evaluate_rule(kb, settings.proof, &clause, examples, Some(&live), None);
            steps += cov.steps;
            live.difference_with(&cov.pos);
            theory.push(clause);
        }
        if live.get(seed) {
            live.clear(seed);
            set_aside += 1;
        }
    }

    let product = run_sequential(kb, modes, settings, examples);
    let product_theory: Vec<_> = product.theory.iter().map(|r| r.clause.clone()).collect();
    assert_eq!(theory, product_theory, "{name}: theory");
    assert_eq!(
        (epochs, set_aside, steps),
        (product.epochs, product.set_aside, product.steps),
        "{name}: epochs, set-aside, charged steps"
    );

    let s = memo.stats();
    println!(
        "{name}: {} nodes = {} served + {} partial + {} proved; {} evicted, {} not stored; \
         proofs ran {} of {} charged search steps; peak {} B of {} B",
        s.served + s.partial + s.proved,
        s.served,
        s.partial,
        s.proved,
        s.evicted,
        s.unstored,
        s.steps_run,
        search_steps,
        s.peak_bytes,
        memo.budget()
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn carcinogenesis_stays_within_budget() {
    let ds = p2mdie::datasets::carcinogenesis(0.3, 2005);
    covering_loop_stays_within_budget("carcinogenesis(0.3, 2005)", &ds);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn mesh_stays_within_budget() {
    let ds = p2mdie::datasets::mesh(1.0, 2005);
    covering_loop_stays_within_budget("mesh(1.0, 2005)", &ds);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn pyrimidines_stays_within_budget() {
    let ds = p2mdie::datasets::pyrimidines(1.0, 2005);
    covering_loop_stays_within_budget("pyrimidines(1.0, 2005)", &ds);
}
