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
//!   equal `run_sequential`'s;
//! * the steps the proofs really ran stay under a ceiling — what this
//!   revision measures, so a change that fattens a record (fewer fit, more
//!   is proved again) fails here and not in a benchmark.
//!
//! A fourth case is the memo of a mesh *rank*, whose masks are 1/p the
//! length: the benchmark's `mesh-pipe-p2-tcp` learn (p = 2, W = 10) as one
//! job of an in-process resident service, every rank's `worker_memo_bytes`
//! within the budget after it and the ranks' executed steps under their
//! ceiling, with what the memos did read from the `worker_memo_*` entries.
//!
//! A fifth holds the memo of a *resident* rank to the same budget: the
//! benchmark's service workload in-process — 100 coverage jobs over prefixes
//! of one theory on `pyrimidines(1.0)` at p = 2 — reading each rank's
//! `worker_memo_bytes` through `Service::metrics()` after every job, with
//! every job's counts held against a direct `evaluate`.
//!
//! Run as `cargo test --release --test memo_budget -- --nocapture` (the
//! "Coverage memo budget" CI step), which also prints what the memo did per
//! dataset. Four Table-1-size learns take a minute unoptimised, so a debug
//! `cargo test` leaves them ignored; nothing here depends on the profile.

use p2mdie::core::{run_parallel, JobSpec, JobState, ParallelConfig, Service, ServiceConfig};
use p2mdie::datasets::Dataset;
use p2mdie::ilp::settings::Width;
use p2mdie::ilp::{evaluate_rule, run_sequential, saturate, CoverageMemo, MemoStats, Search};
use p2mdie::obs::{MetricValue, MetricsSnapshot};

fn covering_loop_stays_within_budget(name: &str, ds: &Dataset, steps_run_ceiling: u64) {
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
        let found = Search {
            live_pos: Some(&live),
            keep: 1,
            ..Search::new(kb, settings, &bottom, examples)
        }
        .run(&mut memo);
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
        "{name}: {} nodes = {} served + {} partial + {} proved ({}); {} evicted, {} not stored; \
         proofs ran {} of {} charged search steps; peak {} B of {} B",
        s.served + s.partial + s.proved,
        s.served,
        s.partial,
        s.proved,
        packed(s),
        s.evicted,
        s.unstored,
        s.steps_run,
        search_steps,
        s.peak_bytes,
        memo.budget()
    );
    assert!(
        s.steps_run <= steps_run_ceiling,
        "{name}: proofs ran {} steps, the ceiling is {steps_run_ceiling}",
        s.steps_run
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn carcinogenesis_stays_within_budget() {
    let ds = p2mdie::datasets::carcinogenesis(0.3, 2005);
    covering_loop_stays_within_budget("carcinogenesis(0.3, 2005)", &ds, 7_485_847);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn mesh_stays_within_budget() {
    let ds = p2mdie::datasets::mesh(1.0, 2005);
    covering_loop_stays_within_budget("mesh(1.0, 2005)", &ds, 1_870_468);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn pyrimidines_stays_within_budget() {
    let ds = p2mdie::datasets::pyrimidines(1.0, 2005);
    covering_loop_stays_within_budget("pyrimidines(1.0, 2005)", &ds, 29_188_772);
}

/// How many proved nodes query packs answered, their mean size, and the
/// extra-literal calls of the packs that the searches' call tables
/// answered, with the steps charged for them without running them.
fn packed(s: MemoStats) -> String {
    let mean = s.packed as f64 / s.packs.max(1) as f64;
    format!(
        "{} of them in {} query packs, {mean:.2} a pack, {} extra-literal calls tabled for {} \
         steps",
        s.packed, s.packs, s.tabled, s.tabled_steps
    )
}

/// A named entry of a rank's metrics snapshot, as a number.
fn metric(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    let entry = snapshot.entries.iter().find(|e| e.name == name);
    match entry.map(|e| &e.value) {
        Some(MetricValue::Counter(n)) => *n as f64,
        Some(MetricValue::Gauge(x)) => *x,
        other => panic!("{name}: {other:?}"),
    }
}

/// The budget as `worker_memo_bytes` is held to it.
const BUDGET: f64 = 128.0 * 1024.0;

/// The ranks of a mesh: the benchmark's `mesh-pipe-p2-tcp` learn as one job
/// of an in-process resident service. With every set stored dense the two
/// ranks ran 3 199 539 steps, and 2 360 785 once half as many records again
/// fit: the ceiling is on the far side of that cliff.
#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn mesh_ranks_stay_within_budget() {
    let ds = p2mdie::datasets::mesh(1.0, 2005);
    let service = Service::new(&ds.engine, ServiceConfig::new(2));
    let spec = JobSpec::learn(ds.examples.clone())
        .with_width(Width::Limit(10))
        .with_seed(2005);
    let done = service.submit(spec).expect("an empty queue").wait();
    assert_eq!(done.state, JobState::Done, "{:?}", done.error);
    let charged: u64 = done.accounting.worker_steps.iter().sum();
    let ranks = service.metrics().expect("an idle service");
    service.shutdown().expect("a clean lifetime");
    for (rank, snapshot) in ranks.iter().enumerate() {
        let bytes = metric(snapshot, "worker_memo_bytes");
        assert!(bytes <= BUDGET, "rank {}'s memo holds {bytes} B", rank + 1);
    }
    let sum = |name: &str| ranks.iter().map(|s| metric(s, name)).sum::<f64>() as u64;
    let run = sum("worker_steps_run_total");
    println!(
        "mesh(1.0, 2005) ranks, p = 2, W = 10: {} nodes and rules = {} served + {} partial + \
         {} proved; {} evicted, {} not stored; {} records in {} B; proofs ran {run} of {charged} \
         charged steps",
        sum("worker_memo_served_total")
            + sum("worker_memo_partial_total")
            + sum("worker_memo_proved_total"),
        sum("worker_memo_served_total"),
        sum("worker_memo_partial_total"),
        sum("worker_memo_proved_total"),
        sum("worker_memo_evicted_total"),
        sum("worker_memo_unstored_total"),
        sum("worker_memo_records"),
        sum("worker_memo_bytes"),
    );
    assert!(
        run <= 2_212_645,
        "the mesh ranks' proofs ran {run} steps, the ceiling is 2212645"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn a_resident_rank_stays_within_budget_and_proves_each_rule_once() {
    let ds = p2mdie::datasets::pyrimidines(1.0, 2005);
    let learnt = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(2, Width::Limit(10), 2005),
    )
    .expect("the reference learn");
    let rules = learnt.clauses();
    let direct: Vec<(u32, u32)> = rules
        .iter()
        .map(|r| {
            let cov = ds.engine.evaluate(r, &ds.examples, None, None);
            (cov.pos_count(), cov.neg_count())
        })
        .collect();

    let service = Service::new(&ds.engine, ServiceConfig::new(2));
    let (mut charged, mut first_pass) = (0u64, 0u64);
    for i in 0..100 {
        let picked = 1 + i % rules.len();
        let spec = JobSpec::coverage(ds.examples.clone(), rules[..picked].to_vec());
        let done = service.submit(spec).expect("an empty queue").wait();
        assert_eq!(done.state, JobState::Done, "job {i}: {:?}", done.error);
        assert_eq!(done.coverage(), &direct[..picked], "job {i}");
        let steps: u64 = done.accounting.worker_steps.iter().sum();
        charged += steps;
        if i + 1 == rules.len() {
            // Job `rules.len() - 1` is the first to ask about every rule.
            first_pass = steps;
        }
        for (rank, snapshot) in service
            .metrics()
            .expect("an idle service")
            .iter()
            .enumerate()
        {
            let bytes = metric(snapshot, "worker_memo_bytes");
            assert!(
                bytes <= BUDGET,
                "job {i}: rank {}'s memo holds {bytes} B",
                rank + 1
            );
        }
    }
    let last = service.metrics().expect("an idle service");
    let sum = |name: &str| last.iter().map(|s| metric(s, name)).sum::<f64>() as u64;
    let (run, served) = (
        sum("worker_steps_run_total"),
        sum("worker_memo_served_total"),
    );
    service.shutdown().expect("a clean lifetime");
    println!(
        "pyrimidines(1.0, 2005) resident, p = 2: 100 jobs over {} rules charged {charged} steps; \
         proofs ran {run} (one pass over every rule charges {first_pass}); {served} rules served",
        rules.len()
    );
    // Every rule is proved once on every example; `LoadExamples` is charged
    // per job and proves nothing.
    assert!(
        run <= first_pass,
        "{run} steps run, one pass is {first_pass}"
    );
}
