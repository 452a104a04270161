//! End-to-end integration tests: the full stack (datasets → ILP engine →
//! cluster → p²-mdie → evaluation) exercised through the public API.

use p2mdie::cluster::CostModel;
use p2mdie::core::driver::{run_parallel, run_sequential_timed, ParallelConfig};
use p2mdie::eval::{score_theory, stratified_folds};
use p2mdie::ilp::settings::Width;

/// On the noise-free trains problem, both the sequential baseline and
/// p²-mdie at several cluster sizes must induce complete, consistent
/// theories.
#[test]
fn trains_quality_parity_across_p() {
    let ds = p2mdie::datasets::trains(20, 5);
    let seq = run_sequential_timed(&ds.engine, &ds.examples, &CostModel::free());
    let seq_conf = score_theory(&ds.engine, &seq.theory, &ds.examples);
    assert_eq!(seq_conf.fp, 0, "sequential theory must be consistent");
    assert_eq!(seq_conf.fn_, 0, "sequential theory must be complete");

    for p in [1, 2, 3, 5] {
        let rep = run_parallel(
            &ds.engine,
            &ds.examples,
            &ParallelConfig::new(p, Width::Limit(10), 5),
        )
        .unwrap();
        assert!(!rep.stalled);
        let conf = score_theory(&ds.engine, &rep.clauses(), &ds.examples);
        assert_eq!(conf.fp, 0, "p={p}: parallel theory must be consistent");
        assert_eq!(conf.fn_, 0, "p={p}: parallel theory must be complete");
    }
}

/// Fixed seeds make whole cluster runs bit-for-bit reproducible: same
/// theory, same epochs, same traffic, same virtual time.
#[test]
fn full_runs_are_deterministic() {
    let ds = p2mdie::datasets::carcinogenesis(0.12, 9);
    let cfg = ParallelConfig::new(4, Width::Limit(10), 9);
    let a = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
    let b = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
    assert_eq!(a.clauses(), b.clauses());
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.total_messages, b.total_messages);
    assert!((a.vtime - b.vtime).abs() < 1e-12);
    assert_eq!(a.worker_steps, b.worker_steps);
}

/// The traffic matrix must be internally consistent: link sums equal the
/// grand totals reported on the run.
#[test]
fn traffic_accounting_is_consistent() {
    let ds = p2mdie::datasets::family(5, 3);
    let cfg = ParallelConfig::new(3, Width::Unlimited, 3);
    let rep = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
    assert!(rep.total_bytes > 0);
    assert!(rep.total_messages > 0);
    assert!((rep.megabytes() - rep.total_bytes as f64 / 1e6).abs() < 1e-12);
    // Pipelines imply worker->worker traffic, the bag implies
    // master<->worker traffic; all must be present at p >= 2.
    assert!(
        rep.total_messages >= (3 * rep.epochs as u64),
        "at least one message per pipeline"
    );
}

/// More workers must not increase the epoch count (the paper's Table 5
/// trend: several rules are consumed per epoch, so epochs shrink).
#[test]
fn epochs_do_not_grow_with_p() {
    let ds = p2mdie::datasets::mesh(0.04, 11);
    let e2 = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(2, Width::Limit(10), 11),
    )
    .unwrap()
    .epochs;
    let e8 = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(8, Width::Limit(10), 11),
    )
    .unwrap()
    .epochs;
    assert!(e8 <= e2, "epochs at p=8 ({e8}) must not exceed p=2 ({e2})");
}

/// A zero-width pipeline forwards no rules at all; the run must still
/// terminate (every seed is eventually retired) with an empty theory.
#[test]
fn zero_width_pipeline_terminates_empty() {
    let ds = p2mdie::datasets::trains(10, 5);
    let rep = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(2, Width::Limit(0), 5),
    )
    .unwrap();
    assert!(rep.theory.is_empty());
    assert_eq!(
        rep.set_aside as usize,
        ds.examples.num_pos(),
        "every positive is set aside"
    );
    assert!(!rep.stalled);
}

/// More workers than positive examples: some partitions are empty and no
/// worker holds the `min_pos = 2` examples a locally-good rule needs, so
/// nothing can be learned — but the protocol's empty tokens keep the
/// schedule static and the run terminates cleanly (every seed retired).
/// This degenerate regime is inherent to p²-mdie's local goodness test;
/// the paper's datasets are always far larger than `p`.
#[test]
fn more_workers_than_examples_terminates_cleanly() {
    let ds = p2mdie::datasets::trains(8, 5); // 4 positive examples
    assert!(ds.examples.num_pos() < 6);
    let rep = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(6, Width::Limit(10), 1),
    )
    .unwrap();
    assert!(!rep.stalled);
    assert_eq!(
        rep.set_aside as usize + count_covered(&ds, &rep),
        ds.examples.num_pos()
    );

    // With enough examples per worker, the same cluster size learns fine.
    let ds = p2mdie::datasets::trains(60, 5); // 30 positive examples
    let rep = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(6, Width::Limit(10), 1),
    )
    .unwrap();
    let conf = score_theory(&ds.engine, &rep.clauses(), &ds.examples);
    assert_eq!(conf.fn_, 0, "all positives covered");
}

fn count_covered(
    ds: &p2mdie::datasets::Dataset,
    rep: &p2mdie::core::report::ParallelReport,
) -> usize {
    score_theory(&ds.engine, &rep.clauses(), &ds.examples).tp
}

/// Held-out accuracy of p²-mdie stays in the same band as the sequential
/// baseline (the paper's Table 6 claim), on a noisy dataset.
#[test]
fn parallel_accuracy_tracks_sequential() {
    let ds = p2mdie::datasets::pyrimidines(0.1, 13);
    let folds = stratified_folds(&ds.examples, 3, 13);
    let mut seq_accs = Vec::new();
    let mut par_accs = Vec::new();
    for fold in &folds {
        let seq = run_sequential_timed(&ds.engine, &fold.train, &CostModel::free());
        seq_accs.push(score_theory(&ds.engine, &seq.theory, &fold.test).accuracy_pct());
        let rep = run_parallel(
            &ds.engine,
            &fold.train,
            &ParallelConfig::new(4, Width::Limit(10), 13),
        )
        .unwrap();
        par_accs.push(score_theory(&ds.engine, &rep.clauses(), &fold.test).accuracy_pct());
    }
    let seq_mean = p2mdie::eval::mean(&seq_accs);
    let par_mean = p2mdie::eval::mean(&par_accs);
    assert!(
        (seq_mean - par_mean).abs() < 15.0,
        "accuracy drifted: sequential {seq_mean:.1}% vs parallel {par_mean:.1}%"
    );
}

/// Speedup sanity on a compute-heavy problem: virtual time at p=4 must
/// beat p=1 (the weakest form of the paper's Table 2 claim).
#[test]
fn parallel_virtual_time_beats_sequential() {
    let ds = p2mdie::datasets::carcinogenesis(0.2, 7);
    let model = CostModel::beowulf_2005();
    let seq = run_sequential_timed(&ds.engine, &ds.examples, &model);
    let rep = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig {
            workers: 4,
            width: Width::Limit(10),
            model,
            seed: 7,
            ship_kb: false,
            transport: p2mdie::core::TransportKind::InProcess,
            recovery: p2mdie::core::RecoveryPolicy::Abort,
            chaos: Vec::new(),
            strategy: p2mdie::core::Strategy::DataPipeline,
        },
    )
    .unwrap();
    assert!(
        rep.vtime < seq.vtime,
        "T(4) = {:.1}s should beat T(1) = {:.1}s",
        rep.vtime,
        seq.vtime
    );
}

/// The master's virtual clock is the run's makespan: every worker's final
/// clock sits within one message delay of it (workers stop right after the
/// master's final `Stop` broadcast reaches them).
#[test]
fn master_vtime_is_a_valid_makespan() {
    let ds = p2mdie::datasets::family(4, 2);
    let rep = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(3, Width::Limit(5), 2),
    )
    .unwrap();
    for (w, t) in rep.worker_vtimes.iter().enumerate() {
        assert!(*t > 0.0, "worker {} did no timed work", w + 1);
        assert!(
            (*t - rep.vtime).abs() < 1e-2,
            "worker {} clock {t} far from master makespan {}",
            w + 1,
            rep.vtime
        );
    }
}

/// A clause off the wire may name any variable id. Coverage renumbers it
/// densely before it sizes a binding store, so `Var(100_000_000)` costs what
/// `B` costs (it used to allocate 2.35 GB per evaluation) and
/// `Var(u32::MAX)` no longer overflows the clause's span — directly and in
/// a coverage job on the ranks of a resident service alike.
#[test]
fn sparse_variable_ids_cost_what_dense_ones_do() {
    use p2mdie::core::{JobSpec, JobState, Service, ServiceConfig};
    use p2mdie::ilp::evaluate_rule;
    use p2mdie::logic::clause::{Clause, Literal};
    use p2mdie::logic::term::Term;
    use std::time::{Duration, Instant};

    let ds = p2mdie::datasets::trains(4, 1);
    let (kb, proof) = (&ds.engine.kb, ds.engine.settings.proof);
    let syms = kb.symbols();
    let rule = |v: u32| {
        Clause::new(
            Literal::new(syms.intern("eastbound"), vec![Term::Var(0)]),
            vec![Literal::new(
                syms.intern("has_car"),
                vec![Term::Var(0), Term::Var(v)],
            )],
        )
    };
    let dense = evaluate_rule(kb, proof, &rule(1), &ds.examples, None, None);
    assert!(dense.pos_count() > 0 && dense.steps > 0);
    let service = Service::new(&ds.engine, ServiceConfig::new(2));
    let job = |v: u32| {
        let done = service
            .submit(JobSpec::coverage(ds.examples.clone(), vec![rule(v)]))
            .expect("an empty queue")
            .wait();
        assert_eq!(done.state, JobState::Done, "{:?}", done.error);
        (done.coverage().to_vec(), done.accounting.worker_steps)
    };
    let dense_job = job(1);
    for v in [100_000_000, u32::MAX] {
        let started = Instant::now();
        let sparse = evaluate_rule(kb, proof, &rule(v), &ds.examples, None, None);
        let took = started.elapsed();
        assert_eq!(sparse, dense, "Var({v})");
        assert!(took < Duration::from_millis(500), "Var({v}) took {took:?}");
        assert_eq!(job(v), dense_job, "Var({v}) in a coverage job");
    }
    service.shutdown().expect("a clean lifetime");
}
