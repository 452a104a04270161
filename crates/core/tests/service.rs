//! Differential tests for the resident ILP service: whatever mix of jobs
//! is multiplexed over one standing mesh, and in whatever order they are
//! submitted, every job's result must be bit-identical to running that job
//! alone on a fresh one-shot mesh. This is the service's core promise — a
//! job's accepted rules leave the resident KB with the job, so no job can
//! observe another's, queue order cannot leak into results, and the resident
//! fast path (KB shipped once, examples shipped when they change, the memo
//! kept) changes *where* work runs and how much is proved, but never *what*
//! is computed. `resident_history.rs` holds the same promise against what a
//! rank keeps between jobs.

use p2mdie_core::driver::{run_parallel, ParallelConfig};
use p2mdie_core::job::{JobOutcome, JobSpec, JobState};
use p2mdie_core::scheduler::{Service, ServiceConfig};
use p2mdie_ilp::settings::Width;
use proptest::collection;
use proptest::prelude::*;

const WORKERS: usize = 2;
const WIDTH: Width = Width::Limit(10);

/// What one job in the randomized mix is.
#[derive(Clone, Debug)]
enum Plan {
    /// A full learning run with this partition seed.
    Learn { seed: u64 },
    /// A coverage query over the theory a reference run learned.
    Coverage,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    prop_oneof![
        (0u64..6).prop_map(|seed| Plan::Learn { seed }),
        Just(Plan::Coverage),
    ]
}

/// The solo (fresh one-shot mesh) result a service-run learn job must
/// reproduce bit for bit.
fn solo_learn(ds: &p2mdie_datasets::Dataset, seed: u64) -> p2mdie_core::report::ParallelReport {
    run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(WORKERS, WIDTH, seed),
    )
    .unwrap()
}

fn check_against_solo(ds: &p2mdie_datasets::Dataset, plan: &Plan, outcome: &JobOutcome) {
    assert_eq!(
        outcome.state,
        JobState::Done,
        "{}: job failed: {:?}",
        outcome.id,
        outcome.error
    );
    match plan {
        Plan::Learn { seed } => {
            let solo = solo_learn(ds, *seed);
            let learned = outcome.learned();
            assert_eq!(
                learned.theory, solo.theory,
                "seed {seed}: multiplexed learn drifted from the solo run"
            );
            assert_eq!(learned.epochs, solo.epochs, "seed {seed}: epochs drifted");
            assert_eq!(
                learned.set_aside, solo.set_aside,
                "seed {seed}: set-aside drifted"
            );
            assert_eq!(
                outcome.accounting.worker_steps, solo.worker_steps,
                "seed {seed}: per-job worker steps drifted from the fresh mesh"
            );
        }
        Plan::Coverage => {
            let solo = solo_learn(ds, 5);
            for (rule, counts) in solo.clauses().iter().zip(outcome.coverage()) {
                let cov = ds.engine.evaluate(rule, &ds.examples, None, None);
                assert_eq!(
                    (cov.pos_count(), cov.neg_count()),
                    *counts,
                    "coverage query drifted from direct global evaluation"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N jobs of mixed kinds, submitted in a random interleaving to one
    /// resident service, are each bit-identical to the same job alone on a
    /// fresh one-shot mesh.
    #[test]
    fn interleaved_jobs_match_solo_one_shot_runs(
        plans in collection::vec(plan_strategy(), 2..6),
        submit_order in collection::vec(0usize..64, 6),
    ) {
        let ds = p2mdie_datasets::trains(12, 5);
        let query_rules = solo_learn(&ds, 5).clauses();
        prop_assume!(!query_rules.is_empty());

        // Randomize the submission interleaving: sort the plans by the
        // generated keys (stable sort keeps equal keys deterministic).
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by_key(|&i| submit_order.get(i).copied().unwrap_or(0));

        let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));
        let mut handles = Vec::new();
        for &i in &order {
            let spec = match &plans[i] {
                Plan::Learn { seed } => {
                    JobSpec::learn(ds.examples.clone()).with_seed(*seed).with_width(WIDTH)
                }
                Plan::Coverage => {
                    JobSpec::coverage(ds.examples.clone(), query_rules.clone())
                }
            };
            handles.push((i, service.submit(spec).expect("queue_cap default fits the mix")));
        }
        for (i, handle) in handles {
            let outcome = handle.wait();
            check_against_solo(&ds, &plans[i], &outcome);
        }
        let report = service.shutdown().unwrap();
        prop_assert_eq!(report.jobs_run as usize, plans.len());
        prop_assert_eq!(report.dropped_sends, 0);
    }
}

/// The same mix twice over one service: later jobs run on the pristine
/// resident KB, not on a KB contaminated by earlier jobs' accepted rules.
#[test]
fn repeated_jobs_on_one_service_stay_identical() {
    let ds = p2mdie_datasets::trains(12, 5);
    let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));
    let first = service
        .submit(
            JobSpec::learn(ds.examples.clone())
                .with_seed(3)
                .with_width(WIDTH),
        )
        .unwrap()
        .wait();
    let second = service
        .submit(
            JobSpec::learn(ds.examples.clone())
                .with_seed(3)
                .with_width(WIDTH),
        )
        .unwrap()
        .wait();
    assert_eq!(first.state, JobState::Done);
    assert_eq!(second.state, JobState::Done);
    assert_eq!(
        first.learned().theory,
        second.learned().theory,
        "an earlier job's MarkCovered asserts leaked into the resident KB"
    );
    assert_eq!(
        first.accounting.worker_steps,
        second.accounting.worker_steps
    );
    service.shutdown().unwrap();
}

/// One resident mesh multiplexes learning jobs of every strategy
/// ([`JobSpec::with_strategy`]): each job is its one-shot `run_parallel`
/// twin — theory, epochs, per-rank steps — whatever strategy the job before
/// it ran, the replicated example set of a `search-partition` job is a
/// kept set too (the second of two in a row ships none of it), and the
/// service then shuts down cleanly.
#[test]
fn jobs_of_either_strategy_share_one_resident_mesh() {
    use p2mdie_core::Strategy::{DataPipeline, Redeal, SearchPartition};
    let sequence = [
        DataPipeline,
        SearchPartition,
        DataPipeline,
        SearchPartition,
        SearchPartition,
        Redeal,
        DataPipeline,
        Redeal,
        Redeal,
        SearchPartition,
    ];
    for ds in [
        p2mdie_datasets::trains(12, 5),
        p2mdie_datasets::mesh(0.2, 9),
    ] {
        let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));
        let mut bytes = Vec::new();
        for (at, strategy) in sequence.into_iter().enumerate() {
            let what = format!("{}, job {at} ({strategy})", ds.name);
            let spec = JobSpec::learn(ds.examples.clone())
                .with_seed(3)
                .with_width(WIDTH)
                .with_strategy(strategy);
            let outcome = service.submit(spec).unwrap().wait();
            assert_eq!(outcome.state, JobState::Done, "{what}: {:?}", outcome.error);
            let solo = run_parallel(
                &ds.engine,
                &ds.examples,
                &ParallelConfig::new(WORKERS, WIDTH, 3).with_strategy(strategy),
            )
            .unwrap();
            let learned = outcome.learned();
            assert_eq!(learned.theory, solo.theory, "{what}: theory");
            assert_eq!(learned.epochs, solo.epochs, "{what}: epochs");
            assert_eq!(
                outcome.accounting.worker_steps, solo.worker_steps,
                "{what}: per-rank steps"
            );
            bytes.push(outcome.accounting.bytes);
        }
        assert!(
            bytes[4] < bytes[3],
            "{}: a search-partition job right after another moved {} B, the first {} B",
            ds.name,
            bytes[4],
            bytes[3]
        );
        service
            .shutdown()
            .expect("a clean shutdown after every strategy");
    }
}

/// What a rank keeps is recognised by the set it was dealt from, in bytes:
/// after a first coverage job ships every rank its subset, a job on a
/// clone of the set ships none, nor does one on a value-equal set in
/// another allocation; the same set dealt with another seed ships every
/// rank again — as many bytes as the first job — and a repeat of that
/// ships none. Every answer stays the direct evaluation's.
#[test]
fn a_kept_set_is_recognised_by_the_set_it_was_dealt_from() {
    use p2mdie_ilp::examples::Examples;
    let ds = p2mdie_datasets::trains(12, 5);
    let ex = &ds.examples;
    let rules = solo_learn(&ds, 5).clauses();
    let direct: Vec<(u32, u32)> = rules
        .iter()
        .map(|rule| {
            let cov = ds.engine.evaluate(rule, ex, None, None);
            (cov.pos_count(), cov.neg_count())
        })
        .collect();
    let rebuilt = Examples::new(ex.pos.to_vec(), ex.neg.to_vec());
    assert!(!rebuilt.pos.shares(&ex.pos) && !rebuilt.neg.shares(&ex.neg));

    let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));
    let bytes = |examples: Examples, seed| {
        let spec = JobSpec::coverage(examples, rules.clone()).with_seed(seed);
        let outcome = service.submit(spec).unwrap().wait();
        assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
        assert_eq!(outcome.coverage(), direct, "seed {seed}");
        outcome.accounting.bytes
    };
    let first = bytes(ex.clone(), 3);
    let held = bytes(ex.clone(), 3);
    assert!(
        held < first,
        "a clone of the kept set moved {held} B, the first job {first} B"
    );
    assert_eq!(
        bytes(rebuilt, 3),
        held,
        "an equal set in another allocation shipped"
    );
    assert_eq!(
        bytes(ex.clone(), 4),
        first,
        "another seed must ship every rank"
    );
    assert_eq!(bytes(ex.clone(), 4), held, "the new deal is the kept one");
    service.shutdown().unwrap();
}

/// A baseline-learn job over the service matches the standalone
/// coverage-parallel baseline (same partition seed, same granularity):
/// the whole outcome, each rule's coverage counts included.
#[test]
fn baseline_job_matches_the_standalone_baseline() {
    use p2mdie_core::baselines::{run_coverage_parallel, EvalGranularity};

    let ds = p2mdie_datasets::trains(12, 5);
    let cfg = ParallelConfig::new(WORKERS, Width::Unlimited, 5);
    let solo =
        run_coverage_parallel(&ds.engine, &ds.examples, &cfg, EvalGranularity::PerLevel).unwrap();

    let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));
    let outcome = service
        .submit(JobSpec::baseline(ds.examples.clone(), EvalGranularity::PerLevel).with_seed(5))
        .unwrap()
        .wait();
    assert_eq!(outcome.state, JobState::Done);
    let out = outcome.learned();
    assert!(!solo.theory.is_empty());
    assert_eq!(out.theory, solo.theory);
    assert_eq!(out.epochs, solo.epochs);
    assert_eq!(out.set_aside, solo.set_aside);
    assert!(out.traces.is_empty() && !out.stalled && out.rank_losses.is_empty());
    service.shutdown().unwrap();
}

/// A strategy is for learning runs only: a coverage query, a rule search
/// and a baseline run each return under `Redeal` and under
/// `SearchPartition` what the same spec returns under the default, on one
/// service, which then shuts down cleanly.
#[test]
fn strategy_is_ignored_by_every_kind_but_learn() {
    use p2mdie_core::baselines::EvalGranularity;
    use p2mdie_core::Strategy::{Redeal, SearchPartition};

    let ds = p2mdie_datasets::trains(12, 5);
    let rules = solo_learn(&ds, 5).clauses();
    let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));
    let specs = [
        JobSpec::coverage(ds.examples.clone(), rules),
        JobSpec::rule_search(ds.examples.clone()).with_width(WIDTH),
        JobSpec::baseline(ds.examples.clone(), EvalGranularity::PerLevel),
    ];
    for spec in specs {
        let spec = spec.with_seed(5);
        let kind = spec.kind.tag();
        let output = |spec: JobSpec| {
            let outcome = service.submit(spec).unwrap().wait();
            assert_eq!(outcome.state, JobState::Done, "{kind}: {:?}", outcome.error);
            format!("{:?}", outcome.output)
        };
        let plain = output(spec.clone());
        for strategy in [Redeal, SearchPartition] {
            let other = output(spec.clone().with_strategy(strategy));
            assert_eq!(other, plain, "{kind} under {strategy}");
        }
    }
    service.shutdown().unwrap();
}

/// Cancelling a job once it is already `Running` is advisory: the job
/// still reaches a legal terminal state (`Done` when the cancel lost the
/// race to the refill loop, `Failed` when it won), the late cancel — whose
/// mark the scheduler consumes without telling the workers anything —
/// never wedges the refill loop, and the mesh keeps serving later jobs
/// bit-identically.
#[test]
fn cancel_after_running_leaves_legal_state_and_does_not_wedge() {
    let ds = p2mdie_datasets::trains(12, 5);
    let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));

    let first = service
        .submit(
            JobSpec::learn(ds.examples.clone())
                .with_seed(3)
                .with_width(WIDTH),
        )
        .unwrap();
    // Give the refill loop time to dequeue and dispatch, then cancel
    // mid-run. The cancel is advisory, so whichever way the race goes the
    // outcome must be legal — and no hang.
    std::thread::sleep(std::time::Duration::from_millis(20));
    first.cancel();
    let outcome = first.wait();
    match outcome.state {
        JobState::Done => {
            // Too late to stop: the job ran to completion and its result
            // is exactly the uncancelled one.
            assert_eq!(outcome.learned().theory, solo_learn(&ds, 3).theory);
        }
        JobState::Failed => {
            assert_eq!(
                outcome.error.as_deref(),
                Some("cancelled before dispatch"),
                "a cancelled job must fail with the queue-cancel reason"
            );
            assert!(outcome.output.is_none());
        }
    }

    // The refill loop must not be wedged by the late cancel: a
    // subsequent job runs to completion and matches its solo run.
    let second = service
        .submit(
            JobSpec::learn(ds.examples.clone())
                .with_seed(4)
                .with_width(WIDTH),
        )
        .unwrap()
        .wait();
    assert_eq!(second.state, JobState::Done);
    assert_eq!(second.learned().theory, solo_learn(&ds, 4).theory);

    let report = service.shutdown().unwrap();
    assert_eq!(
        report.dropped_sends, 0,
        "every frame of the lifetime must have been deliverable"
    );
}

/// Live introspection over the wire (protocol v6): `Service::metrics()`
/// pulls one snapshot per resident worker while the mesh is idle, and the
/// per-worker inference-step counters must move by exactly the deltas the
/// job's own accounting reports — the two views are one measurement.
#[test]
fn service_metrics_snapshots_agree_with_job_accounting() {
    use p2mdie_obs::{MetricValue, MetricsSnapshot};

    fn steps(snaps: &[MetricsSnapshot]) -> Vec<u64> {
        snaps
            .iter()
            .map(|s| {
                s.entries
                    .iter()
                    .find_map(|e| match (e.name.as_str(), &e.value) {
                        ("worker_inference_steps_total", MetricValue::Counter(n)) => Some(*n),
                        _ => None,
                    })
                    .expect("every worker snapshot carries worker_inference_steps_total")
            })
            .collect()
    }

    let ds = p2mdie_datasets::trains(12, 5);
    let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));

    let idle = service.metrics().unwrap();
    assert_eq!(idle.len(), WORKERS, "one snapshot per resident worker");
    let before = steps(&idle);

    let outcome = service
        .submit(
            JobSpec::learn(ds.examples.clone())
                .with_seed(3)
                .with_width(WIDTH),
        )
        .unwrap()
        .wait();
    assert_eq!(outcome.state, JobState::Done);

    let after = steps(&service.metrics().unwrap());
    let deltas: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(
        deltas, outcome.accounting.worker_steps,
        "wire snapshots drifted from the job's accounting deltas"
    );

    let report = service.shutdown().unwrap();
    assert_eq!(
        report.worker_metrics.len(),
        WORKERS,
        "shutdown must dump a final snapshot per worker"
    );
}
