//! Golden accounting pin: the step/vtime contract as numbers, not replicas.
//!
//! Every optimisation in this tree follows one convention — skip the work,
//! keep the fuel: inference steps are charged as if the naive algorithm had
//! run, so virtual time, the paper's tables and the traffic volumes never
//! move when wall time does. This test holds that contract for whole runs.
//! A change that moves any of these numbers changed what the reproduction
//! computes, not just how fast.
//!
//! Three recordings:
//!
//! * the sequential baseline and an in-process p = 2, W = 10 pipeline on a
//!   small carcinogenesis input, recorded at commit 7e9926a (before the
//!   search's variant memo);
//! * `golden/{trains,mesh}_accounting.txt`, one line per configuration of
//!   every way `crates/core` can run a job — the default path (on trains
//!   over workers × seed × width), re-dealing (the `repartition` rows,
//!   `Strategy::Redeal`), fault-free recovery,
//!   the search-partition strategy, the coverage-parallel baseline and one
//!   job of each kind on a resident service — recorded at commit 0e178e7,
//!   while each mode still had a master loop of its own. `trains(12, 5)`
//!   is learnt in one epoch; `mesh(0.05, 9)` takes 7 to 13 epochs with
//!   several rules per epoch and set-aside seeds, so it also walks the bag
//!   consumption and seed-retirement rounds. These lines are the
//!   *contract* the single epoch driver is held to: theory with coverage
//!   counts, epochs, set-aside, per-rank steps, bytes, messages and the
//!   master's virtual clock, bit for bit. The four service rows of each
//!   file were re-recorded once, with protocol v9: their results, steps and
//!   message counts are the first recording's; `bytes` and `vtime` are
//!   those of a service whose ranks keep their examples — the first job
//!   ships them (two bytes more than under v8: one option tag per rank),
//!   the three after it, on the same examples, ship none.
//! * `golden/bench_inputs.txt`, the same line for the inputs `bench_e2e`
//!   times — carcinogenesis(0.3), mesh(1.0) and pyrimidines(1.0) at seed
//!   2005, sequentially and at p ∈ {2, 4} × W ∈ {10, nolimit} — recorded at
//!   commit fadaf9f, before the binding store carried arena ids. Release
//!   builds only.
//!
//! Every in-process one-shot row — the pipelined p = 2 pin above, and 44
//! of the 55 lines of the three files — was re-recorded once, in `vtime`
//! only, on top of commit bec9139, when one-shot runs became jobs on
//! resident workers: each rank's job-control frames (then four:
//! `SubmitJob`, its acknowledgement, `JobResult` and the idle `Stop`) are
//! now charged on the model clock, as they already were over TCP. They stay
//! out of `bytes` and `msgs`, so no theory, count, step, byte or message
//! moved, and the sequential and service lines did not move at all.
//!
//! Every parallel row — the pipelined p = 2 pin and the 52 parallel lines
//! of the three files — was re-recorded once more with protocol v13, when
//! a submission stopped being acknowledged: each job saves the round trip
//! of that acknowledgement, and a coverage or rule-search job a second one,
//! because its `Stop` goes out before its counts come back. Only `vtime`
//! fell on the one-shot rows (by 0.26–0.33 ms). A service row's `bytes`
//! and `msgs` count every frame the job put on the mesh, its job control
//! included, so the four service rows of each file also lost one 11-byte
//! frame per rank (22 bytes, 2 messages). No theory, count, epoch,
//! set-aside or step moved, nor any `ParallelReport` total (Table 4's).
//!
//! The `recovery static` and `recovery repartition` rows of the two
//! `*_accounting.txt` files were re-recorded once, with protocol v12, when
//! a job's role began to say whether it recovers: each lost the p one-byte
//! frames that had armed recovery, so p messages, p bytes and the clock
//! they cost. Theory, epochs, set-aside and steps did not move, and each
//! `recovery repartition` row now equals its `repartition` row.

use p2mdie::cluster::CostModel;
use p2mdie::core::baselines::{run_coverage_parallel, EvalGranularity};
use p2mdie::core::driver::{run_parallel, run_sequential_timed, ParallelConfig, RecoveryPolicy};
use p2mdie::core::job::{JobKind, JobOutput, JobSpec, JobState};
use p2mdie::core::master::AcceptedRule;
use p2mdie::core::report::ParallelReport;
use p2mdie::core::scheduler::{Service, ServiceConfig};
use p2mdie::core::Strategy;
use p2mdie::datasets::Dataset;
use p2mdie::ilp::settings::Width;
use p2mdie::logic::clause::Clause;
use p2mdie::logic::symbol::SymbolTable;

const SCALE: f64 = 0.12;
const SEED: u64 = 9;

fn theory_text(theory: &[Clause], syms: &SymbolTable) -> Vec<String> {
    theory.iter().map(|c| c.display(syms).to_string()).collect()
}

#[test]
fn sequential_run_matches_recorded_accounting() {
    let ds = p2mdie::datasets::carcinogenesis(SCALE, SEED);
    let rep = run_sequential_timed(&ds.engine, &ds.examples, &CostModel::default());
    assert_eq!(
        theory_text(&rep.theory, ds.engine.kb.symbols()),
        [
            "active(A) :- atm(A,R,cl,S), bond(A,L,N,3).",
            "active(A) :- atm(A,D,o,E), bond(A,F,H,2), lteq_chg(E,-0.5).",
            "active(A) :- atm(A,B,n,C), gteq_chg(C,0.25), lteq_chg(C,0.5).",
        ]
    );
    assert_eq!(rep.epochs, 6);
    assert_eq!(rep.set_aside, 3);
    assert_eq!(rep.steps, 5_795_725);
    assert!((rep.vtime - 231.829).abs() < 1e-9, "vtime {}", rep.vtime);
}

#[test]
fn pipelined_p2_run_matches_recorded_accounting() {
    let ds = p2mdie::datasets::carcinogenesis(SCALE, SEED);
    let cfg = ParallelConfig::new(2, Width::Limit(10), SEED);
    let rep = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
    assert_eq!(
        theory_text(&rep.clauses(), ds.engine.kb.symbols()),
        [
            "active(A) :- atm(A,B,h,C), atm(A,P,n,Q), gteq_chg(Q,0.25).",
            "active(A) :- atm(A,J,o,K), lteq_chg(K,-0.5).",
        ]
    );
    assert_eq!(rep.epochs, 4);
    assert_eq!(rep.set_aside, 5);
    assert_eq!(rep.worker_steps, [1_758_978, 2_692_678]);
    assert_eq!(rep.total_bytes, 28_423);
    assert_eq!(rep.total_messages, 64);
    assert_eq!(rep.dropped_sends, 0);
    assert!(
        (rep.vtime - 128.728_314_400_000_3).abs() < 1e-9,
        "vtime {}",
        rep.vtime
    );
}

/// Accepted rules with the global cover they were accepted on.
fn accepted_text(theory: &[AcceptedRule], syms: &SymbolTable) -> Vec<String> {
    theory
        .iter()
        .map(|r| format!("{} [{}/{}]", r.clause.display(syms), r.pos, r.neg))
        .collect()
}

/// One table line for a learning run. `{:?}` of an `f64` is its shortest
/// round-trip form, so the clock is compared bit for bit.
fn parallel_line(label: &str, rep: &ParallelReport, syms: &SymbolTable) -> String {
    assert!(!rep.stalled && rep.rank_losses.is_empty() && rep.dropped_sends == 0);
    format!(
        "{label} | {:?} | epochs={} set_aside={} steps={:?} bytes={} msgs={} \
         recovery_bytes={} vtime={:?}",
        accepted_text(&rep.theory, syms),
        rep.epochs,
        rep.set_aside,
        rep.worker_steps,
        rep.total_bytes,
        rep.total_messages,
        rep.recovery_bytes,
        rep.vtime
    )
}

/// Every line of a dataset's table, in file order. `grid` lists the
/// `(workers, seed, width)` points of the default path.
fn table_lines(ds: &Dataset, grid: &[(usize, u64, Width)]) -> Vec<String> {
    let syms = ds.engine.kb.symbols();
    let run = |label: &str, cfg: ParallelConfig| {
        let rep = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
        parallel_line(label, &rep, syms)
    };
    let mut lines = Vec::new();

    for &(workers, seed, width) in grid {
        lines.push(run(
            &format!("default p={workers} seed={seed} {width:?}"),
            ParallelConfig::new(workers, width, seed),
        ));
    }

    let base = || ParallelConfig::new(3, Width::Limit(10), 5);
    let healing = RecoveryPolicy::Repartition { max_rank_losses: 1 };
    let redeal = || base().with_strategy(Strategy::Redeal);
    lines.push(run("repartition", redeal()));
    lines.push(run(
        "recovery static",
        base().with_recovery(healing.clone()),
    ));
    lines.push(run("recovery repartition", redeal().with_recovery(healing)));
    lines.push(run(
        "search-partition",
        base().with_strategy(Strategy::SearchPartition),
    ));

    let granularities = [EvalGranularity::PerLevel, EvalGranularity::PerClause];
    for granularity in granularities {
        let cfg = ParallelConfig::new(3, Width::Unlimited, 5);
        let rep = run_coverage_parallel(&ds.engine, &ds.examples, &cfg, granularity).unwrap();
        lines.push(format!(
            "coverage-parallel {granularity:?} | {:?} | epochs={} set_aside={} bytes={} msgs={} \
             vtime={:?}",
            theory_text(&rep.clauses(), syms),
            rep.epochs,
            rep.set_aside,
            rep.total_bytes,
            rep.total_messages,
            rep.vtime
        ));
    }

    let service = Service::new(&ds.engine, ServiceConfig::new(2));
    let examples = || ds.examples.clone();
    let query = run_parallel(&ds.engine, &ds.examples, &base())
        .unwrap()
        .clauses();
    let jobs = [
        ("service rule-search", JobSpec::rule_search(examples())),
        ("service learn", JobSpec::learn(examples())),
        ("service coverage", JobSpec::coverage(examples(), query)),
        (
            "service baseline",
            JobSpec::baseline(examples(), EvalGranularity::PerLevel),
        ),
    ];
    for (label, spec) in jobs {
        // The baseline's line was recorded with its clauses alone.
        let baseline = matches!(spec.kind, JobKind::BaselineLearn { .. });
        let outcome = service
            .submit(spec.with_seed(3).with_width(Width::Limit(10)))
            .unwrap()
            .wait();
        assert_eq!(
            outcome.state,
            JobState::Done,
            "{label}: {:?}",
            outcome.error
        );
        let result = match outcome.output.as_ref().expect("a finished job has output") {
            JobOutput::Rules(rules) => {
                let rules: Vec<String> = rules
                    .iter()
                    .map(|(c, pos, neg)| format!("{} [{pos}/{neg}]", c.display(syms)))
                    .collect();
                format!("{rules:?}")
            }
            JobOutput::Learned(out) => {
                let clauses: Vec<Clause> = out.theory.iter().map(|r| r.clause.clone()).collect();
                let theory = match baseline {
                    true => theory_text(&clauses, syms),
                    false => accepted_text(&out.theory, syms),
                };
                format!(
                    "{theory:?} | epochs={} set_aside={}",
                    out.epochs, out.set_aside
                )
            }
            JobOutput::Coverage(counts) => format!("{counts:?}"),
        };
        let acct = &outcome.accounting;
        lines.push(format!(
            "{label} | {result} | master_steps={} steps={:?} bytes={} msgs={} vtime={:?}",
            acct.master_steps, acct.worker_steps, acct.bytes, acct.messages, acct.vtime
        ));
    }
    service.shutdown().unwrap();
    lines
}

fn assert_table(lines: &[String], golden: &str) {
    let golden: Vec<&str> = golden.lines().collect();
    for (line, want) in lines.iter().zip(&golden) {
        assert_eq!(line, want);
    }
    assert_eq!(lines.len(), golden.len(), "the table lost or gained a row");
}

#[test]
fn every_run_mode_on_trains_matches_recorded_accounting() {
    let mut grid = Vec::new();
    for workers in [1, 2, 3] {
        for seed in [0, 3] {
            for width in [Width::Unlimited, Width::Limit(4), Width::Limit(10)] {
                grid.push((workers, seed, width));
            }
        }
    }
    let lines = table_lines(&p2mdie::datasets::trains(12, 5), &grid);
    assert_table(&lines, include_str!("golden/trains_accounting.txt"));
}

#[test]
fn every_run_mode_on_mesh_matches_recorded_accounting() {
    let grid = [(2, 5, Width::Limit(10)), (3, 5, Width::Unlimited)];
    let lines = table_lines(&p2mdie::datasets::mesh(0.05, 9), &grid);
    assert_table(&lines, include_str!("golden/mesh_accounting.txt"));
}

/// The inputs `bench_e2e` times, at the seed it times them with: each
/// dataset sequentially and in-process at p ∈ {2, 4} × W ∈ {10, nolimit}.
/// A change that only makes the benchmark faster leaves every line of
/// `golden/bench_inputs.txt` as it is. Printed as it runs; about 4 s in a
/// release build, so a debug `cargo test` leaves it ignored.
#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimised; run with --release")]
fn benchmark_inputs_match_recorded_accounting() {
    const BENCH_SEED: u64 = 2005;
    let datasets = [
        (
            "carcinogenesis(0.3)",
            p2mdie::datasets::carcinogenesis(0.3, BENCH_SEED),
        ),
        ("mesh(1.0)", p2mdie::datasets::mesh(1.0, BENCH_SEED)),
        (
            "pyrimidines(1.0)",
            p2mdie::datasets::pyrimidines(1.0, BENCH_SEED),
        ),
    ];
    let mut lines = Vec::new();
    for (name, ds) in &datasets {
        let syms = ds.engine.kb.symbols();
        let rep = run_sequential_timed(&ds.engine, &ds.examples, &CostModel::beowulf_2005());
        lines.push(format!(
            "{name} sequential | {:?} | epochs={} set_aside={} steps={} vtime={:?}",
            theory_text(&rep.theory, syms),
            rep.epochs,
            rep.set_aside,
            rep.steps,
            rep.vtime
        ));
        println!("{}", lines.last().unwrap());
        for workers in [2, 4] {
            for width in [Width::Limit(10), Width::Unlimited] {
                let cfg = ParallelConfig::new(workers, width, BENCH_SEED);
                let rep = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
                lines.push(parallel_line(
                    &format!("{name} p={workers} {width:?}"),
                    &rep,
                    syms,
                ));
                println!("{}", lines.last().unwrap());
            }
        }
    }
    assert_table(&lines, include_str!("golden/bench_inputs.txt"));
}
