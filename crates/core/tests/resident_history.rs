//! History independence of the resident service: whatever a rank kept from
//! the jobs before — its example subset, its coverage memo, its KB — a job's
//! output and its charged steps are those of the same job on a **fresh**
//! service. The oracle is in the test: every job of a seeded sequence runs
//! on one resident service and is held against a one-job service of its
//! own, in-process and (a shorter sequence) over real `p2mdie-worker`
//! processes.
//!
//! The sequences are built to visit every rule that keeps or drops what a
//! rank holds: the same examples again (kept, not shipped), another set of
//! the *same counts* (shipped, memo dropped — its masks would fit), other
//! `ProofLimits`, learning runs that assert rules between queries, a
//! re-dealing run (both ends forget the subset), and a world whose target
//! is a body mode, where an accepted rule changes what bodies prove.

use p2mdie_core::baselines::EvalGranularity;
use p2mdie_core::job::{JobOutcome, JobOutput, JobSpec, JobState};
use p2mdie_core::remote::TcpConfig;
use p2mdie_core::scheduler::{Service, ServiceConfig};
use p2mdie_core::Strategy;
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::modes::ModeSet;
use p2mdie_ilp::refine::splitmix64;
use p2mdie_ilp::settings::{Settings, Width};
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::ProofLimits;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_logic::term::Term;
use p2mdie_obs::{MetricValue, MetricsSnapshot};

const WORKERS: usize = 2;
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_p2mdie-worker");

/// A service per transport.
#[derive(Clone, Copy, Debug)]
enum Mesh {
    InProcess,
    Tcp,
}

impl Mesh {
    fn service(self, engine: &IlpEngine) -> Service {
        let cfg = ServiceConfig::new(WORKERS);
        match self {
            Mesh::InProcess => Service::new(engine, cfg),
            Mesh::Tcp => Service::new_tcp(engine, cfg, &TcpConfig::with_worker_bin(WORKER_BIN)),
        }
    }
}

/// What must not depend on history: the output (a learning run's traces
/// carry readings of a clock that does) and the charged steps.
fn observed(what: &str, outcome: &JobOutcome) -> (String, Vec<u64>, u64) {
    assert_eq!(outcome.state, JobState::Done, "{what}: {:?}", outcome.error);
    let output = match outcome.output.as_ref().expect("a done job has an output") {
        JobOutput::Learned(m) => format!("{:?}", (&m.theory, m.epochs, m.set_aside, m.stalled)),
        other => format!("{other:?}"),
    };
    let acc = &outcome.accounting;
    (output, acc.worker_steps.clone(), acc.master_steps)
}

/// An engine and the jobs sequences are drawn from.
struct World {
    engine: IlpEngine,
    menu: Vec<(&'static str, JobSpec)>,
}

/// Runs the jobs `picks` name, in order, on one resident service, checking
/// each against `fresh` (the same job on a service of its own, run once per
/// menu entry); returns the resident ranks' memo counters at the end.
fn run_sequence(
    world: &World,
    mesh: Mesh,
    picks: &[usize],
    fresh: &mut [Option<(String, Vec<u64>, u64)>],
) -> Vec<Vec<(String, String)>> {
    let resident = mesh.service(&world.engine);
    for (at, &pick) in picks.iter().enumerate() {
        let (name, spec) = &world.menu[pick];
        let what = format!("{mesh:?}, job {at} of {picks:?} ({name})");
        let alone = fresh[pick].get_or_insert_with(|| {
            let service = mesh.service(&world.engine);
            let outcome = service.submit(spec.clone()).expect("an empty queue").wait();
            service.shutdown().expect("a clean one-job lifetime");
            observed(&what, &outcome)
        });
        let outcome = resident
            .submit(spec.clone())
            .expect("an empty queue")
            .wait();
        assert_eq!(&observed(&what, &outcome), alone, "{what}: history showed");
    }
    let metrics = resident.metrics().expect("an idle service answers");
    resident.shutdown().expect("a clean lifetime");
    metrics.iter().map(memo_counters).collect()
}

/// The entries of a rank's snapshot that say what its memo did.
fn memo_counters(snapshot: &MetricsSnapshot) -> Vec<(String, String)> {
    let kept = |name: &str| name.starts_with("worker_memo_") || name == "worker_steps_run_total";
    snapshot
        .entries
        .iter()
        .filter(|e| kept(&e.name))
        .map(|e| {
            let value = match &e.value {
                MetricValue::Counter(n) => n.to_string(),
                MetricValue::Gauge(x) => x.to_string(),
                other => format!("{other:?}"),
            };
            (e.name.clone(), value)
        })
        .collect()
}

/// `rounds` shuffles of the whole menu, one after the other: every job meets
/// every other as its predecessor sooner or later.
fn draw(seed: u64, menu: usize, rounds: usize) -> Vec<usize> {
    let mut state = seed;
    let mut picks = Vec::new();
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..menu).collect();
        for i in (1..menu).rev() {
            state = splitmix64(state);
            round.swap(i, (state % (i as u64 + 1)) as usize);
        }
        picks.extend(round);
    }
    picks
}

/// Pyrimidines (intensional background rules, so proof limits bite) with
/// two disjoint example sets of equal counts.
fn drug_world() -> World {
    let ds = p2mdie_datasets::pyrimidines(0.2, 7);
    let (pos, neg) = (&ds.examples.pos, &ds.examples.neg);
    let a = Examples::new(pos[..60].to_vec(), neg[..50].to_vec());
    let b = Examples::new(pos[60..120].to_vec(), neg[50..100].to_vec());
    let rules: Vec<Clause> = {
        let service = Service::new(&ds.engine, ServiceConfig::new(WORKERS));
        let learnt = service.submit(JobSpec::learn(a.clone())).unwrap().wait();
        service.shutdown().unwrap();
        let theory = &learnt.learned().theory;
        theory.iter().map(|r| r.clause.clone()).collect()
    };
    assert!(rules.len() >= 3, "the prefixes below need three rules");
    let tight = Settings {
        proof: ProofLimits {
            max_depth: 2,
            max_steps: 12,
        },
        ..ds.engine.settings.clone()
    };
    let coverage = |ex: &Examples, n: usize| JobSpec::coverage(ex.clone(), rules[..n].to_vec());
    let menu = vec![
        ("one rule on A", coverage(&a, 1)),
        ("two rules on A", coverage(&a, 2)),
        ("every rule on A", coverage(&a, rules.len())),
        ("every rule on B, A's counts", coverage(&b, rules.len())),
        (
            "every rule on A, tight proofs",
            coverage(&a, rules.len()).with_settings(tight.clone()),
        ),
        (
            "learn A",
            JobSpec::learn(a.clone()).with_width(Width::Limit(10)),
        ),
        ("learn B", JobSpec::learn(b.clone())),
        ("search A", JobSpec::rule_search(a.clone())),
        (
            "search A, tight proofs",
            JobSpec::rule_search(a.clone()).with_settings(tight),
        ),
        (
            "learn A, re-dealing",
            JobSpec::learn(a.clone()).with_strategy(Strategy::Redeal),
        ),
        (
            "baseline learn A",
            JobSpec::baseline(a.clone(), EvalGranularity::PerLevel),
        ),
    ];
    World {
        engine: ds.engine,
        menu,
    }
}

/// The chain graph of `worker::tests::reach_ctx`: the target `reach/2` is a
/// body mode with two background facts, so bottom clauses call it, and every
/// rule a learning run accepts changes what those calls prove.
fn reach_world() -> World {
    let t = SymbolTable::new();
    let mut kb = KnowledgeBase::new(t.clone());
    let node = |i: usize| Term::Sym(t.intern(&format!("n{i}")));
    let lit = |name: &str, args: Vec<Term>| Literal::new(t.intern(name), args);
    for i in 0..9 {
        kb.assert_fact(lit("edge", vec![node(i), node(i + 1)]));
    }
    kb.assert_fact(lit("reach", vec![node(1), node(2)]));
    kb.assert_fact(lit("reach", vec![node(4), node(5)]));
    let starts = [1, 4, 0, 2, 3, 5, 6, 7];
    let examples = Examples::new(
        starts
            .map(|i| lit("reach", vec![node(i), node(i + 2)]))
            .into(),
        starts
            .map(|i| lit("reach", vec![node(i + 2), node(i)]))
            .into(),
    );
    let modes = ModeSet::parse(
        &t,
        "reach(+node, +node)",
        &[
            (2, "edge(+node, -node)"),
            (2, "reach(+node, -node)"),
            (1, "edge(+node, +node)"),
        ],
    )
    .unwrap();
    let settings = Settings {
        min_pos: 1,
        noise: 0,
        max_body: 2,
        ..Settings::default()
    };
    let engine = IlpEngine::new(kb, modes, settings);
    let head = engine.modes.head.pred;
    assert!(
        engine.callable_from_bodies(lit("reach", vec![node(0), node(1)]).key()),
        "the fixture's point: {head:?} is a body mode"
    );
    // What a search finds before anything is asserted: clauses that call
    // `reach`, to be asked about after runs that asserted rules for it.
    let bag: Vec<Clause> = {
        let service = Service::new(&engine, ServiceConfig::new(WORKERS));
        let found = service
            .submit(JobSpec::rule_search(examples.clone()))
            .unwrap()
            .wait();
        service.shutdown().unwrap();
        let Some(JobOutput::Rules(rules)) = found.output else {
            panic!("a rule search returns rules");
        };
        rules.into_iter().map(|(clause, ..)| clause).collect()
    };
    assert!(
        bag.iter().any(|c| c.body.iter().any(|l| l.pred == head)),
        "no clause of the bag calls the target"
    );
    let menu = vec![
        ("learn", JobSpec::learn(examples.clone())),
        ("search", JobSpec::rule_search(examples.clone())),
        ("the bag", JobSpec::coverage(examples.clone(), bag)),
        (
            "baseline learn",
            JobSpec::baseline(examples, EvalGranularity::PerClause),
        ),
    ];
    World { engine, menu }
}

#[test]
fn a_job_on_a_resident_service_equals_the_job_on_a_fresh_one() {
    for world in [drug_world(), reach_world()] {
        let mut fresh = vec![None; world.menu.len()];
        for seed in [2005, 21] {
            let picks = draw(seed, world.menu.len(), 2);
            let counters = run_sequence(&world, Mesh::InProcess, &picks, &mut fresh);
            // What a rank keeps is a function of the jobs it ran, nothing else.
            let again = run_sequence(&world, Mesh::InProcess, &picks, &mut fresh);
            assert_eq!(
                counters, again,
                "seed {seed}: the memo counters of two runs"
            );
            assert!(
                counters
                    .iter()
                    .all(|rank| rank.iter().any(|(name, _)| name == "worker_memo_bytes")),
                "every rank reports its memo: {counters:?}"
            );
        }
    }
}

#[test]
fn over_worker_processes_too() {
    let world = drug_world();
    let mut fresh = vec![None; world.menu.len()];
    // One rule, every rule, the other set, back, a learn, a search under
    // tight proofs and under loose ones, a re-deal, and the first again.
    let picks = [0, 2, 3, 2, 5, 8, 7, 9, 0];
    let counters = run_sequence(&world, Mesh::Tcp, &picks, &mut fresh);
    let again = run_sequence(&world, Mesh::Tcp, &picks, &mut fresh);
    assert_eq!(counters, again, "the memo counters of two runs");

    let world = reach_world();
    let mut fresh = vec![None; world.menu.len()];
    run_sequence(&world, Mesh::Tcp, &[1, 0, 1, 2, 3, 2], &mut fresh);
}
