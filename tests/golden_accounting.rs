//! Golden accounting pin: the step/vtime contract as numbers, not replicas.
//!
//! Every optimisation in this tree follows one convention — skip the work,
//! keep the fuel: inference steps are charged as if the naive algorithm had
//! run, so virtual time, the paper's tables and the traffic volumes never
//! move when wall time does. This test holds that contract for whole runs:
//! the sequential baseline and an in-process p = 2, W = 10 pipeline on a
//! small carcinogenesis input, compared against values recorded at commit
//! 7e9926a (before the search's variant memo). A change that moves any of
//! them changed what the reproduction computes, not just how fast.

use p2mdie::cluster::CostModel;
use p2mdie::core::driver::{run_parallel, run_sequential_timed, ParallelConfig};
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
        (rep.vtime - 128.727_953_600_000_26).abs() < 1e-9,
        "vtime {}",
        rep.vtime
    );
}
