//! `p2mdie-core` — the pipelined data-parallel covering algorithm of
//! Fonseca, Silva, Santos Costa & Camacho, *"A pipelined data-parallel
//! algorithm for ILP"*, IEEE CLUSTER 2005 (the paper's §4).
//!
//! The example set is partitioned evenly over `p` workers; `p` rule
//! searches run simultaneously, each structured as a pipeline of `p`
//! stages that refines candidate rules against one worker's local subset
//! and forwards the best `W` to the next; the master pools the surviving
//! rules, scores them globally, and consumes the bag MDIE-style — several
//! rules per epoch.
//!
//! One job, one path: whatever the entry point, a run is a master
//! function against `p` worker loops over a mesh. And one failure path:
//! every protocol function returns `Result<_, CommFailure>` — a receive that
//! yields nothing its state can act on, be it a dead link, undecodable bytes
//! or a well-formed frame it must refuse, is that value, passed up with `?`
//! to the runtime, which reports the rank at the root as a `ClusterError`.
//! Nothing unwinds on what a peer sent (`receive_states`, test-only, feeds
//! every receive state every frame it does not take).
//!
//! * [`protocol`] — the wire messages (Figures 5–7 as a protocol);
//! * [`partition`] — seeded random even example partitioning;
//! * [`master`] — **the** epoch loop (Figure 5): [`master::run_master`]
//!   runs every learning run — static, re-dealing or replicated examples,
//!   the one [`Strategy`] value naming which, aborting or self-healing —
//!   and `run_search_epoch` the one-epoch rule search; they share the
//!   pipeline-start/gather round, and with the coverage job and the
//!   baseline the crate's one evaluation round and one accept;
//! * [`bag`] — the rule bag with global scoring;
//! * [`worker`] — **the** worker loop (Figure 6): [`worker::run_worker`]
//!   serves every role and strategy, and `run_role` is the one place a
//!   [`WorkerConfig`] becomes its context;
//! * [`pipeline`] — one stage of `learn_rule'` (Figure 7), the one stage
//!   of every strategy: a replicated rank's pipeline is a ring of itself;
//! * [`baselines`] — the coverage-parallel related-work algorithm: a
//!   sequential search at the master that evaluates and accepts through
//!   [`master`]'s rounds, over the common worker loop, reported as a
//!   [`ParallelReport`] like any parallel run;
//! * [`driver`] — `run_parallel` / `run_sequential_timed`, the check of
//!   option combinations (the baseline's too), and `open_mesh`: the one
//!   function that builds a mesh (threads or worker processes, every rank a
//!   resident worker) and runs a master on it — one job for a one-shot run,
//!   the queue for a service;
//! * [`remote`] — multi-process deployment: how worker processes are
//!   spawned (`TcpConfig`) and the worker-process entry (the
//!   `p2mdie-worker` binary is this crate's `src/bin/`);
//! * [`job`] — the first-class job layer: what runs on the cluster
//!   (coverage query, rule search, learning run, baseline run) and its
//!   lifecycle — every run, one-shot or on a service, is one;
//! * [`scheduler`] — ILP-as-a-service: a resident mesh (`Service`) that
//!   multiplexes many jobs over one standing cluster, calling the same
//!   master functions per job;
//! * [`report`] — run reports and the Figure 3/4 trace renderer.

pub mod bag;
pub mod baselines;
pub mod driver;
pub mod job;
pub mod master;
pub mod partition;
pub mod pipeline;
pub mod protocol;
// Test-only: the scripted-peer table over every receive state.
mod receive_states;
pub mod remote;
pub mod report;
pub mod scheduler;
pub mod worker;

pub use bag::{BagRule, RuleBag};
pub use baselines::{run_coverage_parallel, EvalGranularity};
pub use driver::{
    run_parallel, run_sequential_timed, ParallelConfig, RecoveryPolicy, TransportKind,
};
pub use job::{JobId, JobKind, JobOutcome, JobOutput, JobSpec, JobState};
pub use master::{run_master, ship_kb, AcceptedRule, Dealing, EpochTrace, MasterOutcome, Strategy};
pub use partition::{partition_examples, Partition};
pub use protocol::{Msg, PipelineToken, StageTrace, WorkerConfig, WorkerRole, MAX_WORKERS};
pub use remote::{default_worker_bin, run_remote_worker, TcpConfig, WorkerExit};
pub use report::{render_pipeline_trace, ParallelReport, SequentialReport};
pub use scheduler::{JobHandle, Service, ServiceConfig, ServiceReport, SubmitError};
pub use worker::{run_worker, WorkerContext};

/// The problem the unit tests of this crate learn on.
#[cfg(test)]
pub(crate) mod fixtures {
    use p2mdie_ilp::bitset::Bitset;
    use p2mdie_ilp::engine::IlpEngine;
    use p2mdie_ilp::examples::Examples;
    use p2mdie_ilp::modes::ModeSet;
    use p2mdie_ilp::settings::Settings;
    use p2mdie_logic::clause::{Clause, Literal};
    use p2mdie_logic::kb::KnowledgeBase;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::Term;

    /// Multiples of 6 or 10 in `1..=n` over `even`/`div3`/`div5`
    /// background facts — needs a two-rule theory.
    pub(crate) fn problem(n: i64) -> (IlpEngine, Examples) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 1..=n {
            for (name, k) in [("even", 2), ("div3", 3), ("div5", 5)] {
                if i % k == 0 {
                    kb.assert_fact(Literal::new(t.intern(name), vec![Term::Int(i)]));
                }
            }
        }
        let modes = ModeSet::parse(
            &t,
            "special(+num)",
            &[(1, "even(+num)"), (1, "div3(+num)"), (1, "div5(+num)")],
        )
        .unwrap();
        let tgt = t.intern("special");
        let (pos, neg) = (1..=n).partition(|i| i % 6 == 0 || i % 10 == 0);
        let literals = |ns: Vec<i64>| -> Vec<Literal> {
            ns.into_iter()
                .map(|i| Literal::new(tgt, vec![Term::Int(i)]))
                .collect()
        };
        let engine = IlpEngine::new(
            kb,
            modes,
            Settings {
                min_pos: 2,
                noise: 0,
                max_body: 3,
                ..Settings::default()
            },
        );
        (engine, Examples::new(literals(pos), literals(neg)))
    }

    /// Asserts that `clauses` cover every positive and no negative.
    pub(crate) fn check_complete_and_consistent(
        engine: &IlpEngine,
        ex: &Examples,
        clauses: &[Clause],
    ) {
        let mut covered = Bitset::new(ex.num_pos());
        for c in clauses {
            let cov = engine.evaluate(c, ex, None, None);
            covered.union_with(&cov.pos);
            assert_eq!(cov.neg_count(), 0, "inconsistent clause in theory");
        }
        assert_eq!(
            covered.count(),
            ex.num_pos(),
            "theory must cover all positives"
        );
    }
}
